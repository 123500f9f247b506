"""Longest-expected-first scheduling for the sharded workload driver.

The efficacy workload's wall-clock lives in its tail: BENCH history
shows p95 around 8x the median, so a static one-query-per-slot fan-out
leaves most workers idle while one grinds.  The sharded driver
(:mod:`repro.bench.parallel`) instead ranks queries by *expected*
synthesis cost before dispatching and assigns them longest-first to the
least-loaded shard (the classic LPT heuristic), so the grinders start
early and the cheap queries fill the gaps -- with work stealing
mopping up whatever the estimate got wrong.

The cost estimate is seeded from :mod:`repro.engine.statistics`
cardinalities, as a real optimizer would seed admission control: a
synthetic uniform histogram over the workload's date domain (the
workload generator draws its literals uniformly from that range, so
the sketch is faithful by construction and needs no dbgen run) prices
each query's predicate selectivity, and the term/column counts price
the CEGIS search dimensionality.  The estimate only has to *rank*
sensibly -- scheduling is a heuristic, correctness never depends on it
(the merge is by query index regardless of placement).
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from ..engine.statistics import ColumnStats, TableStats, estimate_selectivity
from ..predicates import Comparison, PAnd, PNot, POr, Pred
from ..predicates.dates import date_to_days
from ..tpch import LINEITEM_DATES, WorkloadQuery

__all__ = ["assign_shards", "expected_costs", "synthetic_lineitem_stats"]

#: The workload generator's literal domain (tpch.workload draws dates
#: uniformly from this range); the synthetic histogram mirrors it.
_DATE_LO = dt.date(1992, 6, 1)
_DATE_HI = dt.date(1998, 1, 1)

#: Rows in the synthetic sketch.  Only ratios matter for selectivity;
#: the count just has to dwarf the histogram bucket count.
_SKETCH_ROWS = 4096

_STATS_CACHE: TableStats | None = None


def synthetic_lineitem_stats() -> TableStats:
    """Uniform date-column sketch of lineitem, built without dbgen.

    Each of the three workload date columns gets an equi-width
    histogram over the generator's literal domain.  Cached: the sketch
    is deterministic and every caller wants the same one.
    """
    global _STATS_CACHE
    if _STATS_CACHE is not None:
        return _STATS_CACHE
    lo = date_to_days(_DATE_LO)
    hi = date_to_days(_DATE_HI)
    values = np.linspace(lo, hi, _SKETCH_ROWS).astype(np.int64)
    stats = TableStats("lineitem", _SKETCH_ROWS)
    for column in LINEITEM_DATES:
        stats.columns[column.name] = ColumnStats.from_array(values, None)
    _STATS_CACHE = stats
    return stats


def _count_terms(pred: Pred) -> int:
    """Comparison leaves of a predicate tree."""
    if isinstance(pred, Comparison):
        return 1
    if isinstance(pred, (PAnd, POr)):
        return sum(_count_terms(arg) for arg in pred.args)
    if isinstance(pred, PNot):
        return _count_terms(pred.arg)
    return 0


def expected_costs(queries: list[WorkloadQuery]) -> list[float]:
    """Relative expected synthesis cost per query (same order).

    Two deterministic signals, both monotone in observed CEGIS effort:

    * **dimensionality** -- more terms and more touched columns mean
      more atoms per check and more column subsets with a non-trivial
      unsat region;
    * **selectivity** -- the tighter the predicate keeps the estimated
      surviving fraction, the larger its unsat region and the more
      counter-example rounds the loop historically burns.
    """
    stats = synthetic_lineitem_stats()
    costs = []
    for wq in queries:
        terms = _count_terms(wq.predicate)
        cols = len(wq.predicate.columns())
        selectivity = estimate_selectivity(wq.predicate, stats)
        costs.append(float(terms + 2 * cols) * (2.0 - selectivity))
    return costs


def assign_shards(costs: list[float], workers: int) -> list[list[int]]:
    """LPT assignment: positions into ``costs``, one list per worker.

    Queries are taken in descending expected cost (ties broken by
    position, so the assignment is deterministic) and each goes to the
    currently least-loaded shard.  Within a shard the resulting order
    is descending cost -- workers run their grinders first -- and the
    driver steals from the *tail* of the largest remaining shard, i.e.
    the cheapest work the busiest worker has not started.
    """
    workers = max(workers, 1)
    shards: list[list[int]] = [[] for _ in range(workers)]
    loads = [0.0] * workers
    order = sorted(range(len(costs)), key=lambda pos: (-costs[pos], pos))
    for pos in order:
        target = min(range(workers), key=lambda w: (loads[w], w))
        shards[target].append(pos)
        loads[target] += costs[pos]
    return shards
