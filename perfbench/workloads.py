"""The three workloads: set-up, one item, and the output checks.

Each workload is a fixed list of items made at set-up from the seed.
:meth:`Workload.run_item` runs one item as a closed-loop client would
(the next item starts after this one returns): the timed region covers
what a user waits for, and the output check runs after it.

The workloads call the program's public API only; in the traced run
the wrappers of ``spans.py`` stand in for the functions they call.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import core, engine, rewrite, tpch
from repro.predicates import Col, Comparison, eval_pred_numpy, pand
from repro.sql import binder
from repro.tpch import queries as library
from repro.tpch import workload as generator

import measure

_clock = time.perf_counter

#: The section 6.3 generator draws every workload's queries from the
#: paper's workload seed; ``--seed`` drives the TPC-H data and the
#: submission order (see README.md, "Seeds").
POOL_SEED = 42
TARGET = "lineitem"


@dataclass
class Sample:
    """One finished item."""

    item: int
    optimize_ms: float
    answer_ms: float
    ok: bool = True
    detail: str = ""
    status: str = ""
    prospective: bool = False
    rewritten: bool = False
    exec_ms_chosen: float = 0.0
    exec_ms_original: float | None = None
    join_tuples: tuple[int, int] | None = None  # (original, rewritten)
    nonempty: bool = False
    engine: dict = field(default_factory=dict)
    #: (Python, numpy) host speed factors around the run (run.py).
    speed: tuple[float, float] = (1.0, 1.0)


class Workload:
    """Common shape; subclasses fill :meth:`setup` and :meth:`run_item`."""

    name = ""
    min_passes = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.item_names: list[str] = []
        self.setup_parts: dict[str, float] = {}
        self.tracer = None

    def _timed(self, part: str, fn, *args, **kwargs):
        start = _clock()
        result = fn(*args, **kwargs)
        self.setup_parts[part] = _clock() - start
        return result

    def order(self, pass_index: int) -> list[int]:
        """Seeded submission order of one pass over every item."""
        items = list(range(len(self.item_names)))
        random.Random(self.seed * 1000 + pass_index).shuffle(items)
        return items

    @contextmanager
    def checking(self):
        """Output checks run outside the layers: the traced run sees
        their time as the benchmark's own."""
        tracer = self.tracer
        if tracer is None:
            yield
            return
        index = tracer.open("bench.check")
        tracer.suspended += 1
        try:
            yield
        finally:
            tracer.suspended -= 1
            tracer.close(index)

    def setup(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def run_item(self, item: int) -> Sample:  # pragma: no cover - abstract
        raise NotImplementedError


def _engine_record(stats) -> dict:
    record = measure.operator_ms(stats)
    record["tuples"] = stats.tuples_processed
    record["join_tuples"] = stats.join_input_tuples
    record["peak_bytes"] = stats.peak_bytes
    return record


# ----------------------------------------------------------------------
class SqlWorkload(Workload):
    """SQL text in, result rows out: parse and bind, the prospective
    test, a rewrite for prospective queries, then the chosen plan."""

    scale_factor = 0.1

    def _load(self, num_generator: int, library_names: tuple[str, ...]) -> None:
        self.catalog = self._timed(
            "tpch.dbgen_s", tpch.generate_catalog, self.scale_factor, seed=self.seed
        )
        pool = self._timed(
            "tpch.workload_gen_s", tpch.generate_workload, num_generator, seed=POOL_SEED
        )
        self.sql = [wq.sql for wq in pool]
        self.sql += [library.get_query(name).sql for name in library_names]
        self.item_names = [f"q{wq.index:02d}" for wq in pool] + list(library_names)
        self.schema = generator.schema()
        #: Per item: (row count, digest, ExecutionStats) of the original plan.
        self.reference: dict[int, tuple] = {}

    def _rewrite(self, query):  # pragma: no cover - abstract
        raise NotImplementedError

    def run_item(self, item: int) -> Sample:
        start = _clock()
        query = binder.parse_query(self.sql[item], self.schema)
        result = None
        if rewrite.is_syntax_based_prospective(query):
            result = self._rewrite(query)
        rewritten = result is not None and result.succeeded
        chosen = result.rewritten if rewritten else query
        optimized = _clock()
        relation, stats = engine.execute(engine.build_plan(chosen), self.catalog)
        done = _clock()
        sample = Sample(
            item,
            optimize_ms=(optimized - start) * 1000.0,
            answer_ms=(done - start) * 1000.0,
            status=result.outcome.status if result is not None else "",
            prospective=result is not None,
            rewritten=rewritten,
            exec_ms_chosen=stats.elapsed_ms,
            engine=_engine_record(stats),
        )
        with self.checking():
            self._check(sample, query, relation, stats)
        return sample

    def _check(self, sample: Sample, query, relation, stats) -> None:
        """Compare the result with the original plan's, as row multisets.

        The original plan runs once per item; later runs of the item
        compare against its digest.
        """
        actual = measure.result_digest(relation)
        reference = self.reference.get(sample.item)
        if reference is None:
            if sample.rewritten:
                original, original_stats = engine.execute(
                    engine.build_plan(query), self.catalog
                )
                reference = (*measure.result_digest(original), original_stats)
            else:
                reference = (*actual, stats)
            self.reference[sample.item] = reference
        rows, digest, original_stats = reference
        sample.exec_ms_original = original_stats.elapsed_ms
        sample.nonempty = rows > 0
        if sample.rewritten:
            sample.join_tuples = (
                original_stats.join_input_tuples,
                stats.join_input_tuples,
            )
        if actual[1] != digest:
            sample.ok = False
            sample.detail = (
                f"{self.item_names[sample.item]}: result differs, "
                f"{rows} rows expected, {actual[0]} returned"
            )


class RewriteOneShot(SqlWorkload):
    """Generator queries as SQL text, each optimized from scratch."""

    name = "rewrite-oneshot"
    min_passes = 3

    def setup(self) -> None:
        self._load(24, ())
        # Warm-up: one library query through the whole pipeline, so
        # lazy imports and first-call costs land in set-up.
        query = binder.parse_query(library.get_query("q_motivating").sql, self.schema)
        result = self._rewrite(query)
        engine.execute(engine.build_plan(result.rewritten or query), self.catalog)

    def _rewrite(self, query):
        return rewrite.rewrite_query(query, TARGET)


# ----------------------------------------------------------------------
class CegisMultiColumn(Workload):
    """Synthesis over every 2- and 3-column subset of the lineitem dates."""

    name = "cegis-multicol"
    num_queries = 1
    min_passes = 2
    #: Catalog used only by the output check.
    scale_factor = 0.05

    def setup(self) -> None:
        self.catalog = self._timed(
            "tpch.dbgen_s", tpch.generate_catalog, self.scale_factor, seed=self.seed
        )
        pool = self._timed(
            "tpch.workload_gen_s", tpch.generate_workload, self.num_queries, seed=POOL_SEED
        )
        self.cells = [
            (wq, subset)
            for wq in pool
            for size in (2, 3)
            for subset in itertools.combinations(tpch.LINEITEM_DATES, size)
        ]
        self.item_names = [
            f"q{wq.index:02d}:" + "+".join(column.name for column in subset)
            for wq, subset in self.cells
        ]
        self.synthesizer = core.Synthesizer(core.SIA_DEFAULT)
        # The check evaluates predicates on the joined template rows;
        # the join and the original truth masks are built once here.
        bare = binder.BoundQuery(
            tables=["lineitem", "orders"],
            where=Comparison(
                Col(generator.ORDERKEY), "=", Col(generator.LINEITEM_ORDERKEY)
            ),
        )
        self.joined, _ = engine.execute(engine.build_plan(bare), self.catalog)
        self.original_truth = {}
        self.original_join_tuples = {}
        for wq in pool:
            truth, _ = self._eval(wq.predicate)
            self.original_truth[wq.index] = truth
            _, stats = engine.execute(engine.build_plan(wq.query), self.catalog)
            self.original_join_tuples[wq.index] = stats.join_input_tuples
        # Warm-up: one cell of a library query, outside the measured cells.
        warm = binder.parse_query(
            library.get_query("q_motivating").sql, generator.schema()
        )
        self.synthesizer.synthesize(
            rewrite.synthesis_input(warm), {tpch.LINEITEM_DATES[0]}
        )

    def _eval(self, predicate):
        return eval_pred_numpy(
            predicate, self.joined.resolver(), self.joined.num_rows
        )

    def run_item(self, item: int) -> Sample:
        wq, subset = self.cells[item]
        start = _clock()
        outcome = self.synthesizer.synthesize(wq.predicate, set(subset))
        elapsed = (_clock() - start) * 1000.0
        sample = Sample(
            item,
            optimize_ms=elapsed,
            answer_ms=elapsed,
            status=outcome.status,
            rewritten=outcome.is_valid,
        )
        if not outcome.is_valid or outcome.predicate is None:
            return sample
        with self.checking():
            truth, _ = self._eval(outcome.predicate)
            accepted = self.original_truth[wq.index]
            sample.nonempty = bool(accepted.any())
            lost = int((accepted & ~truth).sum())
            if lost:
                sample.ok = False
                sample.detail = f"synthesized predicate rejects {lost} accepted rows"
                return sample
            pushed = dataclasses.replace(
                wq.query, where=pand([wq.query.where, outcome.predicate])
            )
            _, stats = engine.execute(engine.build_plan(pushed), self.catalog)
            sample.join_tuples = (
                self.original_join_tuples[wq.index],
                stats.join_input_tuples,
            )
        return sample


# ----------------------------------------------------------------------
class ExecCached(SqlWorkload):
    """Plan-cache traffic: every prospective submission is a cache hit."""

    name = "exec-cached"
    scale_factor = 0.2
    min_passes = 4

    def setup(self) -> None:
        self._load(
            8,
            (
                "q12_shipping_modes",
                "q_motivating",
                "q1_pricing_summary",
                "q3_shipping_priority",
                "q4_order_priority",
                "q6_forecast_revenue",
            ),
        )
        self.cache = rewrite.RewriteCache()
        for sql in self.sql:
            query = binder.parse_query(sql, self.schema)
            if rewrite.is_syntax_based_prospective(query):
                self.cache.rewrite(query, TARGET)

    def _rewrite(self, query):
        return self.cache.rewrite(query, TARGET)


WORKLOADS = {
    workload.name: workload
    for workload in (RewriteOneShot, CegisMultiColumn, ExecCached)
}
