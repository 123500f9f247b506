"""Process-wide solver instrumentation counters.

The substrate keeps cheap monotone counters that the micro-benchmarks
(``benchmarks/bench_smt_micro.py``), the end-to-end benchmark and the
parallel workload driver snapshot around their workloads:

* ``solvers_constructed`` -- ``Solver`` instances built (each one
  re-encodes CNF and grows a cold CDCL core from nothing),
* ``checks`` -- top-level ``Solver.check`` calls,
* ``clauses_learned`` -- CDCL conflict clauses learned,
* ``restarts`` -- CDCL Luby restarts,
* ``pivots`` -- simplex pivot operations,
* ``proof_fallbacks`` -- certified checks, each on a sealed
  proof-logging solver (:func:`~repro.smt.solver.certified_solver`).

``pivots`` counts every pivot of the incremental exact tableau
(:class:`~repro.smt.simplex.Simplex`), so a warm-started check that
needs no pivot adds nothing.

**Counting semantics** (pinned by ``tests/smt/test_counter_semantics.py``):
``checks`` counts *every* top-level ``Solver.check`` call, certified
ones included.  A certified check increments ``solvers_constructed``,
``checks`` and ``proof_fallbacks`` once each.

Counters are per process; the parallel driver aggregates the deltas
its workers report.  This module sits below every other smt module so
both :mod:`repro.smt.sat` and :mod:`repro.smt.solver` can import it
without cycles.  Richer distributions (per-check latency percentiles)
live in :data:`repro.obs.metrics.GLOBAL_METRICS`; these counters stay
dataclass-flat because the hot loops increment them unconditionally.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields


@dataclass
class SolverCounters:
    """Monotone event counters (see module docstring)."""

    solvers_constructed: int = 0
    checks: int = 0
    clauses_learned: int = 0
    restarts: int = 0
    pivots: int = 0
    proof_fallbacks: int = 0
    # Always 0: solvers are never pooled and there is no float tier to
    # pivot in or fall back from.  perfbench/run.py reads them by key.
    sessions_reused: int = 0
    float_pivots: int = 0
    tier_fallbacks: int = 0

    def snapshot(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def delta_since(self, snapshot: dict[str, int]) -> dict[str, int]:
        """Counter increments since a previous :meth:`snapshot`."""
        return {
            name: value - snapshot.get(name, 0)
            for name, value in self.snapshot().items()
        }

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


#: Pid that imported this module.  Spawn workers re-import (fresh
#: counters, owner == worker); fork children inherit the parent's pid
#: here -- the runtime sanitizer (:mod:`repro.obs.sanitizer`) flags
#: writes whenever ``os.getpid()`` disagrees with the owner.
_OWNER_PID = os.getpid()

#: The process-wide counter instance (workers report their own copy).
GLOBAL_COUNTERS = SolverCounters()
