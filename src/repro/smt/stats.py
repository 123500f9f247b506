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
  proof-logging solver (:func:`~repro.smt.solver.certified_solver`),
* ``float_checks`` / ``float_pivots`` -- two-tier backend
  (:mod:`repro.smt.backend`): LRA checks that entered the float tier
  (every LRA check does),
  and pivots spent there (``pivots`` stays the *exact*-tier pivot
  count, so ``float_pivots / (float_pivots + pivots)`` is the share of
  pivot work the cheap tier absorbed),
* ``float_sat_confirmed`` / ``float_unsat_confirmed`` -- float-tier
  verdicts the exact tier confirmed (a snapped SAT candidate that
  model-checked in Fractions; a suspected conflict re-derived as an
  exact Farkas certificate),
* ``tier_disagreements`` -- float verdicts the exact tier *refuted*
  (a bogus conflict or a candidate that failed the exact model check);
  each one is silently corrected by a full exact solve,
* ``tier_fallbacks`` -- float-tier checks that ended in a full exact
  solve for any reason (a float give-up or a disagreement).

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
    # Always 0 (solvers are never pooled); read by perfbench/run.py.
    sessions_reused: int = 0
    proof_fallbacks: int = 0
    float_checks: int = 0
    float_pivots: int = 0
    float_sat_confirmed: int = 0
    float_unsat_confirmed: int = 0
    tier_disagreements: int = 0
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
