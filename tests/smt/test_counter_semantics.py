"""Pin the counting semantics documented in ``repro.smt.stats``.

* every ``Solver.check`` increments ``checks`` once;
* a certified check (``certified_solver``) increments
  ``solvers_constructed``, ``checks`` and ``proof_fallbacks`` once each.
"""

from repro.smt import LE, SAT, Atom, LinExpr, Solver, Var, certified_solver, conj
from repro.smt.stats import GLOBAL_COUNTERS

X = Var("x")


def _box(low: int, high: int):
    expr = LinExpr.var(X)
    return conj(
        [
            Atom(expr - high, LE),  # x <= high
            Atom(LinExpr.const_expr(low) - expr, LE),  # x >= low
        ]
    )


def test_certified_solver_counts_one_proof_fallback():
    before = GLOBAL_COUNTERS.snapshot()
    solver = certified_solver([_box(0, 10)])
    delta = GLOBAL_COUNTERS.delta_since(before)
    assert solver.proof_log.result == SAT
    assert delta["solvers_constructed"] == 1
    assert delta["checks"] == 1
    assert delta["proof_fallbacks"] == 1


def test_every_check_counts_once():
    solver = Solver()
    solver.add(_box(0, 10))
    before = GLOBAL_COUNTERS.snapshot()
    assert solver.check() == SAT
    assert solver.check([Atom(LinExpr.var(X) - 3, LE)]) == SAT
    delta = GLOBAL_COUNTERS.delta_since(before)
    assert delta["checks"] == 2
    assert delta["solvers_constructed"] == 0
    assert delta["proof_fallbacks"] == 0
    assert delta["sessions_reused"] == 0
