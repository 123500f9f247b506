"""One solver for a whole enumeration session.

An enumeration keeps one :class:`Solver`: formulas accumulate, the
sampling box sits behind a guard literal that boxed checks assume, and
random-region probes arrive as check assumptions.  The load-bearing
property: every check must answer *exactly* like a sealed fresh solver
over the asserted formulas plus that check's assumptions, however many
atoms earlier checks only assumed.  The randomized trace test replays
enumeration-shaped histories (assert, guard, probe, block) against both.
"""

import random

import pytest

from repro.smt import (
    EQ,
    LE,
    LT,
    NE,
    SAT,
    UNSAT,
    Atom,
    BVar,
    LinExpr,
    Not,
    Var,
    certified_solver,
    conj,
    disj,
)
from repro.smt.solver import Solver
from repro.smt.stats import GLOBAL_COUNTERS

X = Var("sx")
Y = Var("sy")
Z = Var("sz")
VARS = [X, Y, Z]


def _random_atom(rng: random.Random, ops=(LE, LE, LT, EQ, NE)) -> Atom:
    picked = rng.sample(VARS, rng.randint(1, 2))
    coeffs = {v: rng.randint(-3, 3) for v in picked}
    if not any(coeffs.values()):
        coeffs[picked[0]] = 1
    return Atom(LinExpr(coeffs, rng.randint(-8, 8)), rng.choice(ops))


def _random_formula(rng: random.Random):
    atoms = [_random_atom(rng) for _ in range(rng.randint(1, 3))]
    if len(atoms) == 1:
        return atoms[0]
    return disj(atoms) if rng.random() < 0.5 else conj(atoms)


def _fresh_verdict(formulas, assumptions) -> str:
    """Reference answer: sealed cold solver, everything asserted."""
    solver = Solver(bnb_budget=4000)
    solver.add(*formulas)
    solver.add(*assumptions)
    return solver.check()


@pytest.mark.parametrize("seed", range(8))
def test_randomized_trace_matches_fresh_solver(seed):
    rng = random.Random(seed)
    solver = Solver(bnb_budget=4000)
    guard = BVar(f"__trace_guard_{seed}__")

    asserted = [_random_formula(rng) for _ in range(2)]
    solver.add(*asserted)
    guarded: list = []
    checks = 0

    for _ in range(30):
        op = rng.random()
        if op < 0.25:
            formula = _random_formula(rng)
            solver.add(formula)
            asserted.append(formula)
        elif op < 0.40:
            formula = _random_formula(rng)
            solver.add(disj([Not(guard), formula]))
            guarded.append(formula)
        else:
            # Probes are literal-shaped bounds, as the sampler's are.
            probes = [
                _random_atom(rng, ops=(LE, LT)) for _ in range(rng.randint(0, 2))
            ]
            boxed = rng.random() < 0.5
            live = asserted + (guarded if boxed else [])
            verdict = solver.check(([guard] if boxed else []) + probes)
            assert verdict == _fresh_verdict(live, probes)
            checks += 1
            if verdict == SAT:
                model = solver.model()
                assignment = {v: model.value(v) for v in VARS}
                for formula in live + probes:
                    assert formula.evaluate(assignment)
    assert checks > 0, "trace never checked; widen the op distribution"


def test_dead_atoms_are_suppressed_and_revived():
    solver = Solver()
    x = LinExpr.var(X)
    solver.add(Atom(x - 10, LE))  # x <= 10
    atom = Atom(x - 5, LE)
    assert solver.check([atom]) == SAT
    # Only ever assumed: later theory rounds skip it.
    assert atom in solver._suppressed
    solver.add(atom)
    assert atom not in solver._suppressed
    assert solver.check([Atom(6 - x, LE)]) == UNSAT  # x >= 6


def test_asserted_atoms_survive_assumption_checks():
    solver = Solver()
    atom = Atom(LinExpr.var(X) - 5, LE)
    solver.add(atom)
    assert solver.check([atom]) == SAT
    assert atom not in solver._suppressed
    # x <= 5 must still constrain: x >= 6 is now contradictory.
    assert solver.check([Atom(LinExpr.const_expr(6) - LinExpr.var(X), LE)]) == UNSAT


def test_assumption_atoms_override_suppression():
    solver = Solver()
    atom = Atom(LinExpr.var(X) - 5, LE)
    assert solver.check([atom]) == SAT
    assert atom in solver._suppressed
    # Assuming the suppressed atom again must constrain this check.
    contradiction = Atom(LinExpr.const_expr(6) - LinExpr.var(X), LE)
    assert solver.check([atom, contradiction]) == UNSAT
    assert atom in solver._suppressed


def test_certified_check_uses_sealed_fresh_solver():
    before = GLOBAL_COUNTERS.snapshot()
    solver = certified_solver(
        [Atom(LinExpr.var(X), LT), Atom(-LinExpr.var(X), LT)]
    )
    delta = GLOBAL_COUNTERS.delta_since(before)
    assert delta.get("proof_fallbacks") == 1
    assert delta.get("solvers_constructed") == 1
    assert solver.proof_log is not None
    assert solver.proof_log.result == UNSAT


def test_certified_solver_round_trip():
    solver = certified_solver([Atom(LinExpr.var(X) - 5, LE)])
    assert solver.proof_log is not None
    assert solver.proof_log.result == SAT
