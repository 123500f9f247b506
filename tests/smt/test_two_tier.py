"""Two-tier tableau backend: differential and adversarial coverage.

The float tier is allowed to be wrong -- these tests construct tableaux
where it *is* (huge coefficient ratios, epsilon-straddling bounds,
near-degenerate pivots, and an outright-lying stub tier) and assert the
exact tier silently corrects every verdict.  A differential fuzz pass
asserts final SAT/UNSAT verdicts are tier-independent, and the
certified path is checked to produce pure-Fraction certificates with
the filter on.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.smt import (
    EQ,
    LE,
    LT,
    SAT,
    UNSAT,
    Atom,
    BVar,
    LinExpr,
    Not,
    REAL,
    Solver,
    TheoryConflict,
    Var,
    conj,
    disj,
    is_satisfiable,
)
from repro.smt.backend import (
    FLOAT_FILTER,
    FLOAT_MODES,
    FLOAT_OFF,
    FLOAT_TRUST_SAT,
    check_tableau,
    resolve_float_mode,
)
from repro.smt import backend as backend_mod
from repro.smt.floatsimplex import FloatConflict, FloatSimplex
from repro.smt.stats import GLOBAL_COUNTERS
from repro.smt.theory import check_conjunction

X = Var("x", REAL)
Y = Var("y", REAL)
Z = Var("z", REAL)
ex = LinExpr.var(X)
ey = LinExpr.var(Y)
ez = LinExpr.var(Z)

FILTER_MODES = [FLOAT_FILTER, FLOAT_TRUST_SAT]


@pytest.fixture(autouse=True)
def _isolate_float_mode_env(monkeypatch):
    # This file tests the tier machinery itself across explicit modes;
    # a CI-level SIA_FLOAT_FILTER override must not leak in.
    monkeypatch.delenv("SIA_FLOAT_FILTER", raising=False)


def _tagged(atoms):
    return [(atom, i + 1) for i, atom in enumerate(atoms)]


def _holds(atom, model):
    value = atom.expr.evaluate(
        {v: model.get(v, Fraction(0)) for v in atom.expr.coeffs}
    )
    return atom.holds(value)


def _verdict(atoms, mode):
    """SAT model or the TheoryConflict, via check_conjunction."""
    try:
        return ("sat", check_conjunction(_tagged(atoms), float_mode=mode))
    except TheoryConflict as conflict:
        return ("unsat", conflict)


def _assert_exact_conflict(conflict, atoms):
    """The conflict is over input tags and its witness is float-free."""
    tags = set(range(1, len(atoms) + 1))
    assert set(conflict.core) <= tags
    if conflict.farkas is not None:
        for coeff, _tag, expr, _op in conflict.farkas:
            assert isinstance(coeff, Fraction)
            assert isinstance(expr.const, (int, Fraction))
            for value in expr.coeffs.values():
                assert isinstance(value, (int, Fraction))


# ----------------------------------------------------------------------
# Adversarial tableaux: the float tier is wrong, the exact tier corrects
# ----------------------------------------------------------------------
def test_huge_coefficient_ratio_float_misses_unsat():
    # x >= 1, y >= 1, x + 1e18*y <= 1e18: exactly UNSAT, but in floats
    # 1e18 + 1 rounds to 1e18, so the float tier sees a model.
    atoms = [
        Atom(1 - ex, LE),
        Atom(1 - ey, LE),
        Atom(ex + ey * 10**18 - 10**18, LE),
    ]
    for mode in FLOAT_MODES:
        kind, payload = _verdict(atoms, mode)
        assert kind == "unsat", mode
        _assert_exact_conflict(payload, atoms)


def test_epsilon_straddling_bounds_float_misses_unsat():
    # x <= 5 and x >= 5 + 1/10^12: the gap is far below the float
    # tier's lenient epsilon, so it sees the bounds as touching.
    gap = Fraction(1, 10**12)
    atoms = [Atom(ex - 5, LE), Atom((5 + gap) - ex, LE)]
    before = GLOBAL_COUNTERS.tier_disagreements
    for mode in FLOAT_MODES:
        kind, payload = _verdict(atoms, mode)
        assert kind == "unsat", mode
        _assert_exact_conflict(payload, atoms)
    # The float tier answered SAT; plain ``filter`` mode just re-solves
    # (no confirmation, no disagreement recorded), but ``trust-sat``
    # mode catches the candidate failing the exact model check.
    assert GLOBAL_COUNTERS.tier_disagreements >= before + 1


def test_near_degenerate_pivot_float_misses_sat():
    # s = x + y/10^13 >= 2 with x <= 1 is exactly feasible (push y),
    # but y's column coefficient is below PIVOT_EPS, so the float tier
    # cannot pivot on it and suspects a conflict.  The exact tier
    # refutes the suspicion and produces a real model.
    atoms = [
        Atom(2 - (ex + ey * Fraction(1, 10**13)), LE),
        Atom(ex - 1, LE),
    ]
    before = GLOBAL_COUNTERS.tier_disagreements
    for mode in FILTER_MODES:
        kind, model = _verdict(atoms, mode)
        assert kind == "sat", mode
        assert all(_holds(atom, model) for atom in atoms)
    assert GLOBAL_COUNTERS.tier_disagreements >= before + 2


def test_lying_float_tier_is_refuted(monkeypatch):
    # Stub tier that claims every system is infeasible, blaming every
    # tag: the exact tier must refute the suspected core and still
    # return a model.
    class LyingSimplex(FloatSimplex):
        def check(self):
            raise FloatConflict(
                frozenset(bound.tag for bound in self.lower.values())
                | frozenset(bound.tag for bound in self.upper.values())
            )

    monkeypatch.setattr(backend_mod, "FloatSimplex", LyingSimplex)
    atoms = [Atom(1 - ex, LE), Atom(ex - 3, LE)]
    before = GLOBAL_COUNTERS.tier_disagreements
    kind, model = _verdict(atoms, FLOAT_FILTER)
    assert kind == "sat"
    assert all(_holds(atom, model) for atom in atoms)
    assert GLOBAL_COUNTERS.tier_disagreements == before + 1


# ----------------------------------------------------------------------
# Confirmation paths
# ----------------------------------------------------------------------
def test_unsat_confirmation_reuses_suspected_core():
    atoms = [Atom(ex - 1, LE), Atom(2 - ex, LE), Atom(ey - 7, LE)]
    before = GLOBAL_COUNTERS.float_unsat_confirmed
    kind, conflict = _verdict(atoms, FLOAT_FILTER)
    assert kind == "unsat"
    # The irrelevant y bound (tag 3) must not pollute the core.
    assert set(conflict.core) == {1, 2}
    _assert_exact_conflict(conflict, atoms)
    assert GLOBAL_COUNTERS.float_unsat_confirmed == before + 1


def test_trust_sat_candidate_is_exact_and_checked():
    atoms = [
        Atom(3 - ex, LE),           # x >= 3
        Atom(ex - 10, LT),          # x < 10
        Atom(ex + ey - 12, EQ),     # x + y = 12
        Atom(ez * 3 - 1, LE),       # z <= 1/3
    ]
    before = GLOBAL_COUNTERS.float_sat_confirmed
    kind, model = _verdict(atoms, FLOAT_TRUST_SAT)
    assert kind == "sat"
    assert all(_holds(atom, model) for atom in atoms)
    for value in model.values():
        assert isinstance(value, Fraction)
    assert GLOBAL_COUNTERS.float_sat_confirmed == before + 1


def test_give_up_falls_back_to_exact(monkeypatch):
    from repro.smt import floatsimplex as fs

    monkeypatch.setattr(fs, "_MAX_PIVOTS", 0)
    atoms = [Atom(2 - (ex + ey), LE), Atom(ex - 1, LE), Atom(ey - 1, LE)]
    before = GLOBAL_COUNTERS.tier_fallbacks
    kind, model = _verdict(atoms, FLOAT_FILTER)
    assert kind == "sat"
    assert all(_holds(atom, model) for atom in atoms)
    assert GLOBAL_COUNTERS.tier_fallbacks == before + 1


# ----------------------------------------------------------------------
# Differential fuzz: verdicts are tier-independent
# ----------------------------------------------------------------------
def _random_atoms(rng):
    exprs = [ex, ey, ez, ex + ey, ex - ez, ey * 2 + ez]
    atoms = []
    for _ in range(rng.randint(2, 7)):
        expr = rng.choice(exprs)
        scale = rng.choice(
            [1, -1, 3, Fraction(1, 7), 10**rng.choice([0, 6, 15])]
        )
        const = Fraction(rng.randint(-40, 40), rng.choice([1, 1, 2, 9]))
        op = rng.choice([LE, LE, LT, EQ])
        atoms.append(Atom(expr * scale - const, op))
    return atoms


def test_differential_fuzz_conjunction_verdicts_tier_independent():
    rng = random.Random(20260808)
    disagreements = 0
    for _ in range(150):
        atoms = _random_atoms(rng)
        results = {}
        for mode in FLOAT_MODES:
            kind, payload = _verdict(atoms, mode)
            results[mode] = (kind, payload)
        kinds = {kind for kind, _ in results.values()}
        assert len(kinds) == 1, f"verdicts diverged on {atoms}: {results}"
        (kind, _) = results[FLOAT_OFF]
        for mode in FILTER_MODES:
            _, payload = results[mode]
            if kind == "sat":
                assert all(_holds(atom, payload) for atom in atoms)
            else:
                _assert_exact_conflict(payload, atoms)
                disagreements += 1
    assert disagreements  # the fuzz actually exercised UNSAT paths


def test_differential_full_solver_verdicts_and_certificates():
    from repro.analysis.certify import audit_proof
    from repro.smt import certified_solver
    from tests.smt.test_solver_bruteforce import random_formula

    rng = random.Random(7)
    for _ in range(40):
        formula = random_formula(rng)
        verdicts = {
            mode: is_satisfiable(formula, float_filter=mode)
            for mode in FLOAT_MODES
        }
        assert len(set(verdicts.values())) == 1, formula
        if not verdicts[FLOAT_OFF]:
            # Certified replay with the filter on: the audit must pass
            # and the proof's theory certificates must be float-free.
            solver = certified_solver([formula], float_filter=FLOAT_TRUST_SAT)
            assert solver.proof_log is not None
            assert solver.proof_log.result == UNSAT
            assert audit_proof(solver.proof_log, origin="two-tier") == []


# ----------------------------------------------------------------------
# Mode resolution and threading
# ----------------------------------------------------------------------
def test_resolve_float_mode_validates():
    assert resolve_float_mode(None) == FLOAT_OFF
    assert resolve_float_mode(FLOAT_TRUST_SAT) == FLOAT_TRUST_SAT
    with pytest.raises(ValueError):
        resolve_float_mode("sometimes")


def test_env_override_forces_mode(monkeypatch):
    monkeypatch.setenv("SIA_FLOAT_FILTER", FLOAT_OFF)
    assert resolve_float_mode(FLOAT_TRUST_SAT) == FLOAT_OFF
    monkeypatch.setenv("SIA_FLOAT_FILTER", FLOAT_FILTER)
    assert resolve_float_mode(None) == FLOAT_FILTER
    before = GLOBAL_COUNTERS.float_checks
    solver = Solver()  # env says "filter": the float tier must run
    solver.add(Atom(ex - 1, LE))
    assert solver.check() == SAT
    assert GLOBAL_COUNTERS.float_checks > before


def test_enumerator_threads_float_filter():
    from repro.core import SIA_DEFAULT
    from repro.core.samples import IncrementalEnumerator

    config = replace(SIA_DEFAULT, float_filter=FLOAT_TRUST_SAT)
    before = GLOBAL_COUNTERS.float_checks
    enumerator = IncrementalEnumerator(
        conj([Atom(1 - ex, LE), Atom(ex - 4, LE)]),
        [X],
        [],
        config,
        with_box=True,
    )
    point = enumerator.next([])
    assert GLOBAL_COUNTERS.float_checks > before
    assert point is not None and Fraction(1) <= point[X] <= Fraction(4)


def test_box_guard_semantics_survive_the_filter():
    # Guarded and unguarded checks across modes: verdicts must match
    # the exact-only solver check for check.
    guard = BVar("__two_tier_box__")
    for mode in FLOAT_MODES:
        solver = Solver(float_filter=mode)
        solver.add(Atom(1 - ex, LE))  # x >= 1
        solver.add(disj([Not(guard), Atom(ex - 0, LE)]))  # guard -> x <= 0
        assert solver.check([guard]) == UNSAT
        assert solver.check() == SAT
