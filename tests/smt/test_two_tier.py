"""Two-tier tableau backend: differential and adversarial coverage.

The float tier is allowed to be wrong -- these tests construct tableaux
where it *is* (huge coefficient ratios, epsilon-straddling bounds,
near-degenerate pivots, and an outright-lying stub tier) and assert the
exact tier silently corrects every verdict.  A differential fuzz pass
asserts the two-tier verdicts match a plain exact :class:`Simplex`, and
the certified path is checked to produce pure-Fraction certificates
with the float tier running.
"""

import random
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
    DeltaRational,
    LinExpr,
    Not,
    REAL,
    Simplex,
    Solver,
    TheoryConflict,
    Var,
    conj,
    disj,
    is_satisfiable,
)
from repro.smt import backend as backend_mod
from repro.smt import theory as theory_mod
from repro.smt.backend import check_tableau
from repro.smt.floatsimplex import FloatConflict, FloatSimplex
from repro.smt.stats import GLOBAL_COUNTERS
from repro.smt.theory import check_conjunction

X = Var("x", REAL)
Y = Var("y", REAL)
Z = Var("z", REAL)
ex = LinExpr.var(X)
ey = LinExpr.var(Y)
ez = LinExpr.var(Z)


def _tagged(atoms):
    return [(atom, i + 1) for i, atom in enumerate(atoms)]


def _holds(atom, model):
    value = atom.expr.evaluate(
        {v: model.get(v, Fraction(0)) for v in atom.expr.coeffs}
    )
    return atom.holds(value)


def _holds_delta(atom, model):
    """Whether a delta-rational ``model`` satisfies ``atom``."""
    real, k = atom.expr.const, Fraction(0)
    for var, coeff in atom.expr.coeffs.items():
        value = model[var]
        real += coeff * value.real
        k += coeff * value.k
    return backend_mod._holds_symbolically(atom, DeltaRational(real, k))


def _verdict(atoms):
    """SAT model or the TheoryConflict, via check_conjunction."""
    try:
        return ("sat", check_conjunction(_tagged(atoms)))
    except TheoryConflict as conflict:
        return ("unsat", conflict)


def _exact_verdict(atoms):
    """The reference: one plain exact simplex, no float tier."""
    simplex = Simplex()
    try:
        for atom, tag in _tagged(atoms):
            simplex.assert_atom(atom, tag)
        simplex.check()
    except TheoryConflict:
        return "unsat"
    return "sat"


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
    kind, payload = _verdict(atoms)
    assert kind == "unsat"
    _assert_exact_conflict(payload, atoms)


def test_epsilon_straddling_bounds_float_misses_unsat():
    # x <= 5 and x >= 5 + 1/10^12: the gap is far below the float
    # tier's lenient epsilon, so it sees the bounds as touching.
    gap = Fraction(1, 10**12)
    atoms = [Atom(ex - 5, LE), Atom((5 + gap) - ex, LE)]
    before = GLOBAL_COUNTERS.tier_disagreements
    kind, payload = _verdict(atoms)
    assert kind == "unsat"
    _assert_exact_conflict(payload, atoms)
    # The float tier answered SAT; the candidate failed the exact model
    # check, which counts as a disagreement.
    assert GLOBAL_COUNTERS.tier_disagreements == before + 1


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
    kind, model = _verdict(atoms)
    assert kind == "sat"
    assert all(_holds(atom, model) for atom in atoms)
    assert GLOBAL_COUNTERS.tier_disagreements == before + 1


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
    kind, model = _verdict(atoms)
    assert kind == "sat"
    assert all(_holds(atom, model) for atom in atoms)
    assert GLOBAL_COUNTERS.tier_disagreements == before + 1


# ----------------------------------------------------------------------
# Confirmation paths
# ----------------------------------------------------------------------
def test_unsat_confirmation_reuses_suspected_core():
    atoms = [Atom(ex - 1, LE), Atom(2 - ex, LE), Atom(ey - 7, LE)]
    before = GLOBAL_COUNTERS.float_unsat_confirmed
    kind, conflict = _verdict(atoms)
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
    kind, model = _verdict(atoms)
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
    kind, model = _verdict(atoms)
    assert kind == "sat"
    assert all(_holds(atom, model) for atom in atoms)
    assert GLOBAL_COUNTERS.tier_fallbacks == before + 1


# ----------------------------------------------------------------------
# Differential fuzz: two-tier verdicts match the exact reference
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
    unsat = 0
    for _ in range(150):
        atoms = _random_atoms(rng)
        expected = _exact_verdict(atoms)
        try:
            model = check_tableau(_tagged(atoms))
        except TheoryConflict as conflict:
            assert expected == "unsat", f"spurious conflict on {atoms}"
            _assert_exact_conflict(conflict, atoms)
            unsat += 1
            continue
        assert expected == "sat", f"missed conflict on {atoms}"
        assert all(_holds_delta(atom, model) for atom in atoms)
    assert unsat  # the fuzz actually exercised UNSAT paths


def test_differential_full_solver_verdicts_and_certificates(monkeypatch):
    from repro.analysis.certify import audit_proof
    from repro.smt import certified_solver
    from tests.smt.test_solver_bruteforce import random_formula

    rng = random.Random(7)
    for _ in range(40):
        formula = random_formula(rng)
        with monkeypatch.context() as exact_only:
            exact_only.setattr(
                theory_mod, "check_tableau", backend_mod._exact_check
            )
            expected = is_satisfiable(formula)
        assert is_satisfiable(formula) == expected, formula
        if not expected:
            # Certified replay with the float tier running: the audit
            # must pass and the proof's certificates must be float-free.
            solver = certified_solver([formula])
            assert solver.proof_log is not None
            assert solver.proof_log.result == UNSAT
            assert audit_proof(solver.proof_log, origin="two-tier") == []


# ----------------------------------------------------------------------
# Every solver runs the float tier
# ----------------------------------------------------------------------
def test_bare_solver_and_is_satisfiable_enter_float_tier():
    before = GLOBAL_COUNTERS.float_checks
    solver = Solver()
    solver.add(Atom(ex - 1, LE))
    assert solver.check() == SAT
    assert GLOBAL_COUNTERS.float_checks > before
    before = GLOBAL_COUNTERS.float_checks
    assert is_satisfiable(conj([Atom(1 - ex, LE), Atom(ex - 4, LE)]))
    assert GLOBAL_COUNTERS.float_checks > before


def test_box_guard_semantics_survive_the_filter():
    # Guarded and unguarded checks on one solver: the guard's
    # assumption must flip the verdict.
    guard = BVar("__two_tier_box__")
    solver = Solver()
    solver.add(Atom(1 - ex, LE))  # x >= 1
    solver.add(disj([Not(guard), Atom(ex - 0, LE)]))  # guard -> x <= 0
    assert solver.check([guard]) == UNSAT
    assert solver.check() == SAT
