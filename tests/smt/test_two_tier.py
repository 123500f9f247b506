"""Exact-core regressions from the retired two-tier backend.

These tableaux once made an epsilon-guarded float tier wrong (huge
coefficient ratios, epsilon-straddling bounds, near-degenerate pivots);
they stay as regressions of the exact core.  The differential halves
compare the incremental path -- one persistent tableau per solver,
synced per round -- against a fresh tableau per check.
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
    LinExpr,
    Not,
    REAL,
    Simplex,
    Solver,
    TheoryConflict,
    Var,
    disj,
    is_satisfiable,
)
from repro.smt import solver as solver_mod
from repro.smt.backend import check_tableau
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
    if atom.op == EQ:
        return real == 0 and k == 0
    if atom.op == LT:
        return real < 0 or (real == 0 and k < 0)
    return real < 0 or (real == 0 and k <= 0)


def _verdict(atoms):
    """SAT model or the TheoryConflict, via check_conjunction."""
    try:
        return ("sat", check_conjunction(_tagged(atoms)))
    except TheoryConflict as conflict:
        return ("unsat", conflict)


def _exact_verdict(atoms):
    """The reference: one fresh simplex for this conjunction."""
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
# Tableaux that defeated the float tier
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
    kind, payload = _verdict(atoms)
    assert kind == "unsat"
    _assert_exact_conflict(payload, atoms)


def test_near_degenerate_pivot_float_misses_sat():
    # s = x + y/10^13 >= 2 with x <= 1 is exactly feasible (push y),
    # but y's column coefficient is below PIVOT_EPS, so the float tier
    # cannot pivot on it and suspects a conflict.
    atoms = [
        Atom(2 - (ex + ey * Fraction(1, 10**13)), LE),
        Atom(ex - 1, LE),
    ]
    kind, model = _verdict(atoms)
    assert kind == "sat"
    assert all(_holds(atom, model) for atom in atoms)


# ----------------------------------------------------------------------
# Cores and models
# ----------------------------------------------------------------------
def test_unsat_confirmation_reuses_suspected_core():
    atoms = [Atom(ex - 1, LE), Atom(2 - ex, LE), Atom(ey - 7, LE)]
    kind, conflict = _verdict(atoms)
    assert kind == "unsat"
    # The irrelevant y bound (tag 3) must not pollute the core.
    assert set(conflict.core) == {1, 2}
    _assert_exact_conflict(conflict, atoms)


def test_trust_sat_candidate_is_exact_and_checked():
    atoms = [
        Atom(3 - ex, LE),           # x >= 3
        Atom(ex - 10, LT),          # x < 10
        Atom(ex + ey - 12, EQ),     # x + y = 12
        Atom(ez * 3 - 1, LE),       # z <= 1/3
    ]
    kind, model = _verdict(atoms)
    assert kind == "sat"
    assert all(_holds(atom, model) for atom in atoms)
    for value in model.values():
        assert isinstance(value, Fraction)


# ----------------------------------------------------------------------
# Differential fuzz: one persistent tableau against a fresh one per case
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
    # Every case is synced onto the same tableau, so each one starts
    # from the previous case's basis and retracts its bounds.
    rng = random.Random(20260808)
    tableau = Simplex()
    unsat = 0
    for _ in range(150):
        atoms = _random_atoms(rng)
        expected = _exact_verdict(atoms)
        try:
            model = check_tableau(tableau, _tagged(atoms))
        except TheoryConflict as conflict:
            assert expected == "unsat", f"spurious conflict on {atoms}"
            _assert_exact_conflict(conflict, atoms)
            unsat += 1
            continue
        assert expected == "sat", f"missed conflict on {atoms}"
        assert all(_holds_delta(atom, model) for atom in atoms)
    assert unsat  # the fuzz actually exercised UNSAT paths
    assert tableau.rows  # and multi-variable rows outlived their case


def test_differential_full_solver_verdicts_and_certificates(monkeypatch):
    from repro.analysis.certify import audit_proof
    from repro.smt import certified_solver
    from tests.smt.test_solver_bruteforce import random_formula

    def fresh_tableau(constraints, **kwargs):
        kwargs.pop("tableau", None)
        return check_conjunction(constraints, **kwargs)

    rng = random.Random(7)
    for _ in range(40):
        formula = random_formula(rng)
        with monkeypatch.context() as per_round:
            # Reference: a fresh tableau for every theory round.
            per_round.setattr(solver_mod, "check_conjunction", fresh_tableau)
            expected = is_satisfiable(formula)
        assert is_satisfiable(formula) == expected, formula
        if not expected:
            # Certified replay on the persistent tableau: the audit
            # must pass.
            solver = certified_solver([formula])
            assert solver.proof_log is not None
            assert solver.proof_log.result == UNSAT
            assert audit_proof(solver.proof_log, origin="incremental") == []


# ----------------------------------------------------------------------
# Assumptions on a persistent tableau
# ----------------------------------------------------------------------
def test_box_guard_semantics_survive_the_filter():
    # Guarded and unguarded checks on one solver: the guard's
    # assumption must flip the verdict.
    guard = BVar("__two_tier_box__")
    solver = Solver()
    solver.add(Atom(1 - ex, LE))  # x >= 1
    solver.add(disj([Not(guard), Atom(ex - 0, LE)]))  # guard -> x <= 0
    assert solver.check([guard]) == UNSAT
    assert solver.check() == SAT
