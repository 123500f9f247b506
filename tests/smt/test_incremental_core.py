"""The incremental theory core: one tableau per solver.

Differential coverage of the persistent exact tableau against fresh
ones, at two levels:

* **Tableau.**  Random assume/retract sequences with branch-and-bound
  style push/pop on one :class:`Simplex` (multi-variable forms keep
  arriving after pivots) are compared with a fresh :class:`Simplex`
  over the same constraints; every conflict's Farkas witness passes the
  independent auditor.
* **Solver.**  One :class:`Solver` reused across checks -- growing
  ``add``\\ s, alternating assumptions and ``NotOld`` blocking -- is
  compared with a fresh solver per check, and every ``sat`` model must
  satisfy every asserted formula.
"""

import random
from fractions import Fraction

from repro.analysis import audit_proof
from repro.smt import (
    EQ,
    LE,
    LT,
    NE,
    REAL,
    SAT,
    UNSAT,
    Atom,
    LinExpr,
    ProofLog,
    Simplex,
    Solver,
    TheoryConflict,
    Var,
    compare,
    conj,
    disj,
)
from repro.smt.backend import check_tableau
from repro.smt.theory import _concrete, _leaf_cert
from tests.smt.test_certify_differential import random_formula

X = Var("x", REAL)
Y = Var("y", REAL)
Z = Var("z", REAL)
ex, ey, ez = LinExpr.var(X), LinExpr.var(Y), LinExpr.var(Z)
c = LinExpr.const_expr


# ----------------------------------------------------------------------
# Regression: the footprint of a disequality
# ----------------------------------------------------------------------
def test_disequality_added_after_assumption_is_not_suppressed():
    # ``61 - x <= 0`` is registered by an assumption first; it is the
    # complement of the ``x - 61 < 0`` split of ``x - 61 != 0`` and
    # names the same SAT variable, so the later ``add`` must revive it.
    x, y = Var("x"), Var("y")
    vx, vy = LinExpr.var(x), LinExpr.var(y)
    base = [
        compare(vx + vy, ">=", c(122)),
        compare(vy, "<=", c(61)),
        compare(vx, "<=", c(61)),
    ]
    solver = Solver()
    solver.add(*base)
    assert solver.check([Atom(61 - vx, LE)]) == SAT
    diseq = Atom(vx - 61, NE)
    solver.add(diseq)
    fresh = Solver()
    fresh.add(*base, diseq)
    assert fresh.check() == UNSAT
    assert solver.check() == UNSAT


# ----------------------------------------------------------------------
# Tableau level
# ----------------------------------------------------------------------
_EARLY_FORMS = [ex, ey, ez, ex + ey, ex - ez]
# Forms that first appear after the tableau has pivoted: their rows
# must be written over the nonbasic variables of the moment.
_LATE_FORMS = [ey * 2 + ez, ex + ey + ez, ex * 3 - ey, ey - ez * 2]


def _random_atom(rng, forms):
    expr = rng.choice(forms) * rng.choice([1, -1, 2, Fraction(1, 3)])
    const = Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2]))
    return Atom(expr - const, rng.choice([LE, LE, LT, EQ]))


def _holds_delta(atom, model):
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


def _fresh_verdict(constraints):
    simplex = Simplex()
    try:
        for atom, tag in constraints:
            simplex.assert_atom(atom, tag)
        simplex.check()
    except TheoryConflict:
        return UNSAT
    return SAT


def _audit_conflict(conflict, constraints):
    """The conflict's Farkas witness, logged as a theory clause over
    the constraints' tags, passes the independent auditor."""
    atom_of = {tag: atom for atom, tag in constraints}
    assert set(conflict.core) <= set(atom_of)
    log = ProofLog()
    for tag, atom in atom_of.items():
        log.register_atom(tag, atom.expr, atom.op)
    cert = _leaf_cert(conflict, atom_of)
    clause = sorted(-tag for tag in conflict.core)
    log.expect(clause, "theory", cert)
    log.log_clause(clause)
    assert audit_proof(log, origin="tableau") == []


def _verdict(run, constraints):
    """Run one check; audit a conflict or model-check an assignment."""
    try:
        assignment = run()
    except TheoryConflict as conflict:
        _audit_conflict(conflict, constraints)
        return UNSAT
    variables = {v for atom, _ in constraints for v in atom.expr.coeffs}
    for atom, _tag in constraints:
        assert _holds_delta(atom, assignment), atom
    model = _concrete(assignment, variables, constraints)
    assert set(model) == variables
    for atom, _tag in constraints:
        assert atom.holds(atom.expr.evaluate(model)), (atom, model)
    return SAT


def test_persistent_tableau_matches_fresh_tableau():
    rng = random.Random(1506)
    tableau = Simplex()
    base: dict[tuple[Atom, int], None] = {}
    next_tag = 1
    verdicts = {SAT: 0, UNSAT: 0}
    pushed_checks = 0
    for round_index in range(160):
        forms = _EARLY_FORMS + (_LATE_FORMS if round_index >= 40 else [])
        # Retract a few base constraints and assume a few new ones.
        for key in rng.sample(list(base), k=min(len(base), rng.randint(0, 3))):
            del base[key]
        for _ in range(rng.randint(1, 3)):
            base[(_random_atom(rng, forms), next_tag)] = None
            next_tag += 1
        if len(base) > 9:
            for key in list(base)[: len(base) - 9]:
                del base[key]
        constraints = list(base)
        verdict = _verdict(lambda: check_tableau(tableau, constraints), constraints)
        assert verdict == _fresh_verdict(constraints), constraints
        verdicts[verdict] += 1
        if verdict == UNSAT:
            continue
        # Branch-and-bound style nodes: push and pop single-variable
        # bounds on top of the synced base, re-checking warm.
        branch: list[tuple[Atom, int]] = []
        for _ in range(rng.randint(0, 4)):
            if branch and rng.random() < 0.4:
                branch.pop()
            else:
                branch.append((_random_atom(rng, [ex, ey, ez]), next_tag))
                next_tag += 1
            everything = constraints + branch
            verdict = _verdict(
                lambda: check_tableau(tableau, everything), everything
            )
            assert verdict == _fresh_verdict(everything), everything
            pushed_checks += 1
    assert verdicts[SAT] and verdicts[UNSAT] and pushed_checks
    assert len(tableau.rows) >= 4  # late forms were added after pivots


def test_new_form_after_pivot_is_substituted():
    # x + y >= 4 with x <= 1 forces a pivot that makes x or y basic;
    # the later form x - y must be written over nonbasic variables.
    tableau = Simplex()
    first = [(Atom(4 - (ex + ey), LE), 1), (Atom(ex - 1, LE), 2)]
    check_tableau(tableau, first)
    assert X in tableau.rows or Y in tableau.rows
    second = first + [(Atom(ex - ey, EQ), 3)]
    try:
        check_tableau(tableau, second)
    except TheoryConflict as conflict:
        _audit_conflict(conflict, second)
        verdict = UNSAT
    else:
        verdict = SAT
    assert verdict == _fresh_verdict(second) == UNSAT
    for row in tableau.rows.values():
        assert not set(row) & set(tableau.rows)


def test_retract_restores_the_next_tightest_bound():
    tableau = Simplex()
    tight, loose = (Atom(ex - 1, LE), 1), (Atom(ex - 5, LE), 2)
    low = (Atom(3 - ex, LE), 3)
    tableau.sync([tight, loose])
    assert tableau.upper[X].tag == 1
    tableau.retract(*tight)
    assert tableau.upper[X].tag == 2
    model = check_tableau(tableau, [loose, low])
    assert 3 <= model[X].real <= 5
    tableau.retract(*loose)
    assert X not in tableau.upper


def test_conflicting_assert_is_not_stored():
    tableau = Simplex()
    check_tableau(tableau, [(Atom(ex - 1, LE), 1)])
    clash = (Atom(ex - 2, EQ), 2)  # x = 2: its lower bound clashes
    try:
        tableau.assert_atom(*clash)
    except TheoryConflict as conflict:
        assert set(conflict.core) == {1, 2}
    else:  # pragma: no cover - the assert must conflict
        raise AssertionError("x <= 1 and x = 2 did not conflict")
    # Neither half of the equality survives: dropping x <= 1 leaves
    # the tableau unbounded above.
    tableau.retract(Atom(ex - 1, LE), 1)
    assert X not in tableau.upper and X not in tableau.lower


# ----------------------------------------------------------------------
# Solver level
# ----------------------------------------------------------------------
def _random_assumption(rng):
    x, y, r = Var("x"), Var("y"), Var("r", REAL)
    expr = rng.choice([LinExpr.var(x), LinExpr.var(y), LinExpr.var(r)])
    expr = expr * rng.choice([1, -1]) - rng.randint(-3, 3)
    return Atom(expr, rng.choice([LE, LT]))


def test_reused_solver_matches_fresh_solver_per_check():
    rng = random.Random(4242)
    variables = [Var("x"), Var("y"), Var("r", REAL)]
    box = conj(
        [compare(LinExpr.var(v), op, c(b)) for v in variables
         for op, b in ((">=", -3), ("<=", 3))]
    )
    checks = {SAT: 0, UNSAT: 0}
    blocked = 0
    for _ in range(12):
        solver = Solver()
        asserted = [box]
        solver.add(box)
        last_model = None
        for step in range(8):
            action = rng.random()
            if action < 0.35:
                formula = random_formula(rng)
                asserted.append(formula)
                solver.add(formula)
            elif action < 0.6 and last_model is not None:
                # NotOld: the next model must differ from the last one.
                not_old = disj(
                    [
                        Atom(LinExpr.var(v) - last_model.value(v), NE)
                        for v in variables
                    ]
                )
                asserted.append(not_old)
                solver.add(not_old)
                blocked += 1
            assumptions = (
                [_random_assumption(rng) for _ in range(rng.randint(1, 2))]
                if step % 2
                else []
            )
            verdict = solver.check(assumptions)
            fresh = Solver()
            fresh.add(*asserted)
            assert verdict == fresh.check(assumptions), (asserted, assumptions)
            checks[verdict] += 1
            last_model = None
            if verdict == SAT:
                model = solver.model()
                for formula in asserted + assumptions:
                    assert model.satisfies(formula), (formula, model.values)
                last_model = model
    assert checks[SAT] and checks[UNSAT] and blocked
