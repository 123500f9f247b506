"""Validity checking of learned predicates (section 5.5).

``Verify`` feeds ``T(p) AND NOT T(p1)`` to the solver, where ``T`` is
the three-valued-logic truth lift of section 5.2 (both the original
predicate and the learned one are encoded with (value, NULL-flag)
variable pairs).  Unsatisfiability means every tuple accepted by ``p``
is accepted by ``p1``, i.e. ``p1`` is a valid dimensionality reduction
(Def. 2).

Note the outer negation: ``NOT T(p1)`` rather than ``F(p1)``.  A tuple
on which ``p1`` evaluates to NULL is filtered out by SQL, so it counts
against validity; this is what makes certain disjunctive predicates
with NULL-able columns unsynthesizable (tested in
``tests/core/test_verify_3vl.py``).
"""

from __future__ import annotations

from ..learn import DisjunctivePredicate, Hyperplane
from ..predicates import Pred, truth_formula
from ..predicates.normalize import LinearizationContext
from ..smt import (
    UNSAT,
    Formula,
    Not,
    SolverError,
    certified_solver,
    conj,
    disj,
    is_satisfiable,
    negate,
)
from ..smt.theory import SolverBudgetError


def plane_truth_formula(plane: Hyperplane, ctx: LinearizationContext) -> Formula:
    """3VL truth of one hyperplane: all touched columns non-NULL and
    the inequality holds."""
    non_null = []
    for var in plane.variables:
        for column in _columns_of_var(var, ctx):
            non_null.append(Not(ctx.null_flag(column)))
    return conj([*non_null, plane.formula()])


def learned_truth_formula(
    learned: DisjunctivePredicate, ctx: LinearizationContext
) -> Formula:
    """3VL truth of a disjunction of hyperplanes."""
    return disj([plane_truth_formula(plane, ctx) for plane in learned.planes])


def verify_implied(
    original: Pred,
    learned: DisjunctivePredicate,
    ctx: LinearizationContext,
    *,
    bnb_budget: int = 4000,
    certify: bool = False,
) -> bool:
    """True iff ``original`` implies ``learned`` under three-valued logic.

    Conservative on solver resource exhaustion: an *unknown* answer is
    reported as "not valid", so Sia can never emit a predicate whose
    validity was not actually proven.

    ``certify=True`` removes the remaining trust in the solver itself:
    the check runs with proof logging on and the UNSAT verdict only
    counts once the independent auditor
    (:mod:`repro.analysis.certify`) accepts the proof.  An audited
    verdict that fails certification is treated as unproven, exactly
    like a resource-exhausted one.
    """
    return _implied(
        truth_formula(original, ctx),
        learned,
        ctx,
        bnb_budget=bnb_budget,
        certify=certify,
    )


def _implied(
    t_p: Formula,
    learned: DisjunctivePredicate,
    ctx: LinearizationContext,
    *,
    bnb_budget: int,
    certify: bool,
) -> bool:
    """``T(p) AND NOT T(p1)`` is UNSAT, on a fresh solver (see
    :func:`verify_implied`)."""
    obligation = conj([t_p, negate(learned_truth_formula(learned, ctx))])
    try:
        if not certify:
            return not is_satisfiable(obligation, bnb_budget=bnb_budget)
        from ..analysis.certify import audit_proof

        solver = certified_solver([obligation], bnb_budget=bnb_budget)
        assert solver.proof_log is not None
        if solver.proof_log.result != UNSAT:
            return False
        return not audit_proof(solver.proof_log, origin="verify")
    except (SolverError, SolverBudgetError):
        return False


class PredicateVerifier:
    """``Verify`` for one (original predicate, context) pair.

    The 3VL truth lift ``T(p)`` is computed once; every candidate's
    obligation ``T(p) AND NOT T(p1)`` then runs on a fresh solver, the
    same check :func:`verify_implied` makes.
    """

    def __init__(
        self,
        original: Pred,
        ctx: LinearizationContext,
        *,
        bnb_budget: int = 4000,
        certify: bool = False,
    ) -> None:
        self._t_p = truth_formula(original, ctx)
        self._ctx = ctx
        self._bnb_budget = bnb_budget
        self._certify = certify

    def verify(self, learned: DisjunctivePredicate) -> bool:
        """True iff the original predicate implies ``learned`` (3VL)."""
        from ..obs.trace import get_tracer

        with get_tracer().span(
            "verify.implication", certified=self._certify
        ) as span:
            result = _implied(
                self._t_p,
                learned,
                self._ctx,
                bnb_budget=self._bnb_budget,
                certify=self._certify,
            )
            span.set(implied=result)
            return result


def _columns_of_var(var, ctx: LinearizationContext):
    column = ctx.column_of_var.get(var)
    if column is not None:
        return [column]
    packed = ctx.packed_expr_of_var.get(var)
    if packed is not None:
        return sorted(packed.columns())
    return []
