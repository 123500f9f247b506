"""Tests for Verify under three-valued logic (section 5.2/5.5)."""

import pytest

from repro.core import verify_implied
from repro.core.verify import (
    PredicateVerifier,
    learned_truth_formula,
    plane_truth_formula,
)
from repro.learn import DisjunctivePredicate, Hyperplane
from repro.predicates import (
    Col,
    Column,
    Comparison,
    INTEGER,
    Lit,
    LinearizationContext,
    lower_predicate,
    pand,
    por,
)
from repro.smt import Not, conj, is_satisfiable

A = Column("t", "a", INTEGER)
B = Column("t", "b", INTEGER)


def ctx_for(pred):
    _, ctx = lower_predicate(pred)
    return ctx


def test_weaker_predicate_is_valid():
    pred = pand(
        [
            Comparison(Col(A), ">", Lit.integer(5)),
            Comparison(Col(B), ">", Lit.integer(0)),
        ]
    )
    ctx = ctx_for(pred)
    # a > 0 (weaker than a > 5)
    plane = Hyperplane(((ctx.var(A), 1),), 0)
    assert verify_implied(pred, DisjunctivePredicate((plane,)), ctx)


def test_stronger_predicate_is_invalid():
    pred = Comparison(Col(A), ">", Lit.integer(5))
    ctx = ctx_for(pred)
    plane = Hyperplane(((ctx.var(A), 1),), -10)  # a > 10
    assert not verify_implied(pred, DisjunctivePredicate((plane,)), ctx)


def test_equivalent_predicate_is_valid():
    pred = Comparison(Col(A), ">", Lit.integer(5))
    ctx = ctx_for(pred)
    plane = Hyperplane(((ctx.var(A), 1),), -5)  # a > 5
    assert verify_implied(pred, DisjunctivePredicate((plane,)), ctx)


def test_disjunctive_learned_predicate():
    pred = Comparison(Col(A), ">", Lit.integer(5))
    ctx = ctx_for(pred)
    learned = DisjunctivePredicate(
        (
            Hyperplane(((ctx.var(A), 1),), -10),  # a > 10
            Hyperplane(((ctx.var(A), 1),), 0),  # a > 0
        )
    )
    assert verify_implied(pred, learned, ctx)


def test_null_gap_makes_disjunctive_original_unverifiable():
    """p = (a > 5 OR b > 0) can be TRUE with a NULL (b = 3), but any
    learned predicate over {a} alone evaluates NULL there and filters
    the tuple: validity must fail under 3VL."""
    pred = por(
        [
            Comparison(Col(A), ">", Lit.integer(5)),
            Comparison(Col(B), ">", Lit.integer(0)),
        ]
    )
    ctx = ctx_for(pred)
    # The weakest possible non-trivial predicate over {a}: a > -huge.
    plane = Hyperplane(((ctx.var(A), 1),), 10**9)
    assert not verify_implied(pred, DisjunctivePredicate((plane,)), ctx)


def test_conjunctive_original_unaffected_by_nulls():
    """For conjunctive p every target column occurring in some conjunct
    forces non-NULL whenever p is TRUE, so 3VL verification passes."""
    pred = pand(
        [
            Comparison(Col(A), ">", Lit.integer(5)),
            Comparison(Col(B), ">", Lit.integer(0)),
        ]
    )
    ctx = ctx_for(pred)
    plane = Hyperplane(((ctx.var(A), 1), (ctx.var(B), 1)), 0)  # a + b > 0
    assert verify_implied(pred, DisjunctivePredicate((plane,)), ctx)


def test_plane_truth_requires_non_null():
    pred = Comparison(Col(A), ">", Lit.integer(5))
    ctx = ctx_for(pred)
    plane = Hyperplane(((ctx.var(A), 1),), 0)
    truth = plane_truth_formula(plane, ctx)
    assert not is_satisfiable(conj([truth, ctx.null_flag(A)]))
    assert is_satisfiable(conj([truth, Not(ctx.null_flag(A))]))


def test_learned_truth_formula_is_disjunction_of_plane_truths():
    pred = pand(
        [
            Comparison(Col(A), ">", Lit.integer(0)),
            Comparison(Col(B), ">", Lit.integer(0)),
        ]
    )
    ctx = ctx_for(pred)
    learned = DisjunctivePredicate(
        (
            Hyperplane(((ctx.var(A), 1),), 0),
            Hyperplane(((ctx.var(B), 1),), 0),
        )
    )
    truth = learned_truth_formula(learned, ctx)
    # TRUE via the b-plane even when a is NULL.
    assert is_satisfiable(conj([truth, ctx.null_flag(A)]))
    # But not when both are NULL.
    assert not is_satisfiable(
        conj([truth, ctx.null_flag(A), ctx.null_flag(B)])
    )


def _gt(column, value):
    return Comparison(Col(column), ">", Lit.integer(value))


def _planes(*planes):
    """Learned-predicate builder: each plane is ((column, coeff)...), const."""

    def build(ctx):
        return DisjunctivePredicate(
            tuple(
                Hyperplane(tuple((ctx.var(col), k) for col, k in terms), const)
                for terms, const in planes
            )
        )

    return build


#: (original, learned builder, expected verdict): the cases above.
AGREEMENT_CASES = [
    (pand([_gt(A, 5), _gt(B, 0)]), _planes((((A, 1),), 0)), True),
    (_gt(A, 5), _planes((((A, 1),), -10)), False),
    (_gt(A, 5), _planes((((A, 1),), -5)), True),
    (_gt(A, 5), _planes((((A, 1),), -10), (((A, 1),), 0)), True),
    (por([_gt(A, 5), _gt(B, 0)]), _planes((((A, 1),), 10**9)), False),
    (pand([_gt(A, 5), _gt(B, 0)]), _planes((((A, 1), (B, 1)), 0)), True),
]


@pytest.mark.parametrize("certify", [False, True])
@pytest.mark.parametrize("pred,build,expected", AGREEMENT_CASES)
def test_predicate_verifier_agrees_with_verify_implied(
    pred, build, expected, certify
):
    ctx = ctx_for(pred)
    learned = build(ctx)
    verifier = PredicateVerifier(pred, ctx, certify=certify)
    assert verifier.verify(learned) is expected
    assert verify_implied(pred, learned, ctx, certify=certify) is expected
