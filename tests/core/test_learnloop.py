"""Tests for the Learn procedure (Algorithm 2)."""

import dataclasses
import datetime as dt
import random
from fractions import Fraction

import pytest

from repro import tpch
from repro.core import OPTIMAL, SIA_DEFAULT, Synthesizer, learn
from repro.errors import SynthesisError
from repro.predicates import eval_pred_py
from repro.smt import Var

X = Var("x")
Y = Var("y")


def pts(values, var=X):
    return [{var: Fraction(v)} for v in values]


def pts2(values):
    return [{X: Fraction(a), Y: Fraction(b)} for a, b in values]


def run_learn(ts, fs, variables=None, seed=0):
    return learn(ts, fs, variables or [X], SIA_DEFAULT, random.Random(seed))


def test_requires_samples():
    with pytest.raises(SynthesisError):
        run_learn([], pts([1]))
    with pytest.raises(SynthesisError):
        run_learn(pts([1]), [])


def test_separable_1d():
    predicate = run_learn(pts([0, 1, 2, 3]), pts([10, 11, 12]))
    for v in (0, 1, 2, 3):
        assert predicate.accepts({X: Fraction(v)})
    for v in (10, 11, 12):
        assert not predicate.accepts({X: Fraction(v)})


def test_boundary_is_midpoint():
    """The exact-bias refit places the cut between the closest pair."""
    predicate = run_learn(pts([0, 18]), pts([19, 40]))
    assert predicate.accepts({X: Fraction(18)})
    assert not predicate.accepts({X: Fraction(19)})


def test_all_true_samples_always_accepted_even_when_not_separable():
    # TRUE between two FALSE clusters: not separable by one plane.
    ts = pts([5, 6])
    fs = pts([0, 1, 10, 11])
    predicate = run_learn(ts, fs)
    for point in ts:
        assert predicate.accepts(point)


def test_disjunction_emerges_for_split_true_clusters():
    ts = pts([-10, -11, 10, 11])
    fs = pts([0, 1, -1])
    predicate = run_learn(ts, fs)
    for point in ts:
        assert predicate.accepts(point)
    # FALSE cluster sits between the TRUE clusters; with a disjunction
    # of planes the learner can reject at least part of it.
    assert len(predicate.planes) >= 1


def test_separable_2d():
    ts = pts2([(0, 0), (1, 1), (2, 0)])
    fs = pts2([(10, 10), (11, 9), (9, 11)])
    predicate = run_learn(ts, fs, variables=[X, Y])
    for point in ts:
        assert predicate.accepts(point)
    for point in fs:
        assert not predicate.accepts(point)


def test_diagonal_boundary():
    # TRUE iff x - y <= 2 samples.
    ts = pts2([(0, 0), (2, 0), (5, 3), (-1, 4)])
    fs = pts2([(10, 0), (8, 1), (20, 5)])
    predicate = run_learn(ts, fs, variables=[X, Y])
    for point in ts:
        assert predicate.accepts(point)
    for point in fs:
        assert not predicate.accepts(point)


def test_deterministic_given_seed():
    ts, fs = pts([0, 1, 2]), pts([8, 9])
    p1 = run_learn(ts, fs, seed=5)
    p2 = run_learn(ts, fs, seed=5)
    assert str(p1) == str(p2)


def test_identical_true_false_points_forced_plane():
    """Degenerate overlap: Learn must still return something accepting
    all TRUE samples (the verifier will reject it later)."""
    ts = pts([5])
    fs = pts([5])
    predicate = run_learn(ts, fs)
    assert predicate.accepts({X: Fraction(5)})


def test_forced_plane_honours_max_denominator():
    """Every FALSE sample lies inside the TRUE triangle, so the learner
    drops them all and the forced plane takes the centroid direction
    (32.3, 23.3); the configured grid must bound its coefficients."""
    ts = pts2([(0, 0), (100, 0), (0, 100)])
    fs = pts2([(10, 3), (20, 5), (1, 22)])
    coarse = dataclasses.replace(SIA_DEFAULT, max_denominator=8)
    (plane,) = learn(ts, fs, [X, Y], coarse, random.Random(0)).planes
    assert max(abs(weight) for _, weight in plane.coeffs) <= 8
    (fine,) = run_learn(ts, fs, variables=[X, Y]).planes
    assert max(abs(weight) for _, weight in fine.coeffs) > 8
    for point in ts:
        assert plane.accepts(point)


def test_two_date_cell_converges_in_two_iterations():
    """First seed-42 generator query over {l_shipdate, l_receiptdate}:
    the max-margin direction is exactly receipt - ship, so CEGIS reaches
    the optimal predicate at once (a 300-epoch coordinate-descent
    learner stopped at [64, -63] and needed 14 iterations)."""
    query = tpch.generate_workload(1, seed=42)[0]
    ship, _, receipt = tpch.LINEITEM_DATES
    outcome = Synthesizer(SIA_DEFAULT).synthesize(query.predicate, {ship, receipt})
    assert outcome.status == OPTIMAL
    assert outcome.iterations <= 2
    base = dt.date(1995, 8, 27)
    for gap in (-101, -100, -99, 0, 50):
        row = {ship: base, receipt: base + dt.timedelta(days=gap)}
        assert eval_pred_py(outcome.predicate, row) is (gap > -100)
