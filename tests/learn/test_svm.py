"""Tests for the exact hard-margin SVM (least-distance NNLS)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learn import train_linear_svm
from repro.learn.svm import least_distance, nnls


def separates(model, pos, neg):
    """The learned direction puts every TRUE score above every FALSE one."""
    return (pos @ model.weights).min() > (neg @ model.weights).max()


def with_bias(points):
    return np.hstack([points, np.ones((len(points), 1))])


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        train_linear_svm(np.zeros(3), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        train_linear_svm(np.zeros((0, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        train_linear_svm(np.zeros((1, 2)), np.zeros((1, 3)))


def test_no_negatives_accepts_everything():
    # Nothing to separate from: no direction, the caller accepts all.
    model = train_linear_svm(np.array([[1.0, 2.0]]), np.zeros((0, 2)))
    assert not model.weights.any()


def test_separates_1d():
    pos = np.array([[3.0], [4.0], [10.0]])
    neg = np.array([[-1.0], [0.0], [1.0]])
    assert separates(train_linear_svm(pos, neg), pos, neg)


def test_separates_2d_diagonal():
    rng = np.random.default_rng(42)
    pos = rng.normal(0, 1, size=(40, 2)) + np.array([3.0, 3.0])
    neg = rng.normal(0, 1, size=(40, 2)) - np.array([3.0, 3.0])
    assert separates(train_linear_svm(pos, neg), pos, neg)


def test_margin_direction():
    # TRUE iff x1 - x2 > 5, cleanly separated.
    pos = np.array([[10.0, 1.0], [20.0, 5.0], [8.0, 1.0]])
    neg = np.array([[1.0, 1.0], [5.0, 5.0], [0.0, 10.0]])
    model = train_linear_svm(pos, neg)
    assert model.weights[0] > 0
    assert model.weights[1] < model.weights[0]


def test_max_margin_direction_is_exact():
    # Two parallel diagonal rows: the max-margin normal is (1, -1).
    pos = np.array([[5.0, 0.0], [10.0, 5.0], [15.0, 10.0]])
    neg = np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 10.0]])
    weights = train_linear_svm(pos, neg).weights
    assert weights[0] > 0
    assert weights[0] == pytest.approx(-weights[1], rel=1e-9)


def test_deterministic():
    pos = np.array([[3.0, 1.0], [4.0, 2.0]])
    neg = np.array([[-3.0, 0.0], [-4.0, 1.0]])
    m1 = train_linear_svm(pos, neg)
    m2 = train_linear_svm(pos, neg)
    assert np.array_equal(m1.weights, m2.weights)


def test_not_linearly_separable_still_returns_model():
    # XOR: every FALSE sample is in some certificate, so all are dropped.
    pos = np.array([[1.0, 1.0], [-1.0, -1.0]])
    neg = np.array([[1.0, -1.0], [-1.0, 1.0]])
    model = train_linear_svm(pos, neg)
    assert model.weights.shape == (2,)
    assert not model.weights.any()


def test_xor_certificate():
    pos = np.array([[1.0, 1.0], [-1.0, -1.0]])
    neg = np.array([[1.0, -1.0], [-1.0, 1.0]])
    g = np.vstack([with_bias(pos), -with_bias(neg)])
    w, u = least_distance(g)
    assert w is None
    assert (u >= 0).all()
    assert u.sum() == pytest.approx(1.0, abs=1e-9)
    e = np.vstack([g.T, np.ones(len(g))])
    f = np.zeros(len(e))
    f[-1] = 1.0
    assert np.linalg.norm(e @ u - f) <= 1e-9


def test_drops_false_samples_inside_the_true_hull():
    # (5, 5) sits inside the TRUE triangle; the rest separate along x.
    pos = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    neg = np.array([[5.0, 5.0] if i == 0 else [-5.0, float(i)] for i in range(4)])
    model = train_linear_svm(pos, neg)
    assert separates(model, pos, neg[1:])


def test_large_scale_features():
    pos = np.array([[1e6, 2.0], [2e6, 1.0]])
    neg = np.array([[-1e6, 2.0], [-2e6, 1.0]])
    assert separates(train_linear_svm(pos, neg), pos, neg)


@settings(max_examples=25, deadline=None)
@given(
    threshold=st.integers(min_value=-20, max_value=20),
    seed=st.integers(min_value=0, max_value=100),
)
def test_learns_threshold_property(threshold, seed):
    rng = np.random.default_rng(seed)
    xs = rng.integers(-60, 60, size=40).astype(np.float64)
    pos = xs[xs > threshold + 2].reshape(-1, 1)
    neg = xs[xs < threshold - 2].reshape(-1, 1)
    if len(pos) == 0 or len(neg) == 0:
        return
    assert separates(train_linear_svm(pos, neg), pos, neg)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=3),
    count=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_least_distance_is_feasible_and_kkt(dim, count, seed):
    """Random separable integer point sets: every margin constraint
    holds, and w is a non-negative combination of the tight rows."""
    rng = np.random.default_rng(seed)
    normal = rng.integers(-5, 6, size=dim)
    if not normal.any():
        normal[0] = 1
    points = rng.integers(-20, 21, size=(count, dim))
    scores = points @ normal
    cut = int(np.median(scores))
    keep = scores != cut
    if not (scores > cut).any() or not (scores < cut).any():
        return
    labels = np.where(scores[keep] > cut, 1.0, -1.0)
    g = labels[:, None] * with_bias(points[keep].astype(np.float64))
    w, u = least_distance(g)
    assert w is not None
    slack = g @ w - 1.0
    assert slack.min() >= -1e-9
    multipliers = u / (1.0 - u.sum())
    assert (multipliers >= 0).all()
    assert np.allclose(g.T @ multipliers, w, rtol=1e-9, atol=1e-9)
    assert np.abs(slack[multipliers > 0]).max() <= 1e-9


def brute_force_nnls_residual(a, b):
    """Least residual over every passive set whose least-squares
    solution is non-negative (the optimum is one of them)."""
    best = np.linalg.norm(b)
    for size in range(1, a.shape[1] + 1):
        for passive in itertools.combinations(range(a.shape[1]), size):
            x = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if (x >= 0).all():
                best = min(best, np.linalg.norm(a[:, passive] @ x - b))
    return best


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    columns=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_nnls_matches_brute_force(rows, columns, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, columns))
    b = rng.normal(size=rows)
    x = nnls(a, b)
    assert (x >= 0).all()
    residual = np.linalg.norm(a @ x - b)
    assert residual == pytest.approx(brute_force_nnls_residual(a, b), abs=1e-9)
