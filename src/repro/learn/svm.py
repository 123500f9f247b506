"""Hard-margin linear SVM, solved exactly as a least-distance program.

This replaces LibSVM (DESIGN.md substitution table).  The paper only
uses the *linear* kernel and only the learned hyperplane, so we keep
liblinear's conventions -- features max-abs scaled, the bias folded
into ``w`` as a constant feature -- and solve the hard-margin problem
``min ||w|| s.t. G w >= 1`` (rows of ``G`` are the samples ``y_i z_i``)
exactly.  Lawson & Hanson (*Solving Least Squares Problems*, ch. 23)
reduce it to one non-negative least squares problem ``min ||E u - f||
s.t. u >= 0`` with ``E = [G^T; 1^T]`` and ``f = (0, ..., 0, 1)``.  A
nonzero residual ``r = E u - f`` gives the max-margin ``w = -r[:-1] /
r[-1]``; a zero residual makes ``u`` a Farkas certificate (``u >= 0``,
``G^T u = 0``, ``sum(u) = 1``) that no separating hyperplane exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Residual norms at or below this are zero: the squared residual is
#: ``1 / (1 + ||w||^2)``, so this only rejects margins (in max-abs
#: scaled units) far below anything rationalization could resolve.
ZERO_RESIDUAL = 1e-12


@dataclass
class SvmModel:
    """The learned direction ``w`` of the hyperplane ``w . x + b > 0``."""

    weights: np.ndarray  # shape (n_features,)


def nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``argmin ||a x - b|| s.t. x >= 0`` by Lawson & Hanson's active set."""
    n = a.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    tol = 10 * max(a.shape) * np.finfo(float).eps * np.linalg.norm(a, 1)
    for _ in range(3 * n):  # the usual cap; each pass adds a variable
        gradient = a.T @ (b - a @ x)
        if passive.all() or gradient[~passive].max() <= tol:
            break
        passive[np.argmax(np.where(passive, -np.inf, gradient))] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if (z[passive] > 0).all():
                break
            # Step from x toward z until a passive variable hits zero.
            blocking = passive & (z <= 0)
            step = np.min(x[blocking] / (x[blocking] - z[blocking]))
            x = x + step * (z - x)
            passive &= x > tol
            x[~passive] = 0.0
        x = z
    return x


def least_distance(g: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """Solve ``min ||w|| s.t. g w >= 1``; returns ``(w, u)``.

    ``u`` is the NNLS solution.  When ``w`` is None the constraints are
    infeasible and ``u`` is the Farkas certificate; otherwise
    ``u / (1 - sum(u))`` are the KKT multipliers, ``w = g^T u / (1 -
    sum(u))``, positive only on tight rows.
    """
    e = np.vstack([g.T, np.ones(len(g))])
    f = np.zeros(len(e))
    f[-1] = 1.0
    u = nnls(e, f)
    residual = e @ u - f
    if np.linalg.norm(residual) <= ZERO_RESIDUAL:
        return None, u
    return -residual[:-1] / residual[-1], u


def train_linear_svm(positives: np.ndarray, negatives: np.ndarray) -> SvmModel:
    """Max-margin direction between TRUE and FALSE samples.

    When the samples are not separable, the FALSE samples in the
    certificate's support are dropped and the problem is solved again
    (at most one round per FALSE sample).  If none remain (or there
    were none), the weights are zero and the caller must choose a
    direction itself.  Samples are rows of (n, d) arrays.
    """
    positives = np.asarray(positives, dtype=np.float64)
    negatives = np.asarray(negatives, dtype=np.float64)
    if positives.ndim != 2 or negatives.ndim != 2:
        raise ValueError("sample arrays must be two-dimensional")
    if positives.shape[0] == 0:
        raise ValueError("at least one positive sample is required")
    dim = positives.shape[1]
    if negatives.shape[1] != dim:
        raise ValueError("positive and negative samples disagree on dimension")

    scale = np.maximum(np.abs(np.vstack([positives, negatives])).max(axis=0), 1.0)
    pos_rows = np.hstack([positives / scale, np.ones((len(positives), 1))])
    neg_rows = -np.hstack([negatives / scale, np.ones((len(negatives), 1))])
    while len(neg_rows):
        w, u = least_distance(np.vstack([pos_rows, neg_rows]))
        if w is not None:
            # sia: allow-float -- documented learn-boundary crossing: the
            # solver is float-native; rationalize_weights() restores
            # exactness before the direction re-enters the SMT pipeline.
            return SvmModel(w[:dim] / scale)
        # A zero residual puts half the certificate's weight on FALSE
        # rows (the bias row reads sum(y_i u_i) = 0, sum(u_i) = 1), so
        # every round drops at least one.
        neg_rows = neg_rows[u[len(pos_rows):] <= 0]
    return SvmModel(np.zeros(dim))
