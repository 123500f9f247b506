"""The Learn procedure (Algorithm 2).

Train a hard-margin linear SVM on (TRUE, FALSE) samples; if some TRUE
samples are misclassified, retrain on just those (plus all FALSE
samples) and disjoin the models, repeating until every TRUE sample is
accepted.

The paper's contract is that Learn returns a predicate classifying all
TRUE samples correctly.  When the samples are not linearly separable
the learner drops the FALSE samples of its infeasibility certificate
and solves again; if no FALSE samples survive (e.g. a TRUE point lying
inside the convex hull of FALSE points) it returns no direction, and we
*force* separation by shifting the intercept of a fallback direction
until all remaining TRUE samples are accepted -- the verifier then
rejects the predicate if the forced plane overreaches, which is exactly
how the paper handles the non-separable limitation (section 6.7).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from ..errors import SynthesisError
from ..learn import DisjunctivePredicate, Hyperplane, train_linear_svm
from ..smt import Var
from .config import SiaConfig
from .result import Point


def _points_to_array(points: list[Point], variables: list[Var]) -> np.ndarray:
    return np.array(
        [[float(point[var]) for var in variables] for point in points],
        dtype=np.float64,
    )


def learn(
    ts: list[Point],
    fs: list[Point],
    variables: list[Var],
    config: SiaConfig,
    rng: random.Random,
) -> DisjunctivePredicate:
    """Learn a predicate accepting all of ``ts`` (Alg. 2)."""
    if not ts:
        raise SynthesisError("Learn requires at least one TRUE sample")
    if not fs:
        raise SynthesisError("Learn requires at least one FALSE sample")

    fs_array = _points_to_array(fs, variables)
    remaining = list(ts)
    planes: list[Hyperplane] = []

    while remaining:
        ts_array = _points_to_array(remaining, variables)
        rng.randrange(2**31)  # Sampler shares rng; dropping this shifts every sample.
        model = train_linear_svm(ts_array, fs_array)
        plane = _plane_with_exact_bias(
            model.weights, remaining, fs, variables, config
        )
        accepted: list[Point] = []
        if plane is not None:
            accepted = [point for point in remaining if plane.accepts(point)]
        if plane is None or not accepted:
            plane = _forced_plane(
                remaining, fs, variables, model.weights, config.max_denominator
            )
            accepted = list(remaining)
        planes.append(plane)
        accepted_keys = {id(point) for point in accepted}
        remaining = [point for point in remaining if id(point) not in accepted_keys]

    return DisjunctivePredicate(tuple(planes))


def _plane_with_exact_bias(
    float_weights: np.ndarray,
    ts: list[Point],
    fs: list[Point],
    variables: list[Var],
    config: SiaConfig,
) -> Hyperplane | None:
    """Exact hyperplane: SVM direction, exactly-refit intercept.

    The direction is all the SVM contributes.  Rounding it to integers
    moves the plane, so a float intercept could silently accept FALSE
    samples, stalling the optimality search.  We compute the intercept
    exactly in rational arithmetic instead: the cut sits at the highest
    FALSE score below the lowest TRUE score.  Every TRUE sample is then
    strictly accepted and every FALSE sample separable along this
    direction is rejected -- the strongest choice for the fixed
    direction.
    """
    from ..learn import rationalize_weights

    direction, _ = rationalize_weights(
        float_weights, 0.0, max_denominator=config.max_denominator
    )
    if all(weight == 0 for weight in direction):
        return None

    def score(point: Point) -> Fraction:
        return sum(
            (Fraction(w) * point[var] for w, var in zip(direction, variables)),
            Fraction(0),
        )

    min_true = min(score(point) for point in ts)
    below = [s for s in (score(point) for point in fs) if s < min_true]
    if below:
        # Cut exactly at the highest rejected FALSE score: `> cut`
        # rejects it while accepting every TRUE sample.  (A midpoint
        # cut would be the classic max-margin choice, but over real
        # sorts it can never reach the supremum of the feasible
        # region, so the loop would chase it forever.)
        cut = max(below)
    else:
        cut = min_true - 1
    # w.x > cut  <=>  (d*w).x - d*cut > 0 with d clearing the denominator.
    denom = cut.denominator
    coeffs = tuple(
        (var, int(w * denom)) for var, w in zip(variables, direction)
    )
    return Hyperplane(coeffs, -int(cut * denom))


def _forced_plane(
    remaining: list[Point],
    fs: list[Point],
    variables: list[Var],
    float_weights: np.ndarray,
    max_denominator: int,
) -> Hyperplane:
    """A plane guaranteed to accept every remaining TRUE sample.

    Uses the SVM's direction if usable, otherwise the direction from
    the FALSE centroid to the TRUE centroid, otherwise the first axis;
    then shifts the intercept past the minimum TRUE score.
    """
    direction = _integer_direction(float_weights, max_denominator)
    if direction is None:
        ts_mean = np.mean(_points_to_array(remaining, variables), axis=0)
        fs_mean = np.mean(_points_to_array(fs, variables), axis=0)
        direction = _integer_direction(ts_mean - fs_mean, max_denominator)
    if direction is None:
        direction = [1] + [0] * (len(variables) - 1)

    min_score = min(
        sum(Fraction(w) * point[var] for w, var in zip(direction, variables))
        for point in remaining
    )
    bias = -math.floor(min_score) + 1
    coeffs = tuple(zip(tuple(variables), direction))
    return Hyperplane(coeffs, bias)


def _integer_direction(weights: np.ndarray, max_denominator: int) -> list[int] | None:
    from ..learn import rationalize_weights

    ints, _ = rationalize_weights(
        np.asarray(weights, dtype=np.float64), 0.0, max_denominator=max_denominator
    )
    if all(value == 0 for value in ints):
        return None
    return [int(v) for v in ints]
