"""Float -> exact rational conversion of learned hyperplanes.

The verification step (section 5.5) feeds the learned predicate to the
SMT solver, so its coefficients must be exact rationals.  We scale the
direction so its largest weight is ``max_denominator`` and round every
weight to that integer grid, producing integer coefficients.  Tiny weights
(relative to the largest) are snapped to zero -- they are SVM noise and
would otherwise force the synthesized predicate to mention columns the
model does not actually use.
"""

from __future__ import annotations

from math import gcd

import numpy as np


def rationalize_weights(
    weights: np.ndarray,
    bias: float,
    *,
    max_denominator: int = 64,
) -> tuple[list[int], int]:
    """Integer coefficients (weights, bias) defining the same hyperplane.

    The hyperplane is scale-invariant, so we first normalise by the
    largest coefficient magnitude and round the *normalised* values to
    a grid of ``max_denominator`` steps.  Rounding each raw float
    independently would combine unrelated denominators into huge
    integers, which makes the learned predicates unreadable and the
    downstream integer theory solving needlessly expensive.
    """
    weights = np.asarray(weights, dtype=np.float64)
    # sia: allow-float -- documented learn-boundary crossing: this is
    # the last float read before the grid rounding below
    # converts everything to exact integers.
    magnitude = float(np.max(np.abs(weights))) if weights.size else 0.0
    if magnitude <= 0.0:
        # Degenerate direction: only the bias remains; its sign is all
        # that matters for a constant "hyperplane".
        return [0] * int(weights.size), (0 if bias == 0 else (1 if bias > 0 else -1))

    # Scale so the largest weight becomes `max_denominator`, then round
    # to the integer grid.  This bounds every *weight* coefficient by
    # max_denominator while keeping relative error below
    # 1/(2*max_denominator); the bias keeps its true magnitude (it is
    # an offset, not a direction component).
    scale = max_denominator / magnitude
    integers = [int(round(value * scale)) for value in weights]
    int_bias = int(round(bias * scale))

    common = 0
    for value in integers + [int_bias]:
        common = gcd(common, abs(value))
    if common > 1:
        integers = [value // common for value in integers]
        int_bias //= common
    return integers, int_bias
