"""Statistics and output checks shared by the workloads.

Everything here is pure benchmark code: it reads results the program
returns (relations, outcomes) and never calls into the pipeline itself.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time

import numpy as np

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a tail percentile.
TAIL_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ``min(TAIL_BEYOND,
    n // 4)`` of ``n`` values beyond it."""
    need = max(1, min(TAIL_BEYOND, n // 4))
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= need:
            chosen = q
    return chosen


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def geomean(values: list[float]) -> float:
    """Geometric mean of positive values (1.0 when there are none)."""
    if not values:
        return 1.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# Host speed reference
# ----------------------------------------------------------------------
#: Reference times (ms) of the two speed probes.  Times are reported at
#: the speed where each probe takes exactly this long.
REFERENCE_PYTHON_MS = 1.0
REFERENCE_NUMPY_MS = 1.0
_SORT_INPUT = np.random.default_rng(0).random(200_000)


def speed_probe() -> tuple[float, float]:
    """(Python, numpy) speed factors of the host right now.

    A factor is the reference time over the best of three runs of a
    fixed probe: a pure-Python integer loop, and a numpy sort.  On a
    shared host other tenants can slow a run by up to 2x for minutes at
    a time, interpreted code more than numpy; scaling a measured time by
    the factor of its kind of work keeps runs made in slow and fast
    phases comparable.
    """
    python_s = numpy_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        python_s = min(python_s, time.perf_counter() - start)
        start = time.perf_counter()
        np.sort(_SORT_INPUT)
        numpy_s = min(numpy_s, time.perf_counter() - start)
    return (
        REFERENCE_PYTHON_MS / (python_s * 1000.0),
        REFERENCE_NUMPY_MS / (numpy_s * 1000.0),
    )


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Result digests
# ----------------------------------------------------------------------
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_NULL_BITS = np.uint64(0x9E3779B97F4A7C15)


def _splitmix(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> np.uint64(30))
    x = x * _MIX_A
    x = x ^ (x >> np.uint64(27))
    x = x * _MIX_B
    return x ^ (x >> np.uint64(31))


def _column_bits(values: np.ndarray, nulls: np.ndarray | None) -> np.ndarray:
    """64-bit image of one column's values, NULLs mapped to a constant.

    Doubles are narrowed to float32 first, so two plans that sum the
    same values in a different order still agree; integers and day
    counts are kept exact.
    """
    if values.dtype.kind == "f":
        bits = values.astype(np.float32).view(np.uint32).astype(np.uint64)
    elif values.dtype.kind == "b":
        bits = values.astype(np.uint64)
    else:
        bits = values.astype(np.int64).view(np.uint64)
    if nulls is not None:
        bits = np.where(nulls, _NULL_BITS, bits)
    return bits


def result_digest(relation) -> tuple[int, str]:
    """(row count, canonical digest) of a relation as a row multiset.

    Each row is hashed over its columns in qualified-name order; the
    row hashes are sorted, so the digest ignores row order but not
    multiplicity.
    """
    rows = relation.num_rows
    columns = sorted(relation.data, key=lambda column: column.qualified)
    row_hash = np.full(rows, np.uint64(len(columns)), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for column in columns:
            values, nulls = relation.values_and_nulls(column)
            row_hash = _splitmix(row_hash ^ _column_bits(values, nulls))
    digest = hashlib.sha256()
    digest.update(",".join(c.qualified for c in columns).encode())
    digest.update(np.sort(row_hash).tobytes())
    return rows, digest.hexdigest()


# ----------------------------------------------------------------------
# Engine operator breakdown
# ----------------------------------------------------------------------
_OPERATOR_KIND = (
    ("Scan", "scan"),
    ("Filter", "filter"),
    ("HashJoin", "join"),
    ("Aggregate", "aggregate"),
    ("Sort", "sort"),
)


def operator_ms(stats) -> dict[str, float]:
    """Per-kind operator milliseconds of one ExecutionStats."""
    out = {kind: 0.0 for _, kind in _OPERATOR_KIND}
    for op in stats.operators:
        for prefix, kind in _OPERATOR_KIND:
            if op.label.startswith(prefix):
                out[kind] += op.elapsed_ms
                break
    return out
