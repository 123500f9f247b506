"""Parallel workload driver: the fan-out must be invisible in the
results -- same records in the same order as a single-process run,
solver counters aggregated across workers, and no shared mutable state
(the parent's rewrite cache never sees worker-side traffic)."""

import dataclasses

import pytest

from repro.bench.parallel import (
    ParallelRunResult,
    default_workers,
    parallel_efficacy_records,
)
from repro.core import SiaConfig
from repro.rewrite import RewriteCache
from repro.sql import parse_query
from repro.tpch import TPCH_SCHEMA

# TC (transitive closure) is solver-free per cell and runs in
# milliseconds; the SIA variants take minutes per query and belong to
# the benchmark proper, not the test suite.
FAST = dict(num_queries=2, seed=9, techniques=("TC",))


@pytest.fixture(scope="module")
def sequential():
    return parallel_efficacy_records(workers=1, **FAST)


def test_default_workers_is_positive():
    assert default_workers() >= 1


def test_sequential_run_shape(sequential):
    assert isinstance(sequential, ParallelRunResult)
    assert sequential.workers == 1
    assert sequential.records
    # Ascending query index, stable within-query cell order.
    indices = [record.query_index for record in sequential.records]
    assert indices == sorted(indices)


def test_parallel_merge_matches_sequential_order(sequential):
    parallel = parallel_efficacy_records(workers=2, **FAST)
    assert parallel.workers == 2
    assert len(parallel.records) == len(sequential.records)

    def comparable(record):
        # Wall-clock fields vary run to run; everything else (which
        # predicates were learned, on which cells, in which order) must
        # be bit-identical to the single-process run.
        return {
            key: value
            for key, value in dataclasses.asdict(record).items()
            if not key.endswith("_ms")
        }

    for seq, par in zip(sequential.records, parallel.records):
        assert comparable(seq) == comparable(par)


def test_counters_are_aggregated(sequential):
    assert isinstance(sequential.counters, dict)
    assert all(isinstance(v, int) for v in sequential.counters.values())


def _structural(metrics):
    """Metric shape without wall-clock content: counter values and
    timer/histogram counts are deterministic; durations are not."""
    return {
        "counters": metrics.get("counters", {}),
        "timers": {
            name: (entry["count"], len(entry["values"]))
            for name, entry in metrics.get("timers", {}).items()
        },
        "histograms": {
            name: (entry["count"], len(entry["values"]))
            for name, entry in metrics.get("histograms", {}).items()
        },
    }


def test_metrics_merge_deterministically_across_worker_counts(sequential):
    """Per-worker metric deltas, merged by ascending query index, give
    the same aggregate structure for any worker count."""
    import json

    parallel = parallel_efficacy_records(workers=2, **FAST)
    assert _structural(parallel.metrics) == _structural(sequential.metrics)
    # Content sanity: every query batch timed itself and counted cells.
    assert parallel.metrics["counters"]["bench.cells"] == len(parallel.records)
    assert parallel.metrics["timers"]["bench.query_ms"]["count"] == FAST["num_queries"]
    # The merged delta crosses a process boundary: must be pure JSON.
    assert json.loads(json.dumps(parallel.metrics)) == parallel.metrics


def test_parent_metrics_registry_is_isolated_from_workers():
    """Workers report deltas; the parent's own registry must not absorb
    worker traffic on the side (that would double-count the merge)."""
    from repro.obs.metrics import GLOBAL_METRICS

    before = GLOBAL_METRICS.snapshot()
    parallel_efficacy_records(workers=2, **FAST)
    delta = GLOBAL_METRICS.delta_since(before)
    assert delta.get("counters", {}) == {}
    assert delta.get("timers", {}) == {}
    assert delta.get("histograms", {}) == {}


def test_pool_stats_shape(sequential):
    pool = sequential.pool
    assert pool["workers"] == 1
    assert pool["steals"] == 0 and pool["requeues"] == 0
    assert pool["worker_restarts"] == 0
    assert 0.0 <= pool["utilization"] <= 1.0
    assert {"p50", "p95", "max"} <= set(pool["queue_wait_ms"])


def test_killed_worker_requeues_query_exactly_once(sequential, monkeypatch):
    """A worker dying mid-cell must not lose or duplicate the query:
    the attempt ledger requeues it once, a fresh worker reruns it, and
    the merged records are identical to the sequential run."""
    crash_index = sequential.records[0].query_index
    monkeypatch.setenv("REPRO_BENCH_CRASH_QUERY", str(crash_index))
    result = parallel_efficacy_records(workers=2, **FAST)
    assert result.pool["requeues"] == 1
    assert result.pool["worker_restarts"] >= 1
    assert len(result.records) == len(sequential.records)

    def comparable(record):
        return {
            key: value
            for key, value in dataclasses.asdict(record).items()
            if not key.endswith("_ms")
        }

    for seq, par in zip(sequential.records, result.records):
        assert comparable(seq) == comparable(par)


def test_deadline_expiry_records_partial_result():
    """An expired per-cell budget yields a *recorded* partial result
    (section 6.2 cooperative timeout), never an exception or a missing
    cell."""
    result = parallel_efficacy_records(
        num_queries=1,
        seed=9,
        techniques=("SIA",),
        workers=1,
        deadline_ms=1.0,
    )
    assert len(result.records) == 7  # every subset produced a record
    for record in result.records:
        assert record.technique == "SIA"
        assert isinstance(record.valid, bool)
        assert isinstance(record.optimal, bool)
    assert result.pool["deadline_ms"] == 1.0


def test_work_stealing_preserves_merge_order():
    """An uneven shard split (3 queries, 2 workers) lets the idle
    worker steal; the merged stream must stay query-ordered anyway."""
    uneven = dict(num_queries=3, seed=9, techniques=("TC",))
    seq = parallel_efficacy_records(workers=1, **uneven)
    par = parallel_efficacy_records(workers=2, **uneven)
    assert [r.query_index for r in par.records] == [
        r.query_index for r in seq.records
    ]
    assert par.pool["steals"] >= 0  # recorded either way
    assert par.pool["requeues"] == 0


def test_worker_env_parity(monkeypatch):
    """Propagated knobs cross the process boundary through the explicit
    initializer: every worker reports exactly the parent's values."""
    from repro.smt.backend import FLOAT_MODE_ENV

    monkeypatch.setenv(FLOAT_MODE_ENV, "off")
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    result = parallel_efficacy_records(workers=2, **FAST)
    assert len(result.worker_env) == 2
    for snapshot in result.worker_env.values():
        assert snapshot[FLOAT_MODE_ENV] == "off"
        assert snapshot["REPRO_SANITIZE"] is None


def test_parent_rewrite_cache_is_isolated_from_workers():
    """Worker processes must not mutate parent-side caches: the rewrite
    cache's hit/miss/eviction accounting reflects only parent traffic."""
    schema = {name: dict(cols) for name, cols in TPCH_SCHEMA.items()}
    sql = (
        "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
        "AND o_orderdate < DATE '1994-01-01'"
    )
    cache = RewriteCache(config=SiaConfig(max_iterations=2, seed=3), capacity=1)
    cache.rewrite(parse_query(sql, schema), "lineitem")
    parallel_efficacy_records(workers=2, **FAST)
    assert (cache.stats.hits, cache.stats.misses, cache.stats.evictions) == (0, 1, 0)
    cache.rewrite(parse_query(sql, schema), "lineitem")
    assert cache.stats.hits == 1
    other = parse_query(sql + " AND o_orderdate < DATE '1995-01-01'", schema)
    cache.rewrite(other, "lineitem")
    assert cache.stats.evictions == 1
    assert len(cache) == 1
