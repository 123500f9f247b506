"""Sharded parallel workload driver with persistent workers.

The Table-2/3 efficacy experiment is embarrassingly parallel: every
(query, column subset, technique) cell is an independent synthesis
run.  Historically this module fanned queries over a static
``ProcessPoolExecutor``; it is now a sharded work queue over
**persistent** worker processes:

* **Persistent workers.**  Each worker process lives for the whole
  run and pulls query after query, so process start-up and imports
  are paid once per worker.
* **Longest-expected-first shards.**  Queries are ranked by the
  :mod:`repro.bench.schedule` cost model (seeded from
  ``engine/statistics`` cardinalities) and LPT-assigned, so long-tail
  queries start first.
* **Work stealing.**  A worker whose shard drains steals from the tail
  of the largest remaining shard, so nobody idles while a grinder
  holds unstarted work.
* **Deadlines.**  ``deadline_ms`` threads a per-cell
  ``SiaConfig.timeout_ms`` budget through the harness: an expired cell
  yields a *recorded partial result* (section 6.2 semantics), never a
  hung pool.
* **Crash isolation.**  Worker death is detected by liveness probes;
  the in-flight query is requeued **at most once** (an attempt ledger
  caps retries) and the worker restarted.  A query that kills two
  workers is recorded as placeholder cells so the merge stays total.

Determinism is unchanged from the static driver: the workload seed
fixes every predicate in the parent, each cell's synthesis RNG is
seeded from its ``SiaConfig`` alone, all cells of one query run
consecutively on one worker in canonical order, and batches are merged
by ascending query index, never arrival order.  Workers ship records as
JSON payloads (the ``fullscale`` checkpoint encoding) plus their
:data:`~repro.smt.stats.GLOBAL_COUNTERS` and
:data:`~repro.obs.metrics.GLOBAL_METRICS` deltas; scheduling
statistics (steals, requeues, utilization, queue waits) come back in
``ParallelRunResult.pool``.

Environment knobs (``REPRO_SANITIZE``, the crash knob) cross the
process boundary through an explicit initializer dict handed to every
worker -- never through fork/spawn inheritance -- and each worker
reports the environment it actually applied so tests can assert
parity.

Used by ``repro bench --parallel N [--fullscale] [--deadline-ms B]``
and, via the ``REPRO_BENCH_PARALLEL`` environment knob, by
:func:`repro.bench.harness.efficacy_records`.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_mod
from dataclasses import dataclass, field
from pathlib import Path

from ..obs.clock import now as _now
from ..obs.heartbeat import (
    DEFAULT_INTERVAL_MS,
    GLOBAL_BOARD,
    BeaconChannel,
    HeartbeatEmitter,
    RunModel,
)
from ..obs.ledger import RunLedger, cell_entry
from ..obs.metrics import GLOBAL_METRICS, merge_delta, summarize_values
from ..obs.sanitizer import (
    SANITIZE_ENV,
    install_sanitizer,
    maybe_install_sanitizer,
    summarize_reports,
    uninstall_sanitizer,
)
from ..obs.trace import get_tracer
from ..smt.stats import GLOBAL_COUNTERS
from ..tpch import WorkloadQuery, generate_workload
from .harness import (
    _CONFIGS,
    TECHNIQUES,
    EfficacyRecord,
    _ground_truth_possible,
    _run_sia_variant,
    _run_transitive_closure,
    bench_queries,
    bench_seed,
    column_subsets,
)
from .schedule import assign_shards, expected_costs

#: Test-only fault injection: a worker handed the query whose index
#: matches this variable's value exits hard (attempt 0 only), so the
#: crash-isolation tests can kill a worker mid-cell deterministically.
CRASH_ENV = "REPRO_BENCH_CRASH_QUERY"

#: Environment keys propagated into every worker through the explicit
#: initializer dict (never via start-method inheritance alone).
PROPAGATED_ENV = (SANITIZE_ENV, CRASH_ENV)

#: Attempt ledger cap: a query is dispatched at most this many times.
#: 2 = the at-most-once requeue the crash-isolation contract promises.
_MAX_ATTEMPTS = 2

#: Parent poll interval while waiting on worker results, seconds.
#: Bounds crash-detection latency without busy-waiting.
_POLL_S = 0.25


@dataclass(frozen=True)
class TelemetryConfig:
    """Where and how often the run's telemetry plane writes.

    ``directory`` receives ``heartbeats.jsonl`` (worker beacons +
    parent driver lines, rendered by ``repro top``) and
    ``ledger.jsonl`` (the per-attempt run ledger, rendered by ``repro
    report``).  When no config is given, the telemetry plane does not
    exist: no emitter thread, no beacon queue, no board posts -- the
    null path costs nothing.
    """

    directory: Path
    heartbeat_ms: float = DEFAULT_INTERVAL_MS

    @property
    def heartbeat_path(self) -> Path:
        return Path(self.directory) / "heartbeats.jsonl"

    @property
    def ledger_path(self) -> Path:
        return Path(self.directory) / "ledger.jsonl"


class _TelemetryRecorder:
    """Parent-side telemetry plane: beacon fold + ``heartbeats.jsonl``.

    Owns the :class:`~repro.obs.heartbeat.RunModel` for the run and the
    heartbeat log file.  Every beacon is folded *and* appended verbatim
    (with a flush, so ``repro top`` can tail a live run); the parent
    adds ``driver`` lines (progress, steals, queue depth), ``silence``
    lines (one per newly-flagged worker) and a final ``end`` line.
    """

    def __init__(self, config: TelemetryConfig, workers: int) -> None:
        self.config = config
        self.model = RunModel(interval_ms=config.heartbeat_ms)
        directory = Path(config.directory)
        directory.mkdir(parents=True, exist_ok=True)
        self._fh = open(config.heartbeat_path, "w")

    def register(self, worker_id: int) -> None:
        """Start a worker's silence clock (call once it reports ready,
        so spawn/import latency is not misread as silence)."""
        self.model.register(worker_id, _now())

    def _write(self, line: dict) -> None:
        self._fh.write(json.dumps(line, sort_keys=True) + "\n")
        self._fh.flush()

    def fold(self, beacons: list[dict]) -> None:
        # Beacon "t" is worker perf-counter time (arbitrary epoch); the
        # parent stamps its own arrival clock as "rx" so every line in
        # the log shares one epoch for `repro top` to order by.
        arrival = _now()
        for beacon in beacons:
            self.model.fold(beacon, arrival)
            self._write({**beacon, "rx": round(arrival, 4)})

    def driver_line(
        self,
        *,
        done: int,
        total: int,
        steals: int = 0,
        requeues: int = 0,
        queue_depth: int = 0,
    ) -> None:
        self._write(
            {
                "type": "driver",
                "t": round(_now(), 4),
                "done": done,
                "total": total,
                "steals": steals,
                "requeues": requeues,
                "queue_depth": queue_depth,
            }
        )

    def check_silence(self) -> None:
        for wid in self.model.flag_silent(_now()):
            self._write(
                {"type": "silence", "t": round(_now(), 4), "worker": wid}
            )

    def close(self) -> dict:
        """Write the ``end`` line; returns the run-model rollup."""
        rollup = self.model.snapshot()
        self._write(
            {
                "type": "end",
                "t": round(_now(), 4),
                "beacons": rollup["beacons"],
                "silence_flags": rollup["silence_flags"],
            }
        )
        self._fh.close()
        return rollup


@dataclass
class ParallelRunResult:
    """Merged records plus aggregated solver counters and metrics."""

    records: list[EfficacyRecord] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    metrics: dict[str, dict] = field(default_factory=dict)
    workers: int = 1
    #: Run-level sanitizer summary (``--sanitize`` only): process
    #: count, access totals per registry, recorded violations.
    sanitizer: dict | None = None
    #: Scheduler statistics: steals, requeues, worker restarts,
    #: queue-wait summary, per-worker busy time and utilization.
    pool: dict = field(default_factory=dict)
    #: Propagated-environment snapshot each worker reported from its
    #: initializer (worker id -> {env key: value or None}).
    worker_env: dict[int, dict] = field(default_factory=dict)


def _cell_audit(technique: str) -> str:
    """Ledger audit status: were the cell's verify verdicts certified?"""
    config = _CONFIGS.get(technique)
    if config is not None and config.certify_verify:
        return "certified"
    return "none"


def _query_batch(
    wq: WorkloadQuery,
    techniques: tuple[str, ...],
    deadline_ms: float | None = None,
    *,
    telemetry: bool = False,
) -> tuple[int, list[dict], dict[str, int], dict[str, dict], list[dict]]:
    """All cells of one query (runs inside a worker process).

    With ``telemetry`` on, the hot path additionally posts its current
    position to the heartbeat status board (a few plain attribute
    stores per *cell*, read by the emitter thread) and builds one run
    ledger entry per cell with that cell's solver-counter delta.  Off,
    neither exists -- the null path is unchanged.
    """
    from .fullscale import _record_to_json

    tracer = get_tracer()
    before = GLOBAL_COUNTERS.snapshot()
    metrics_before = GLOBAL_METRICS.snapshot()
    payloads: list[dict] = []
    ledger_entries: list[dict] = []
    cells_done = 0
    with GLOBAL_METRICS.timer("bench.query_ms").time(), tracer.span(
        "bench.query", index=wq.index, counters=True
    ):
        for subset in column_subsets():
            subset_label = "+".join(str(col) for col in subset)
            if telemetry:
                GLOBAL_BOARD.post(
                    query=wq.index,
                    cell=subset_label,
                    phase="ground_truth",
                    cells_done=cells_done,
                    deadline_ms=deadline_ms,
                )
            with tracer.span(
                "bench.ground_truth",
                phase="ground_truth",
                subset=",".join(str(col) for col in subset),
            ):
                possible = _ground_truth_possible(wq, subset)
            for technique in techniques:
                if telemetry:
                    GLOBAL_BOARD.post(
                        cell=f"{subset_label}/{technique}",
                        phase="cell",
                        cells_done=cells_done,
                    )
                    cell_before = GLOBAL_COUNTERS.snapshot()
                with tracer.span("bench.cell", technique=technique):
                    if technique == "TC":
                        record = _run_transitive_closure(wq, subset)
                    else:
                        record = _run_sia_variant(
                            wq, subset, technique, deadline_ms=deadline_ms
                        )
                record.possible = possible
                payload = _record_to_json(record)
                payloads.append(payload)
                cells_done += 1
                if telemetry:
                    ledger_entries.append(
                        cell_entry(
                            payload,
                            counters=GLOBAL_COUNTERS.delta_since(cell_before),
                            audit=_cell_audit(technique),
                            deadline_ms=deadline_ms,
                        )
                    )
    if telemetry:
        GLOBAL_BOARD.post(phase="idle", cells_done=cells_done)
    GLOBAL_METRICS.counter("bench.cells").inc(len(payloads))
    return (
        wq.index,
        payloads,
        GLOBAL_COUNTERS.delta_since(before),
        GLOBAL_METRICS.delta_since(metrics_before),
        ledger_entries,
    )


def _crashed_payloads(
    wq: WorkloadQuery, techniques: tuple[str, ...]
) -> list[dict]:
    """Placeholder cells for a query that killed two workers.

    Shaped exactly like real payloads (``valid``/``optimal`` False) so
    the merged record list stays total and query-ordered even when a
    query is genuinely poisonous.
    """
    from .fullscale import _record_to_json

    payloads = []
    for subset in column_subsets():
        for technique in techniques:
            payloads.append(
                _record_to_json(
                    EfficacyRecord(
                        query_index=wq.index,
                        subset=tuple(c.name for c in subset),
                        n_cols=len(subset),
                        technique=technique,
                        possible=False,
                        valid=False,
                        optimal=False,
                    )
                )
            )
    return payloads


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_env_overrides() -> dict[str, str]:
    """The parent's propagated-environment snapshot at dispatch time."""
    return {
        key: os.environ[key] for key in PROPAGATED_ENV if key in os.environ
    }


def _apply_env_overrides(overrides: dict[str, str]) -> None:
    """Explicit worker initializer for environment-driven knobs.

    Applies exactly the parent's snapshot: keys present in
    ``overrides`` are set, propagated keys absent from it are cleared.
    Spawn children *do* inherit the parent's environment on every
    platform this repo targets, but the contract must not depend on
    start-method details -- the initializer makes worker configuration
    explicit, testable and start-method-proof.
    """
    for key in PROPAGATED_ENV:
        value = overrides.get(key)
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


def _worker_main(
    worker_id: int,
    task_queue,
    result_queue,
    env_overrides: dict[str, str],
    techniques: tuple[str, ...],
    deadline_ms: float | None,
    beacon_queue=None,
    heartbeat_ms: float = DEFAULT_INTERVAL_MS,
) -> None:
    """Persistent worker loop (top-level so spawn can pickle it).

    Pulls ``(query, attempt)`` tasks until the ``None`` sentinel.
    Every result message carries the batch payloads, both registry
    deltas, the drained sanitizer report (when installed), the
    wait/busy timings the parent folds into the pool statistics, and
    (telemetry runs) the batch's ledger entries.

    ``beacon_queue`` is the telemetry side channel: when given, a
    daemon :class:`~repro.obs.heartbeat.HeartbeatEmitter` posts one
    beacon per ``heartbeat_ms`` through a never-blocking
    :class:`~repro.obs.heartbeat.BeaconChannel`.  When ``None``
    (telemetry off) no thread, channel or board post exists.
    """
    _apply_env_overrides(env_overrides)
    sanitizer = maybe_install_sanitizer()
    telemetry = beacon_queue is not None
    emitter = None
    if telemetry:
        emitter = HeartbeatEmitter(
            worker_id,
            BeaconChannel(beacon_queue),
            interval_ms=heartbeat_ms,
        ).start()
    result_queue.put(
        (
            "ready",
            worker_id,
            {key: os.environ.get(key) for key in PROPAGATED_ENV},
        )
    )
    try:
        while True:
            wait_start = _now()
            task = task_queue.get()
            wait_ms = (_now() - wait_start) * 1000.0
            if task is None:
                break
            wq, attempt = task
            if attempt == 0 and os.environ.get(CRASH_ENV) == str(wq.index):
                os._exit(3)  # fault injection, see CRASH_ENV
            busy_start = _now()
            index, payloads, delta, metrics_delta, ledger_entries = (
                _query_batch(
                    wq, techniques, deadline_ms, telemetry=telemetry
                )
            )
            busy_ms = (_now() - busy_start) * 1000.0
            report = (
                sanitizer.drain().to_json()
                if sanitizer is not None
                else None
            )
            result_queue.put(
                (
                    "done",
                    worker_id,
                    index,
                    payloads,
                    delta,
                    metrics_delta,
                    report,
                    busy_ms,
                    wait_ms,
                    ledger_entries,
                )
            )
    finally:
        if emitter is not None:
            emitter.stop()


def default_workers() -> int:
    """Worker count when none is requested (all cores, at least 1)."""
    return max(os.cpu_count() or 1, 1)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _run_inline(
    queries: list[WorkloadQuery],
    techniques: tuple[str, ...],
    deadline_ms: float | None,
    batches: dict[int, list[dict]],
    deltas: dict[int, tuple],
    reports: list[dict],
    ledgers: dict[int, list],
    telemetry: TelemetryConfig | None,
) -> tuple[dict, dict[int, dict]]:
    """The ``workers <= 1`` path: same pipeline, no processes.

    With telemetry on, the single "worker" (id 0) runs the same emitter
    thread over an in-process channel, so the heartbeat log has the
    same shape as a sharded run's.
    """
    recorder = emitter = channel = None
    if telemetry is not None:
        recorder = _TelemetryRecorder(telemetry, workers=1)
        recorder.register(0)
        channel = BeaconChannel()
        emitter = HeartbeatEmitter(
            0, channel, interval_ms=telemetry.heartbeat_ms
        ).start()

    busy_ms = 0.0
    done = 0
    try:
        for wq in queries:
            sanitizer = maybe_install_sanitizer()
            start = _now()
            index, payloads, delta, metrics_delta, entries = _query_batch(
                wq, techniques, deadline_ms,
                telemetry=telemetry is not None,
            )
            busy_ms += (_now() - start) * 1000.0
            batches[index] = payloads
            deltas[index] = (delta, metrics_delta)
            ledgers[index] = entries
            done += 1
            if sanitizer is not None:
                reports.append(sanitizer.drain().to_json())
            if recorder is not None:
                recorder.fold(channel.drain())
                recorder.driver_line(
                    done=done,
                    total=len(queries),
                    queue_depth=len(queries) - done,
                )
                recorder.check_silence()
    finally:
        if emitter is not None:
            emitter.stop()
            GLOBAL_BOARD.reset()
    pool_stats = {
        "steals": 0,
        "requeues": 0,
        "worker_restarts": 0,
        "queue_wait_ms": summarize_values([]),
        "busy_ms": [round(busy_ms, 1)],
    }
    if recorder is not None:
        recorder.fold(channel.drain())
        pool_stats["heartbeats"] = recorder.close()
    return pool_stats, {}


def _run_sharded(
    queries: list[WorkloadQuery],
    techniques: tuple[str, ...],
    deadline_ms: float | None,
    workers: int,
    batches: dict[int, list[dict]],
    deltas: dict[int, tuple],
    reports: list[dict],
    ledgers: dict[int, list],
    telemetry: TelemetryConfig | None,
) -> tuple[dict, dict[int, dict]]:
    """Dispatch ``queries`` over persistent workers (see module doc)."""
    # Spawn, never the platform default: fork would clone the parent's
    # warm registries (interned terms, counters) into every worker, and
    # the deltas workers report would ride on inherited state instead
    # of starting from zero.
    context = multiprocessing.get_context("spawn")
    result_queue = context.Queue()
    recorder = beacon_queue = beacon_channel = None
    heartbeat_ms = DEFAULT_INTERVAL_MS
    if telemetry is not None:
        recorder = _TelemetryRecorder(telemetry, workers=workers)
        heartbeat_ms = telemetry.heartbeat_ms
        beacon_queue = context.Queue()
        beacon_channel = BeaconChannel(beacon_queue)
    env_overrides = _worker_env_overrides()
    shards = [list(shard) for shard in assign_shards(expected_costs(queries), workers)]
    requeued: list[int] = []
    attempts: dict[int, int] = {}  # position -> dispatches so far
    inflight: list[tuple[int, int] | None] = [None] * workers
    task_queues: list = [None] * workers
    procs: list = [None] * workers
    worker_env: dict[int, dict] = {}
    busy = [0.0] * workers
    waits: list[float] = []
    steals = requeues = restarts = 0
    remaining = len(queries)

    def start_worker(wid: int) -> None:
        task_queues[wid] = context.Queue()
        proc = context.Process(
            target=_worker_main,
            args=(
                wid,
                task_queues[wid],
                result_queue,
                env_overrides,
                techniques,
                deadline_ms,
                beacon_queue,
                heartbeat_ms,
            ),
            daemon=True,
        )
        proc.start()
        procs[wid] = proc

    def next_position(wid: int) -> int | None:
        nonlocal steals
        if requeued:
            return requeued.pop(0)
        if shards[wid]:
            return shards[wid].pop(0)
        donor = None
        for w in range(workers):
            if shards[w] and (donor is None or len(shards[w]) > len(shards[donor])):
                donor = w
        if donor is None:
            return None
        steals += 1
        # Tail of the donor shard: the cheapest work it has not started.
        return shards[donor].pop()

    def dispatch(wid: int) -> None:
        position = next_position(wid)
        if position is None:
            return
        attempt = attempts.get(position, 0)
        attempts[position] = attempt + 1
        inflight[wid] = (position, attempt)
        task_queues[wid].put((queries[position], attempt))

    def handle_death(wid: int) -> None:
        nonlocal restarts, requeues, remaining
        procs[wid].join()
        procs[wid] = None
        task, inflight[wid] = inflight[wid], None
        if task is not None:
            position, attempt = task
            if attempt + 1 < _MAX_ATTEMPTS:
                # At-most-once requeue, tracked by the attempt ledger.
                requeues += 1
                requeued.append(position)
            else:
                wq = queries[position]
                batches[wq.index] = _crashed_payloads(wq, techniques)
                deltas[wq.index] = ({}, {})
                ledgers[wq.index] = []
                remaining -= 1
        if requeued or any(shards) or any(inflight):
            restarts += 1
            if restarts > 2 * len(queries) + workers:
                raise RuntimeError(
                    "parallel driver: workers are crash-looping "
                    f"({restarts} restarts for {len(queries)} queries)"
                )
            start_worker(wid)
            dispatch(wid)

    for wid in range(workers):
        start_worker(wid)
    for wid in range(workers):
        dispatch(wid)

    try:
        while remaining:
            if recorder is not None:
                recorder.fold(beacon_channel.drain())
                recorder.check_silence()
            try:
                message = result_queue.get(timeout=_POLL_S)
            except queue_mod.Empty:
                for wid in range(workers):
                    proc = procs[wid]
                    if proc is not None and not proc.is_alive():
                        handle_death(wid)
                continue
            if message[0] == "ready":
                _, wid, env_snapshot = message
                worker_env[wid] = env_snapshot
                if recorder is not None:
                    recorder.register(wid)
                continue
            (
                _,
                wid,
                index,
                payloads,
                delta,
                metrics_delta,
                report,
                busy_ms,
                wait_ms,
                ledger_entries,
            ) = message
            inflight[wid] = None
            busy[wid] += busy_ms
            waits.append(wait_ms)
            if report is not None:
                reports.append(report)
            if index in batches:
                # Duplicate of a cell the crash path already settled
                # (the worker died *after* posting its result): keep
                # the first copy, the merge stays at-most-once.
                dispatch(wid)
                continue
            batches[index] = payloads
            deltas[index] = (delta, metrics_delta)
            ledgers[index] = ledger_entries
            remaining -= 1
            dispatch(wid)
            if recorder is not None:
                recorder.driver_line(
                    done=len(queries) - remaining,
                    total=len(queries),
                    steals=steals,
                    requeues=requeues,
                    queue_depth=sum(len(s) for s in shards) + len(requeued),
                )
    finally:
        for wid in range(workers):
            proc = procs[wid]
            if proc is not None and proc.is_alive():
                task_queues[wid].put(None)
        for proc in procs:
            if proc is None:
                continue
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - shutdown backstop
                proc.terminate()
                proc.join()

    pool_stats = {
        "steals": steals,
        "requeues": requeues,
        "worker_restarts": restarts,
        "queue_wait_ms": summarize_values(waits),
        "busy_ms": [round(value, 1) for value in busy],
    }
    if recorder is not None:
        # Final beats posted by each worker's emitter.stop() land here.
        recorder.fold(beacon_channel.drain())
        pool_stats["heartbeats"] = recorder.close()
    return pool_stats, worker_env


def parallel_efficacy_records(
    *,
    num_queries: int | None = None,
    seed: int | None = None,
    techniques: tuple[str, ...] = TECHNIQUES,
    workers: int | None = None,
    sanitize: bool = False,
    deadline_ms: float | None = None,
    queries: list[WorkloadQuery] | None = None,
    telemetry: TelemetryConfig | None = None,
) -> ParallelRunResult:
    """Run the efficacy workload across ``workers`` processes.

    Returns the records in the same order as
    :func:`repro.bench.harness.efficacy_records` (ascending query
    index, subsets and techniques in their canonical enumeration
    order) together with the summed per-worker solver-counter deltas.
    Record ``predicate`` fields are SQL-rendered in transit and come
    back ``None``, exactly like ``fullscale`` checkpoint round-trips.

    ``deadline_ms`` caps each SIA cell's synthesis wall-clock; expired
    cells come back as recorded partial results (best valid predicate
    so far, section 6.2), never exceptions.  ``queries`` overrides the
    workload (the fullscale runner passes its pending subset);
    ``num_queries``/``seed`` generate it otherwise.

    ``sanitize=True`` installs the shared-state sanitizer in this
    process, exports its environment flag so every worker installs it
    too, and attaches the folded access report as ``.sanitizer``.

    ``telemetry`` (a :class:`TelemetryConfig`) turns on the heartbeat
    plane and the run ledger: workers beat into
    ``<dir>/heartbeats.jsonl`` and every cell lands in
    ``<dir>/ledger.jsonl`` (ascending query order, like the merge).
    """
    from .fullscale import _record_from_json

    num_queries = num_queries if num_queries is not None else bench_queries()
    seed = seed if seed is not None else bench_seed()
    workers = workers if workers is not None else default_workers()
    if queries is None:
        queries = generate_workload(num_queries, seed=seed)

    sanitizer = None
    if sanitize:
        os.environ[SANITIZE_ENV] = "1"
        sanitizer = install_sanitizer()
    reports: list[dict] = []
    batches: dict[int, list[dict]] = {}
    deltas: dict[int, tuple] = {}
    ledgers: dict[int, list] = {}
    start = _now()
    try:
        if workers <= 1:
            pool_stats, worker_env = _run_inline(
                queries, techniques, deadline_ms, batches, deltas, reports,
                ledgers, telemetry,
            )
        else:
            pool_stats, worker_env = _run_sharded(
                queries, techniques, deadline_ms, workers,
                batches, deltas, reports, ledgers, telemetry,
            )
    finally:
        if sanitize:
            os.environ.pop(SANITIZE_ENV, None)
    wall_ms = (_now() - start) * 1000.0
    effective = max(workers, 1)
    pool_stats["workers"] = effective
    pool_stats["wall_ms"] = round(wall_ms, 1)
    pool_stats["utilization"] = round(
        min(sum(pool_stats["busy_ms"]) / max(effective * wall_ms, 1e-9), 1.0),
        4,
    )
    if deadline_ms is not None:
        pool_stats["deadline_ms"] = deadline_ms

    # Merge per-batch deltas in ascending query index, never arrival
    # order, so the aggregate is identical for any worker count.
    totals: dict[str, int] = {}
    metric_totals: dict[str, dict] = {}
    for index in sorted(deltas):
        delta, metrics_delta = deltas[index]
        for name, value in delta.items():
            totals[name] = totals.get(name, 0) + value
        merge_delta(metric_totals, metrics_delta)

    records = [
        _record_from_json(payload)
        for index in sorted(batches)
        for payload in batches[index]
    ]
    if telemetry is not None:
        # Ledger lines land in ascending query order, exactly like the
        # record merge, so a ledger is reproducible across worker
        # counts (timestamps and counters aside).
        with RunLedger(
            telemetry.ledger_path,
            {
                "techniques": list(techniques),
                "workers": workers,
                "deadline_ms": deadline_ms,
                "sanitize": sanitize,
                "seed": seed,
                "queries": len(queries),
            },
        ) as run_ledger:
            for index in sorted(ledgers):
                for entry in ledgers[index]:
                    run_ledger.append(entry)
    summary: dict | None = None
    if sanitizer is not None:
        reports.append(sanitizer.drain().to_json())
        uninstall_sanitizer()
        summary = summarize_reports(reports)
    return ParallelRunResult(
        records=records,
        counters=totals,
        metrics=metric_totals,
        workers=workers,
        sanitizer=summary,
        pool=pool_stats,
        worker_env=worker_env,
    )
