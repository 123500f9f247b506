"""``repro.obs``: the observability layer (tracing, metrics, clock).

A zero-dependency substrate the whole stack reports through:

* :mod:`repro.obs.clock` -- the injectable monotonic clock every
  duration in the repo is measured on (lint rule SIA010 pins this);
* :mod:`repro.obs.trace` -- context-manager span tracing to JSONL,
  off by default, with per-span attributes and counter deltas;
* :mod:`repro.obs.metrics` -- named counters/timers/histograms with
  worker-mergeable deltas, generalizing the solver's
  :data:`~repro.smt.stats.GLOBAL_COUNTERS`;
* :mod:`repro.obs.sanitizer` -- opt-in runtime shared-state sanitizer
  recording per-process/thread registry accesses and flagging
  fork-inherited writes (``repro bench --sanitize``);
* :mod:`repro.obs.replay` -- the ``repro trace`` replay: per-phase
  attribution tables and text flamegraphs from a trace file;
* :mod:`repro.obs.heartbeat` -- worker heartbeats over a lossy side
  channel plus the parent-side run model (``repro top``);
* :mod:`repro.obs.ledger` -- the append-only per-attempt run ledger
  and its per-query profiles (``repro report``);
* :mod:`repro.obs.export` -- Prometheus-text / JSON snapshot exporters
  and the stdlib HTTP endpoint (``repro serve-metrics``).

:func:`install_file_tracer` is the one-call entry point the CLI and
benchmarks use::

    with install_file_tracer("run.jsonl") as tracer:
        ...  # everything under here emits spans

See docs/INTERNALS.md, "Observability".
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from .clock import Clock, ManualClock, get_clock, now, set_clock
from .export import MetricsServer, metrics_snapshot, prometheus_text
from .heartbeat import (
    GLOBAL_BOARD,
    BeaconChannel,
    HeartbeatEmitter,
    RunModel,
    StatusBoard,
)
from .ledger import (
    RunLedger,
    cell_entry,
    load_ledger,
    per_query_profiles,
    render_report,
)
from .metrics import (
    GLOBAL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    merge_delta,
    summarize_values,
)
from .sanitizer import (
    SANITIZE_ENV,
    Sanitizer,
    SanitizerReport,
    install_sanitizer,
    maybe_install_sanitizer,
    summarize_reports,
    uninstall_sanitizer,
)
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
)

__all__ = [
    "BeaconChannel",
    "Clock",
    "Counter",
    "GLOBAL_BOARD",
    "GLOBAL_METRICS",
    "Gauge",
    "HeartbeatEmitter",
    "Histogram",
    "ManualClock",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_TRACER",
    "NullTracer",
    "RunLedger",
    "RunModel",
    "SANITIZE_ENV",
    "Sanitizer",
    "SanitizerReport",
    "Span",
    "StatusBoard",
    "Timer",
    "Tracer",
    "cell_entry",
    "get_clock",
    "get_tracer",
    "install_file_tracer",
    "install_sanitizer",
    "load_ledger",
    "maybe_install_sanitizer",
    "merge_delta",
    "metrics_snapshot",
    "now",
    "per_query_profiles",
    "prometheus_text",
    "render_report",
    "set_clock",
    "set_tracer",
    "summarize_reports",
    "summarize_values",
    "uninstall_sanitizer",
]


@contextmanager
def install_file_tracer(
    path: Path | str,
    *,
    trace_id: str | None = None,
    smt_spans: bool = False,
) -> Iterator[Tracer]:
    """Install a process-wide tracer writing JSONL to ``path``.

    Wires the solver counters (:data:`repro.smt.stats.GLOBAL_COUNTERS`)
    in as the tracer's counter source, so ``span(..., counters=True)``
    records solver-effort deltas (checks, conflicts, restarts, simplex
    pivots) as span attributes.  On exit the previous tracer (normally
    the null tracer) is restored and the file is closed.
    """
    # Imported here, not at module level: repro.obs must stay importable
    # below repro.smt (smt.solver reads the tracer at check time).
    from ..smt.stats import GLOBAL_COUNTERS

    sink = open(path, "w", encoding="utf-8")
    try:
        tracer = Tracer(
            sink,
            trace_id=trace_id,
            counter_source=GLOBAL_COUNTERS.snapshot,
            smt_spans=smt_spans,
        )
        previous = set_tracer(tracer)
    except BaseException:
        sink.close()
        raise
    try:
        yield tracer
    finally:
        set_tracer(previous)
        tracer.close()
        sink.close()
