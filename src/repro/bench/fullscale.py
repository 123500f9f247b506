"""Resumable paper-scale experiment runner.

The full Table-2/3 experiment (200 queries × 7 subsets × 4 techniques)
takes on the order of an hour in this pure-Python reproduction, so this
runner checkpoints one JSON line per finished (query, subset,
technique) cell and skips completed cells on restart:

    python -m repro.bench.fullscale --queries 200 --out results/full.jsonl
    python -m repro.bench.fullscale --summarize results/full.jsonl

The summary prints Table 2 and Table 3 from whatever cells exist, so a
partial run is already inspectable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from ..obs.clock import now as _now
from ..sql.printer import render_pred
from ..tpch import generate_workload
from .harness import (
    TECHNIQUES,
    EfficacyRecord,
    _ground_truth_possible,
    _run_sia_variant,
    _run_transitive_closure,
    column_subsets,
    table2_rows,
    table3_rows,
)
from .report import format_table


def _record_to_json(record: EfficacyRecord) -> dict:
    payload = dataclasses.asdict(record)
    del payload["predicate_sql"]  # folded into the "predicate" key
    payload["predicate"] = (
        render_pred(record.predicate)
        if record.predicate is not None
        else record.predicate_sql
    )
    return payload


def _record_from_json(payload: dict) -> EfficacyRecord:
    payload = dict(payload)
    payload["subset"] = tuple(payload["subset"])
    # Checkpoints written before the partial flag existed lack the key.
    payload.setdefault("partial", False)
    # The Pred tree is not shipped across JSON transit; its SQL
    # rendering is kept so re-encoding a decoded record (the parallel
    # fullscale path) does not blank the checkpoint's predicate field.
    payload["predicate_sql"] = payload["predicate"]
    payload["predicate"] = None
    return EfficacyRecord(**payload)


def _cell_key(payload: dict) -> tuple:
    return (payload["query_index"], tuple(payload["subset"]), payload["technique"])


def run(
    queries: int,
    seed: int,
    out_path: Path,
    techniques=TECHNIQUES,
    *,
    workers: int = 1,
    deadline_ms: float | None = None,
    sanitize: bool = False,
    stats: dict | None = None,
    telemetry=None,
) -> int:
    """Run (resumably) and return the number of new cells computed.

    ``workers > 1`` hands the pending queries to the sharded
    work-stealing driver (:mod:`repro.bench.parallel`): queries with
    any missing cell run as whole batches on persistent workers
    and only the cells absent from the checkpoint are appended, so
    parallel and sequential runs extend the same file
    interchangeably.  The driver's scheduling statistics land in
    ``stats`` (when given).  ``deadline_ms`` bounds each SIA cell's
    synthesis wall-clock on both paths; expired cells are checkpointed
    as partial results (``partial: true``, truncated timings).

    ``telemetry`` (a :class:`~repro.bench.parallel.TelemetryConfig`)
    turns on the heartbeat/ledger plane; it routes even single-worker
    runs through the driver so the telemetry shape is uniform.
    """
    done: set[tuple] = set()
    if out_path.exists():
        with out_path.open() as handle:
            for line in handle:
                if line.strip():
                    done.add(_cell_key(json.loads(line)))
    out_path.parent.mkdir(parents=True, exist_ok=True)

    if workers > 1 or telemetry is not None:
        return _run_parallel(
            queries, seed, out_path, tuple(techniques), done,
            workers=workers, deadline_ms=deadline_ms,
            sanitize=sanitize, stats=stats, telemetry=telemetry,
        )

    new_cells = 0
    with out_path.open("a") as handle:
        for wq in generate_workload(queries, seed=seed):
            for subset in column_subsets():
                subset_names = tuple(c.name for c in subset)
                pending = [
                    t for t in techniques
                    if (wq.index, subset_names, t) not in done
                ]
                if not pending:
                    continue
                possible = _ground_truth_possible(wq, subset)
                for technique in pending:
                    start = _now()
                    if technique == "TC":
                        record = _run_transitive_closure(wq, subset)
                    else:
                        record = _run_sia_variant(
                            wq, subset, technique, deadline_ms=deadline_ms
                        )
                    record.possible = possible
                    handle.write(json.dumps(_record_to_json(record)) + "\n")
                    handle.flush()
                    new_cells += 1
                    print(
                        f"q{wq.index} {'+'.join(subset_names)} {technique}: "
                        f"valid={record.valid} optimal={record.optimal} "
                        f"({_now() - start:.1f}s)",
                        file=sys.stderr,
                    )
    return new_cells


def _run_parallel(
    queries: int,
    seed: int,
    out_path: Path,
    techniques: tuple[str, ...],
    done: set[tuple],
    *,
    workers: int,
    deadline_ms: float | None,
    sanitize: bool,
    stats: dict | None,
    telemetry=None,
) -> int:
    """Sharded-driver path of :func:`run` (whole-query granularity)."""
    from .parallel import parallel_efficacy_records

    pending = [
        wq
        for wq in generate_workload(queries, seed=seed)
        if any(
            (wq.index, tuple(c.name for c in subset), technique) not in done
            for subset in column_subsets()
            for technique in techniques
        )
    ]
    if not pending:
        if stats is not None:
            stats.update({"workers": workers, "steals": 0, "requeues": 0})
        return 0
    result = parallel_efficacy_records(
        techniques=techniques,
        workers=workers,
        sanitize=sanitize,
        deadline_ms=deadline_ms,
        queries=pending,
        telemetry=telemetry,
    )
    if stats is not None:
        stats.update(result.pool)
        stats["counters"] = result.counters
        stats["metrics"] = result.metrics
        if result.sanitizer is not None:
            stats["sanitizer"] = result.sanitizer
    new_cells = 0
    with out_path.open("a") as handle:
        for record in result.records:
            payload = _record_to_json(record)
            if _cell_key(payload) in done:
                continue
            handle.write(json.dumps(payload) + "\n")
            new_cells += 1
    print(
        f"parallel x{workers}: {new_cells} new cells, "
        f"steals={result.pool.get('steals', 0)} "
        f"requeues={result.pool.get('requeues', 0)} "
        f"utilization={result.pool.get('utilization', 0.0)}",
        file=sys.stderr,
    )
    return new_cells


def summarize(path: Path) -> str:
    """Render Table 2/3 from whatever checkpoint cells exist."""
    records = []
    with path.open() as handle:
        for line in handle:
            if line.strip():
                records.append(_record_from_json(json.loads(line)))
    headers2 = ["cols", "possible"]
    for technique in TECHNIQUES:
        headers2 += [f"{technique} valid", f"{technique} optimal"]
    headers3 = ["cols"]
    for technique in ("SIA", "SIA_v1", "SIA_v2"):
        headers3 += [f"{technique} gen", f"{technique} learn", f"{technique} val"]
    partials = sum(1 for r in records if r.partial)
    out = (
        format_table(headers2, table2_rows(records), title=f"Table 2 ({len(records)} cells)")
        + "\n\n"
        + format_table(headers3, table3_rows(records), title="Table 3 (ms)")
    )
    if partials:
        out += (
            f"\n\n{partials} partial cell(s) (deadline expired); "
            "their timings are excluded from Table 3."
        )
    return out


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (see module docstring for usage)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=Path("results/fullscale.jsonl"))
    parser.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="worker processes for the sharded driver (1 = in-process)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None, metavar="B",
        help="per-cell synthesis budget; expired cells checkpoint partials",
    )
    parser.add_argument(
        "--telemetry", type=Path, default=None, metavar="DIR",
        help="write heartbeats.jsonl and ledger.jsonl under DIR",
    )
    parser.add_argument(
        "--summarize", type=Path, default=None, metavar="JSONL",
        help="print Table 2/3 from an existing checkpoint file and exit",
    )
    args = parser.parse_args(argv)
    if args.summarize is not None:
        print(summarize(args.summarize))
        return 0
    telemetry = None
    if args.telemetry is not None:
        from .parallel import TelemetryConfig

        telemetry = TelemetryConfig(directory=args.telemetry)
    new_cells = run(
        args.queries, args.seed, args.out,
        workers=args.parallel, deadline_ms=args.deadline_ms,
        telemetry=telemetry,
    )
    print(f"computed {new_cells} new cells -> {args.out}", file=sys.stderr)
    print(summarize(args.out))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
