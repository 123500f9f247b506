"""End-to-end, layer-attributed benchmark of the Sia pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rewrite-oneshot --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seconds 36

One process with one thread acts as a closed-loop client.  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace
1`` it runs the item list once plain and once with the layer wrappers
installed, and reports the per-layer metrics.  The last line of
standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; a readable report goes to standard error and
details (the trace's spans included) to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
#: Largest tolerated gap between the traced wall time and the layer
#: self times plus the untraced residue.
LAYER_SUM_TOLERANCE = 0.05

_clock = time.perf_counter

END_TO_END = (
    ("answer_ms_p50", "ms"),
    ("answer_ms_tail", "ms"),
    ("optimize_ms_p50", "ms"),
    ("optimize_ms_tail", "ms"),
    ("items_per_s", "1/s"),
    ("join_tuples_ratio", "ratio"),
    ("rewritten_count", "count"),
    ("valid_count", "count"),
    ("optimal_count", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: Span names whose summed self time is reported as ``<name>_ms``.
LAYER_SPANS = (
    "bench.item",
    "bench.check",
    "sql.parse",
    "rewrite.analyze",
    "rewrite.rewrite",
    "rewrite.cache",
    "rewrite.cache_key",
    "core.synthesize",
    "core.qe",
    "core.sample",
    "core.learn",
    "core.verify",
    "core.counter_t",
    "core.counter_f",
    "core.minimize",
    "learn.svm",
    "smt.encode",
    "smt.solve",
    "smt.sat",
    "smt.tableau",
    "predicates.lower",
    "predicates.eval",
    "engine.plan",
    "engine.exec",
)

SMT_COUNTERS = (
    "checks",
    "pivots",
    "float_pivots",
    "solvers_constructed",
    "sessions_reused",
    "clauses_learned",
    "restarts",
    "tier_fallbacks",
)


def _unit(name: str) -> str:
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "_geomean", "_error")):
        return "ratio"
    if name == "engine.peak_bytes":
        return "bytes"
    return "count"


def _log(message: str = "") -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Running items
# ----------------------------------------------------------------------
def run_pass(workload, order: list[int], tracer=None):
    """One pass over ``order``; returns (samples, wall s, residue s).

    Each sample carries the host speed factors probed just before and
    just after it.  The residue is the time between items (collection,
    probes), read from this loop's own clock; with a tracer it is the
    part of the wall time no span covers.
    """
    from workloads import Sample

    samples = []
    residue = 0.0
    start = previous = _clock()
    for item in order:
        # Every item starts from the same collector state, so garbage
        # left by one item is not collected inside the next one.
        gc.collect()
        speed = measure.speed_probe()
        if samples:
            samples[-1].speed = _mean_speed(samples[-1].speed, speed)
        residue += _clock() - previous
        root = None
        if tracer is not None:
            tracer.item = item
            root = tracer.open("bench.item")
        try:
            sample = workload.run_item(item)
        except Exception:  # one failed item must not end the run
            _log(f"item {workload.item_names[item]} raised:")
            _log(traceback.format_exc())
            sample = Sample(item, 0.0, 0.0, ok=False, detail="raised")
        finally:
            if root is not None:
                tracer.close(root)
                tracer.item = -1
        previous = _clock()
        sample.speed = speed
        samples.append(sample)
    if samples:
        samples[-1].speed = _mean_speed(samples[-1].speed, measure.speed_probe())
    end = _clock()
    residue += end - previous
    return samples, end - start, residue


def _mean_speed(before, after) -> tuple[float, float]:
    return ((before[0] + after[0]) / 2.0, (before[1] + after[1]) / 2.0)


def scaled_ms(sample, kind: str) -> float:
    """``kind`` ("optimize_ms" or "answer_ms") at the reference speed:
    optimizing is interpreted code, executing the plan is numpy."""
    python, numpy = sample.speed
    optimize = sample.optimize_ms * python
    if kind == "optimize_ms":
        return optimize
    return optimize + (sample.answer_ms - sample.optimize_ms) * numpy


#: After the workload's ``min_passes`` full passes, only items whose
#: first run took less than this share of ``--seconds`` run again, so a
#: few long items do not take up the run.
REPEAT_SHARE = 0.05


def measured_passes(workload, seconds: float):
    """``min_passes`` passes over every item, then passes over the short
    items until the next one would overrun ``seconds``."""
    passes: list = []
    elapsed = 0.0
    items = set(range(len(workload.item_names)))
    while items:
        if len(passes) >= workload.min_passes:
            items = {
                s.item
                for s in passes[0]
                if s.answer_ms < seconds * 1000.0 * REPEAT_SHARE
            }
            estimate = sum(s.answer_ms for s in passes[0] if s.item in items)
            if not items or elapsed + estimate / 1000.0 > seconds:
                break
        order = [item for item in workload.order(len(passes)) if item in items]
        samples, wall, _ = run_pass(workload, order)
        passes.append(samples)
        elapsed += wall
        _log(f"  pass {len(passes)}: {len(samples)} items in {wall:.2f} s")
    return passes, elapsed


def item_times(passes, kind: str, time_of=scaled_ms) -> dict[int, float]:
    """Each item's median ``kind`` time over its runs."""
    runs: dict[int, list[float]] = {}
    for one_pass in passes:
        for sample in one_pass:
            runs.setdefault(sample.item, []).append(time_of(sample, kind))
    return {item: statistics.median(values) for item, values in runs.items()}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _first_pass_counts(samples) -> dict[str, float]:
    ratios = [
        original / rewritten
        for sample in samples
        if sample.join_tuples is not None
        for original, rewritten in [sample.join_tuples]
    ]
    return {
        "join_tuples_ratio": measure.geomean(ratios),
        "rewritten_count": sum(1 for s in samples if s.rewritten),
        "valid_count": sum(1 for s in samples if s.status in ("valid", "optimal")),
        "optimal_count": sum(1 for s in samples if s.status == "optimal"),
    }


def end_to_end_metrics(passes, setup_s, notes):
    metrics: dict[str, float] = {}
    for kind in ("answer_ms", "optimize_ms"):
        values = list(item_times(passes, kind).values())
        pct = measure.tail_percentile(len(values))
        metrics[f"{kind}_p50"] = measure.median(values)
        metrics[f"{kind}_tail"] = measure.percentile(values, pct)
        beyond = sum(1 for value in values if value > metrics[f"{kind}_tail"])
        notes[f"{kind}_tail"] = f"p{pct:g} of {len(values)} items, {beyond} beyond"
        if kind == "answer_ms":
            metrics["items_per_s"] = len(values) / (sum(values) / 1000.0)
    metrics.update(_first_pass_counts(passes[0]))
    metrics["peak_rss_mb"] = measure.peak_rss_mb()
    metrics["setup_s"] = setup_s
    return metrics


def _fig9(samples) -> dict[int, float]:
    """Per rewritten item: median original over median rewritten
    execution time (Fig. 9's time speedup)."""
    times: dict[int, list[tuple[float, float]]] = {}
    for sample in samples:
        if sample.rewritten and sample.exec_ms_original is not None:
            times.setdefault(sample.item, []).append(
                (sample.exec_ms_original, sample.exec_ms_chosen)
            )
    speedups = {
        item: statistics.median(o for o, _ in pairs)
        / max(statistics.median(r for _, r in pairs), 1e-9)
        for item, pairs in times.items()
    }
    return speedups


def per_layer_metrics(tracer, samples, counters, cache_hits, extra):
    metrics: dict[str, float] = {}
    self_s = tracer.self_by_name()
    calls = tracer.calls_by_name()
    for name in LAYER_SPANS:
        metrics[f"{name}_ms"] = self_s.get(name, 0.0) * 1000.0
    metrics["sql.parse_calls"] = calls.get("sql.parse", 0)
    metrics["rewrite.cache_hits"] = cache_hits
    metrics["rewrite.cache_misses"] = calls.get("rewrite.rewrite", 0)
    metrics["rewrite.prospective_share"] = (
        sum(1 for s in samples if s.prospective) / len(samples) if samples else 0.0
    )
    metrics["learn.svm_calls"] = calls.get("learn.svm", 0)
    metrics["learn.svm_ms_per_call"] = metrics["learn.svm_ms"] / max(
        1, metrics["learn.svm_calls"]
    )
    metrics["smt.tableau_calls"] = calls.get("smt.tableau", 0)
    for name in SMT_COUNTERS:
        metrics[f"smt.{name}"] = counters[name]

    cells = tracer.cells
    metrics["core.iterations"] = sum(c["iterations"] for c in cells)
    metrics["core.true_samples"] = sum(c["true_samples"] for c in cells)
    metrics["core.false_samples"] = sum(c["false_samples"] for c in cells)
    invalid, valid = tracer.verdicts
    metrics["core.verify_valid_ratio"] = valid / (valid + invalid) if valid + invalid else 0.0
    classes = {"skipped": 0, "optimal": 0, "valid": 0, "budget": 0, "failed": 0}
    population_ms = {"skipped": [], "synth": []}
    for cell in cells:
        if cell["status"] in ("trivial", "unsupported"):
            kind = "skipped"
        elif cell["status"] == "optimal":
            kind = "optimal"
        elif cell["status"] == "valid":
            budget = cell["iterations"] >= cell["max_iterations"]
            kind = "budget" if budget else "valid"
        else:
            kind = "failed"
        classes[kind] += 1
        population_ms["skipped" if kind == "skipped" else "synth"].append(cell["ms"])
    for kind, count in classes.items():
        metrics[f"core.cells_{kind}"] = count
    for population, values in population_ms.items():
        metrics[f"core.{population}_ms_p50"] = measure.median(values)

    engine_ms = {k: 0.0 for k in ("scan", "filter", "join", "aggregate", "sort")}
    join_tuples = tuples = peak = 0
    original_ms = rewritten_ms = 0.0
    for sample in samples:
        for kind in engine_ms:
            engine_ms[kind] += sample.engine.get(kind, 0.0)
        join_tuples += sample.engine.get("join_tuples", 0)
        tuples += sample.engine.get("tuples", 0)
        peak = max(peak, sample.engine.get("peak_bytes", 0))
        if sample.rewritten:
            rewritten_ms += sample.exec_ms_chosen
        if sample.exec_ms_original is not None:
            original_ms += sample.exec_ms_original
    for kind, value in engine_ms.items():
        metrics[f"engine.{kind}_ms"] = value
    metrics["engine.exec_ms_original"] = original_ms
    metrics["engine.exec_ms_rewritten"] = rewritten_ms
    metrics["engine.join_input_tuples"] = join_tuples
    metrics["engine.tuples_processed"] = tuples
    metrics["engine.peak_bytes"] = peak
    speedups = _fig9(samples)
    metrics["engine.speedup_geomean"] = measure.geomean(list(speedups.values()))
    metrics["engine.rewrites_faster"] = sum(1 for v in speedups.values() if v > 1.0)
    metrics["engine.rewrites_2x"] = sum(1 for v in speedups.values() if v >= 2.0)
    metrics["engine.rewrites_below_1_05x"] = sum(
        1 for v in speedups.values() if v < 1.05
    )
    metrics.update(extra)
    return metrics, speedups


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def _check_verdict(samples) -> tuple[int, int, int, list[str]]:
    failed = [s for s in samples if not s.ok]
    checked = sum(1 for s in samples if s.rewritten)
    nonempty = sum(1 for s in samples if s.rewritten and s.nonempty)
    return len(failed), checked, nonempty, [s.detail for s in failed]


def _report_promotion(workload, speedups) -> list[str]:
    slow = sorted(
        (workload.item_names[item], value)
        for item, value in speedups.items()
        if value < 1.05
    )
    _log(f"rewrites below 1.05x ({len(slow)} of {len(speedups)}):")
    for name, value in slow:
        _log(f"  {name}: {value:.3f}x")
    return [name for name, _ in slow]


def _report_slowest(workload, tracer) -> list[dict]:
    roots = [
        (tracer.end[i] - tracer.start[i], tracer.item_of[i])
        for i in range(len(tracer))
        if tracer.parent[i] < 0 and tracer.names[tracer.name_of[i]] == "bench.item"
    ]
    layers = tracer.item_layers()
    slowest = []
    _log("three slowest items (layer with the most self time):")
    for seconds, item in sorted(roots, reverse=True)[:3]:
        layer, layer_s = max(layers[item].items(), key=lambda kv: kv[1])
        name = workload.item_names[item]
        _log(f"  {name}: {seconds * 1000:.1f} ms, {layer} {layer_s * 1000:.1f} ms")
        slowest.append({"item": name, "ms": seconds * 1000, "layer": layer})
    return slowest


def _emit(correct, attempted, failed, metrics, units, notes, details, args):
    _log(f"{'metric':32} {'value':>16}  unit")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        _log(f"{name:32} {value:16.4f}  {units[name]}{note}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details.update(metrics=metrics, notes=notes)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(details, indent=1, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )


# ----------------------------------------------------------------------
def measure_end_to_end(workload, args, setup_s, notes, details):
    """Untraced passes; returns (samples, metrics, units)."""
    passes, _ = measured_passes(workload, args.seconds)
    samples = [s for one_pass in passes for s in one_pass]
    metrics = end_to_end_metrics(passes, setup_s, notes)
    for kind in ("answer_ms", "optimize_ms"):
        raw = item_times(passes, kind, time_of=getattr)
        details[f"item_{kind}_as_measured"] = {
            workload.item_names[item]: ms for item, ms in raw.items()
        }
        notes[f"{kind}_p50"] = f"{measure.median(list(raw.values())):.4f} as measured"
    details["runs"] = [
        [workload.item_names[s.item], s.optimize_ms, s.answer_ms, *s.speed]
        for s in samples
    ]
    details["below_1_05x"] = _report_promotion(workload, _fig9(samples))
    return samples, metrics, dict(END_TO_END)


def measure_layers(workload, args, setup_parts, details):
    """One plain and one traced pass over the same order; returns
    (samples, metrics, units), or None when the layers do not add up."""
    from repro.smt import GLOBAL_COUNTERS
    from spans import Instrumentation, Tracer

    order = workload.order(0)
    plain, _, _ = run_pass(workload, order)
    tracer = Tracer()
    workload.tracer = tracer
    cache = getattr(workload, "cache", None)
    hits_before = cache.stats.hits if cache is not None else 0
    snapshot = GLOBAL_COUNTERS.snapshot()
    instrumentation = Instrumentation(tracer, [ROOT / "src", HERE]).install()
    try:
        traced, wall, residue = run_pass(workload, order, tracer)
    finally:
        instrumentation.remove()
        workload.tracer = None
    counters = GLOBAL_COUNTERS.delta_since(snapshot)
    plain_ms = sum(scaled_ms(s, "answer_ms") for s in plain)
    overhead_ms = sum(scaled_ms(s, "answer_ms") for s in traced) - plain_ms
    samples = plain + traced
    layer_sum = sum(max(0.0, s) for s in tracer.self_times()) + residue
    sum_error = abs(layer_sum - wall) / wall
    _, checked, nonempty, _ = _check_verdict(samples)
    extra = {
        "tpch.dbgen_s": statistics.median(p["tpch.dbgen_s"] for p in setup_parts),
        "tpch.workload_gen_s": statistics.median(
            p["tpch.workload_gen_s"] for p in setup_parts
        ),
        "trace.untraced_ms": residue * 1000.0,
        "trace.wall_ms": wall * 1000.0,
        "trace.overhead_ms": overhead_ms,
        "trace.overhead_share": overhead_ms / plain_ms,
        "bench.python_speed_ratio": statistics.mean(s.speed[0] for s in traced),
        "bench.numpy_speed_ratio": statistics.mean(s.speed[1] for s in traced),
        "trace.layer_sum_error": sum_error,
        "trace.spans": len(tracer),
        "failed_share": sum(1 for s in samples if not s.ok) / len(samples),
        "bench.checks": checked,
        "bench.nonempty_checks": nonempty,
    }
    hits = cache.stats.hits - hits_before if cache is not None else 0
    metrics, speedups = per_layer_metrics(tracer, traced, counters, hits, extra)
    details["below_1_05x"] = _report_promotion(workload, speedups)
    details["slowest"] = _report_slowest(workload, tracer)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(
        OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl", workload.item_names
    )
    _log(
        f"layer self times + untraced residue = {layer_sum * 1000:.1f} ms, "
        f"traced wall {wall * 1000:.1f} ms (error {sum_error:.2%}); "
        f"tracing overhead {overhead_ms:.1f} ms at reference speed "
        f"({overhead_ms / plain_ms:.1%} of the untraced item time)"
    )
    if sum_error > LAYER_SUM_TOLERANCE:
        _log("FAIL: layer self times do not add up to the traced wall time")
        return None
    return samples, metrics, {name: _unit(name) for name in metrics}


def run_workload(args) -> int:
    import workloads

    factory = workloads.WORKLOADS[args.workload]
    setup_times = []
    setup_scaled = []
    setup_parts = []
    for _ in range(SETUP_REPEATS):
        before = measure.speed_probe()
        start = _clock()
        workload = factory(args.seed)
        workload.setup()
        seconds = _clock() - start
        python, numpy = _mean_speed(before, measure.speed_probe())
        # dbgen is numpy work; generation, warm-up and caching are not.
        dbgen = workload.setup_parts["tpch.dbgen_s"]
        setup_times.append(seconds)
        setup_scaled.append(dbgen * numpy + (seconds - dbgen) * python)
        setup_parts.append(workload.setup_parts)
    setup_s = statistics.median(setup_scaled)
    # Set-up objects live for the whole run; keep the collector off them.
    gc.collect()
    gc.freeze()
    _log(
        f"{args.workload}: {len(workload.item_names)} items, set-up "
        f"{statistics.median(setup_times):.3f} s as measured"
    )
    notes = {"setup_s": f"{statistics.median(setup_times):.4f} as measured"}
    details: dict = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        measured = measure_layers(workload, args, setup_parts, details)
        if measured is None:
            return 1
    else:
        measured = measure_end_to_end(workload, args, setup_s, notes, details)
    samples, metrics, units = measured

    failures, checked, nonempty, reasons = _check_verdict(samples)
    _log(
        f"output check: {len(samples) - failures}/{len(samples)} items correct; "
        f"{checked} rewrites compared, {nonempty} with non-empty results"
    )
    for reason in reasons[:10]:
        _log(f"  {reason}")
    details["check"] = {"failed": failures, "compared": checked, "nonempty": nonempty}
    _emit(failures == 0, len(samples), failures, metrics, units, notes, details, args)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        _log(f"== {name}")
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        status = status or completed.returncode
        lines = completed.stdout.strip().splitlines()
        if completed.returncode or not lines:
            _log(f"{name}: failed with exit code {completed.returncode}")
            continue
        result = json.loads(lines[-1])
        verdict = "correct" if result["correct"] else "INCORRECT"
        print(f"{name}: {verdict}, {result['failed']}/{result['attempted']} failed")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32} {entry['value']:16.4f}  {entry['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        _log(f"no program sources under {ROOT / 'src'}; nothing to benchmark")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)} or all"
        )
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
