"""In-memory span tracer and the layer wrappers of the traced run.

The traced run installs a wrapper around each public entry point of a
layer (table :data:`LAYER_ENTRY_POINTS`).  A wrapper opens a span on
entry and closes it on exit; spans record name, start, end, parent and
the benchmark item they belong to, and stay in memory until the run
ends.  Nothing inside the program changes: wrappers replace module and
class attributes for the duration of the traced pass and are removed
afterwards.

A span's *self time* is its duration minus the time its child spans
cover.  Summed per span name, the self times plus the time between
items (the untraced residue) account for the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    """Spans kept in flat arrays; one open-span stack (one thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item_of = array("l")
        self.stack: list[int] = []
        self.item = -1
        self.suspended = 0
        #: Verdict of the most recent Verify call: CounterT/CounterF
        #: enumerator work after it is attributed by it.
        self.last_verdict = False
        self.verdicts = [0, 0]  # [invalid, valid]
        self.cells: list[dict] = []

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item_of.append(self.item)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(_clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _clock()
        self.stack.pop()

    def current(self) -> str | None:
        return self.names[self.name_of[self.stack[-1]]] if self.stack else None

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time (s) of every span, in span order."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def self_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for index, seconds in enumerate(self.self_times()):
            totals[self.names[self.name_of[index]]] += seconds
        return dict(totals)

    def calls_by_name(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for name_id in self.name_of:
            counts[self.names[name_id]] += 1
        return dict(counts)

    def item_layers(self) -> dict[int, dict[str, float]]:
        """Per item, self seconds by layer (the span-name prefix)."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, seconds in enumerate(self.self_times()):
            layer = self.names[self.name_of[index]].split(".", 1)[0]
            out[self.item_of[index]][layer] += seconds
        return out

    def write_jsonl(self, path: Path, item_names: list[str]) -> None:
        """All spans, one JSON object a line (times in ms from the first)."""
        origin = self.start[0] if len(self) else 0.0
        with path.open("w") as sink:
            for i in range(len(self)):
                item = self.item_of[i]
                sink.write(
                    '{"id":%d,"name":"%s","start_ms":%.4f,"end_ms":%.4f,'
                    '"parent":%d,"item":"%s"}\n'
                    % (
                        i,
                        self.names[self.name_of[i]],
                        (self.start[i] - origin) * 1000.0,
                        (self.end[i] - origin) * 1000.0,
                        self.parent[i],
                        item_names[item] if item >= 0 else "",
                    )
                )


# ----------------------------------------------------------------------
# Span naming rules
# ----------------------------------------------------------------------
def _counter_phase(tracer: Tracer) -> str | None:
    """Enumerator work outside initial sampling is CounterF after a
    valid Verify verdict and CounterT after an invalid one."""
    if tracer.current() == "core.sample":
        return None
    return "core.counter_f" if tracer.last_verdict else "core.counter_t"


def _implication_phase(tracer: Tracer) -> str | None:
    """Implication checks belong to the phase already open around them
    (minimisation); the optimality probe of the loop is Verify."""
    if tracer.current() == "core.minimize":
        return None
    return "core.verify"


def _record_verdict(tracer: Tracer, result, args, seconds: float) -> None:
    verdict = bool(result)
    tracer.last_verdict = verdict
    tracer.verdicts[verdict] += 1


def _record_cell(tracer: Tracer, outcome, args, seconds: float) -> None:
    synthesizer = args[0]
    tracer.cells.append(
        {
            "item": tracer.item,
            "status": outcome.status,
            "iterations": outcome.iterations,
            "max_iterations": synthesizer.config.max_iterations,
            "true_samples": outcome.true_samples,
            "false_samples": outcome.false_samples,
            "ms": seconds * 1000.0,
        }
    )


#: (module, attribute, span name or naming rule, result hook).  An
#: attribute ``Class.method`` wraps the method on the class; a plain
#: function is replaced wherever a module of the program or of the
#: benchmark holds a reference to it.
LAYER_ENTRY_POINTS = (
    ("repro.sql.binder", "parse_query", "sql.parse", None),
    ("repro.rewrite.rules", "is_syntax_based_prospective", "rewrite.analyze", None),
    ("repro.rewrite.rules", "synthesis_input", "rewrite.analyze", None),
    ("repro.rewrite.rules", "target_columns", "rewrite.analyze", None),
    ("repro.rewrite.rewriter", "rewrite_query", "rewrite.rewrite", None),
    ("repro.rewrite.cache", "RewriteCache.rewrite", "rewrite.cache", None),
    ("repro.rewrite.cache", "RewriteCache.key_for", "rewrite.cache_key", None),
    ("repro.core.synthesize", "Synthesizer.synthesize", "core.synthesize", _record_cell),
    ("repro.smt.qe", "unsat_region", "core.qe", None),
    ("repro.core.samples", "Sampler.sample", "core.sample", None),
    ("repro.core.samples", "enumerate_all", "core.sample", None),
    ("repro.core.learnloop", "learn", "core.learn", None),
    ("repro.core.verify", "PredicateVerifier.verify", "core.verify", _record_verdict),
    ("repro.core.verify", "verify_implied", "core.verify", _record_verdict),
    ("repro.core.synthesize", "_implication_holds", _implication_phase, None),
    ("repro.core.synthesize", "ValidPredicate.prune_dominated", "core.minimize", None),
    ("repro.core.synthesize", "ValidPredicate.minimize", "core.minimize", None),
    ("repro.core.samples", "IncrementalEnumerator.next", _counter_phase, None),
    ("repro.core.samples", "IncrementalEnumerator.add", _counter_phase, None),
    ("repro.learn.svm", "train_linear_svm", "learn.svm", None),
    ("repro.smt.solver", "Solver.__init__", "smt.encode", None),
    ("repro.smt.solver", "Solver.add", "smt.encode", None),
    ("repro.smt.solver", "Solver.check", "smt.solve", None),
    ("repro.smt.sat", "SatSolver.solve", "smt.sat", None),
    ("repro.smt.backend", "check_tableau", "smt.tableau", None),
    ("repro.predicates.normalize", "lower_predicate", "predicates.lower", None),
    ("repro.predicates.eval", "eval_pred_numpy", "predicates.eval", None),
    ("repro.engine.optimizer", "build_plan", "engine.plan", None),
    ("repro.engine.executor", "execute", "engine.exec", None),
)


def _wrap(original, naming, hook, tracer: Tracer):
    fixed = naming if isinstance(naming, str) else None

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if tracer.suspended:
            return original(*args, **kwargs)
        name = fixed or naming(tracer)
        if name is None:
            return original(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer, result, args, tracer.end[index] - tracer.start[index])
        return result

    return wrapper


class Instrumentation:
    """Installs the layer wrappers; :meth:`remove` restores everything."""

    def __init__(self, tracer: Tracer, roots: list[Path]) -> None:
        self.tracer = tracer
        self.roots = [str(root) for root in roots]
        self._undo: list[tuple[object, str, object]] = []

    def _owned_modules(self):
        for module in list(sys.modules.values()):
            path = getattr(module, "__file__", None) or ""
            if any(path.startswith(root) for root in self.roots):
                yield module

    def install(self) -> "Instrumentation":
        for module_name, attribute, naming, hook in LAYER_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._set(owner, method, _wrap(original, naming, hook, self.tracer))
                continue
            original = getattr(module, attribute)
            wrapper = _wrap(original, naming, hook, self.tracer)
            for holder in self._owned_modules():
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, name, wrapper)
        return self

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()
