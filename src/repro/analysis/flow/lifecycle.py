"""SIA403: must-close along every path.

A leaked tracer file handle loses buffered spans, and a leaked file
handle holds its descriptor until the collector gets round to it.  The
syntactic linter cannot see "some path": this pass runs the resource
facts through the CFG, exceptional edges included.

*Acquisitions* are ``open(...)`` and ``install_file_tracer(...)``
calls.  Each call site becomes an abstract resource; the site is
*live* from the acquisition until a matching release reaches it on
that path:

* ``x.close()`` on a name bound to the site,
* leaving a ``with`` block whose context expression produced the site
  (the exit runs on the exceptional path too, mirroring runtime
  ``__exit__`` semantics),
* an *escape* -- the value is returned, yielded, passed to a call, or
  stored into an attribute/subscript/container.  Ownership moved
  somewhere this intraprocedural pass cannot see, so it stops
  tracking rather than guess.

A site still live in the state flowing into the function's exit block
is reported at its acquisition line: some normal or exceptional path
reaches function exit without releasing it.  ``try/finally: close`` is
clean by construction; suppress deliberate leaks (process-lifetime
handles) with ``# sia: allow(SIA403)``.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from .callgraph import FunctionInfo, Project
from .cfg import Test, WithExit, immediate_exprs
from .engine import FlowAnalysis, State, run_fixpoint
from .taint import _target_names

__all__ = ["analyze_lifecycle"]

#: State cell holding the set of may-live (unreleased) site keys.
_LIVE = "<live>"

_RELEASE_METHODS = frozenset({"close"})

_ACQUIRE_NAME_CALLS = frozenset({"open", "install_file_tracer"})

_KIND_LABEL = {
    "open": "file handle from open()",
    "install_file_tracer": "tracer from install_file_tracer()",
}


def _site_key(call: ast.Call) -> str:
    return f"{call.lineno}:{call.col_offset}"


def _acquisitions(expr: ast.expr) -> list[ast.Call]:
    """Acquisition calls anywhere inside ``expr``."""
    out: list[ast.Call] = []
    for node in ast.walk(expr):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ACQUIRE_NAME_CALLS:
            out.append(node)
    return out


def _acquisition_kind(call: ast.Call) -> str:
    func = call.func
    assert isinstance(func, ast.Name)
    return func.id


class _LifecycleState(FlowAnalysis):
    def __init__(self, func: FunctionInfo) -> None:
        self.func = func
        #: site key -> acquisition call node (for reporting).
        self.sites: dict[str, ast.Call] = {}

    def initial(self) -> State:
        return {_LIVE: frozenset()}

    # -- helpers --------------------------------------------------------
    def _register(self, expr: ast.expr) -> frozenset:
        """Record acquisition sites under ``expr``; returns their keys."""
        keys: list[str] = []
        for call in _acquisitions(expr):
            key = _site_key(call)
            self.sites[key] = call
            keys.append(key)
        return frozenset(keys)

    def _sites_of(self, expr: ast.expr | None, state: State) -> frozenset:
        """Site keys an expression's value may carry."""
        if expr is None:
            return frozenset()
        if isinstance(expr, ast.Name):
            return state.get(expr.id, frozenset())
        if isinstance(expr, ast.IfExp):
            return self._sites_of(expr.body, state) | self._sites_of(
                expr.orelse, state
            )
        if isinstance(expr, ast.Call):
            return self._register(expr)
        out: frozenset = frozenset()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                out |= self._sites_of(child, state)
        return out

    def _release(self, state: State, keys: frozenset) -> None:
        state[_LIVE] = state[_LIVE] - keys

    def _escapes_in(self, expr: ast.expr, state: State) -> frozenset:
        """Sites escaping via call arguments anywhere in ``expr``."""
        escaped: frozenset = frozenset()
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                for arg in [*node.args, *[k.value for k in node.keywords]]:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Name):
                            escaped |= state.get(sub.id, frozenset())
        return escaped

    # -- transfer -------------------------------------------------------
    def transfer(self, stmt: object, state: State) -> State:
        out = dict(state)
        out[_LIVE] = state.get(_LIVE, frozenset())

        if isinstance(stmt, Test):
            self._release(out, self._escapes_in(stmt.expr, out))
            return out
        if isinstance(stmt, WithExit):
            released: frozenset = frozenset()
            for item in stmt.node.items:
                released |= self._sites_of(item.context_expr, out)
                if item.optional_vars is not None:
                    for name in _target_names(item.optional_vars):
                        released |= out.get(name, frozenset())
            self._release(out, released)
            return out
        if isinstance(stmt, ast.ExceptHandler):
            if stmt.name:
                out[stmt.name] = frozenset()
            return out
        if not isinstance(stmt, ast.stmt):
            return out

        if isinstance(stmt, (ast.Return, ast.Expr)) and self._is_release(stmt):
            receiver = stmt.value.func.value  # type: ignore[union-attr]
            self._release(out, self._sites_of(receiver, out))
            return out

        # Escapes via call arguments happen before anything else.
        for expr in immediate_exprs(stmt):
            self._release(out, self._escapes_in(expr, out))

        if isinstance(stmt, ast.Assign):
            keys = self._sites_of(stmt.value, out)
            out[_LIVE] = out[_LIVE] | keys
            plain = all(
                isinstance(t, ast.Name) for t in stmt.targets
            )
            if plain:
                for target in stmt.targets:
                    for name in _target_names(target):
                        out[name] = keys
            else:
                # Attribute / subscript / destructuring store: the
                # value escapes this function's view.
                self._release(out, keys)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            keys = self._sites_of(stmt.value, out)
            out[_LIVE] = out[_LIVE] | keys
            if isinstance(stmt.target, ast.Name):
                out[stmt.target.id] = keys
            else:
                self._release(out, keys)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                keys = self._sites_of(item.context_expr, out)
                out[_LIVE] = out[_LIVE] | keys
                if item.optional_vars is not None and isinstance(
                    item.optional_vars, ast.Name
                ):
                    out[item.optional_vars.id] = keys
        elif isinstance(stmt, ast.Return):
            self._release(out, self._sites_of(stmt.value, out))
        elif isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, (ast.Yield, ast.YieldFrom)):
                value = stmt.value.value
                if value is not None:
                    self._release(out, self._sites_of(value, out))
            else:
                # Bare acquisition (``open(path)`` discarded):
                # nothing can ever release it -- live immediately.
                out[_LIVE] = out[_LIVE] | self._register(stmt.value)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out.pop(target.id, None)
        else:
            # Any other statement that contains an acquisition call
            # (e.g. ``for line in open(p):``) acquires without a
            # trackable binding.
            for expr in immediate_exprs(stmt):
                out[_LIVE] = out[_LIVE] | self._register(expr)
        return out

    def exc_state(self, stmt: object, pre: State, post: State) -> State:
        # Precision overrides for exceptional edges:
        #
        # * ``__exit__`` runs even when the with-body raised, so the
        #   WithExit release sticks on the re-raise path.
        # * A release call that itself raises leaves the resource in an
        #   unknown state; reporting it as a leak is pure noise.
        # * A ``with`` head raising means ``__enter__`` never finished:
        #   a generator-based context manager (install_file_tracer)
        #   acquired nothing, so its sites are not live on that path.
        if isinstance(stmt, WithExit):
            return post
        if isinstance(stmt, ast.stmt) and self._is_release(stmt):
            return post
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            out = dict(pre)
            dropped: frozenset = frozenset()
            for item in stmt.items:
                dropped |= self._sites_of(item.context_expr, pre)
            out[_LIVE] = pre.get(_LIVE, frozenset()) - dropped
            return out
        # A value already handed to a callee stays handed over when the
        # call raises -- the callee (or its cleanup) owns it now.
        escaped: frozenset = frozenset()
        for expr in immediate_exprs(stmt):
            escaped |= self._escapes_in(expr, pre)
        if escaped:
            out = dict(pre)
            out[_LIVE] = out.get(_LIVE, frozenset()) - escaped
            return out
        return pre

    @staticmethod
    def _is_release(stmt: ast.stmt) -> bool:
        return (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr in _RELEASE_METHODS
        )


def analyze_lifecycle(project: Project) -> list[Finding]:
    """Run the lifecycle pass over every function in the project."""
    findings: list[Finding] = []
    for func in project.all_functions():
        analysis = _LifecycleState(func)
        in_states = run_fixpoint(func.cfg, analysis)
        exit_state = in_states.get(func.cfg.exit)
        if exit_state is None:
            continue
        for key in sorted(exit_state.get(_LIVE, frozenset())):
            call = analysis.sites[key]
            kind = _acquisition_kind(call)
            label = _KIND_LABEL.get(kind, kind)
            findings.append(
                Finding(
                    file=str(func.module.path),
                    line=call.lineno,
                    col=call.col_offset + 1,
                    rule="SIA403",
                    message=(
                        f"{label} may not be released on all paths "
                        f"out of {func.name}()"
                    ),
                    pass_name="flow",
                )
            )
    return findings
