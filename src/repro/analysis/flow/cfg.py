"""Intraprocedural control-flow graphs over Python ``ast``.

The syntactic linter (:mod:`repro.analysis.lint`) sees one statement at
a time; the flow analyses (SIA401/402/403) need *paths*: a float that
is acquired on one line and sinks three branches later, a scope that is
retracted on the happy path but leaks through an ``except``.  This
module builds the graph those analyses run on.

Design points:

* **One leaf statement per block.**  The analyzed functions are small
  (this is a linter, not a compiler backend), so the simplicity of
  block == statement beats basic-block packing.  Synthetic blocks
  (entry, exit, joins) carry ``stmt=None``; structured events that are
  not statements carry marker objects (:class:`Test` for a branch
  condition, :class:`WithExit` for leaving a ``with`` block).

* **Exceptional edges are explicit.**  Any statement that *can raise*
  (contains a call, a ``raise``, an ``assert``, or a subscript) gets an
  ``EXC``-labelled edge to the innermost exception continuation: the
  ``except`` handler entries and/or the ``finally`` entry of the
  enclosing ``try``, or the function exit.  Analyses propagate the
  *pre*-state along these edges -- the statement's effect may not have
  happened when the exception fired.

* **``finally`` is built once and shared.**  Normal completion, every
  handler, and early ``return`` all route through the same ``finally``
  subgraph, whose end has a normal edge to the code after the ``try``
  and an exceptional edge onward (the re-raise path).  This
  over-approximates the path set (a normal entry appears able to leave
  via the re-raise edge), which is sound for the may-analyses built on
  top: extra paths can only add findings for states that genuinely
  reach the ``finally``.

* **``return``/``break``/``continue`` respect cleanups.**  An early
  exit inside ``try ... finally`` or a ``with`` block routes through
  the ``finally`` entry / the ``with`` exit instead of jumping
  straight out -- the single most important edges for the must-close
  analysis (SIA403), whose canonical clean patterns are ``handle =
  open(...); try: ... finally: handle.close()`` and ``with
  open(...) as f: return f.read()``.  A cleanup's continuation edge
  toward the exit (or the next outer cleanup) exists only when a
  ``return`` actually routed through it, so normal completions do not
  grow phantom paths that skip later releases.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["Block", "CFG", "Test", "WithExit", "build_cfg", "NORM", "EXC"]

NORM = "norm"
EXC = "exc"


class Test:
    """Marker: evaluation of a branch/loop condition expression."""

    __test__ = False  # not a pytest class, despite the name
    __slots__ = ("expr",)

    def __init__(self, expr: ast.expr) -> None:
        self.expr = expr


class WithExit:
    """Marker: leaving a ``with`` block (``__exit__`` runs here)."""

    __slots__ = ("node",)

    def __init__(self, node: ast.With | ast.AsyncWith) -> None:
        self.node = node


#: Statements/markers a CFG block can carry.
BlockStmt = object


@dataclass
class Block:
    """One CFG node: a leaf statement (or marker) plus labelled edges."""

    bid: int
    stmt: BlockStmt | None = None
    succs: list[tuple[int, str]] = field(default_factory=list)


class CFG:
    """A single function's (or module body's) control-flow graph."""

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.entry = self.new_block().bid
        self.exit = self.new_block().bid

    def new_block(self, stmt: BlockStmt | None = None) -> Block:
        block = Block(len(self.blocks), stmt)
        self.blocks.append(block)
        return block

    def edge(self, src: int, dst: int, kind: str = NORM) -> None:
        if (dst, kind) not in self.blocks[src].succs:
            self.blocks[src].succs.append((dst, kind))

    def statements(self) -> list[tuple[Block, BlockStmt]]:
        """Every non-synthetic block paired with its statement."""
        return [(b, b.stmt) for b in self.blocks if b.stmt is not None]


def immediate_exprs(stmt: BlockStmt | None) -> list[ast.expr]:
    """Expressions evaluated *at* a block, not in nested suites.

    Compound statements land in CFG blocks as their own heads (``for``
    evaluates its iterable there, ``with`` its context managers), but
    their suite statements have their own blocks -- walking the whole
    node would double-count the body.  Nested ``def``/``class`` bodies
    are likewise excluded (they get their own CFGs); only decorators
    and default expressions are evaluated at the definition site.
    """
    if isinstance(stmt, Test):
        return [stmt.expr]
    if isinstance(stmt, WithExit) or stmt is None:
        return []
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = stmt.args
        return [
            *stmt.decorator_list,
            *[d for d in args.defaults],
            *[d for d in args.kw_defaults if d is not None],
        ]
    if isinstance(stmt, ast.ClassDef):
        return [*stmt.decorator_list, *stmt.bases, *[k.value for k in stmt.keywords]]
    if isinstance(stmt, ast.AnnAssign):
        # The annotation is not evaluated in function bodies (and
        # ``x: list[Point] = []`` must not look like it can raise).
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.stmt):
        # Simple statements carry no nested suites; every child
        # expression is evaluated here.
        return [child for child in ast.iter_child_nodes(stmt)
                if isinstance(child, ast.expr)]
    return []


def _can_raise(node: BlockStmt) -> bool:
    """Whether executing ``node`` may transfer control exceptionally.

    Checks only the expressions evaluated *at* the block
    (:func:`immediate_exprs`) -- a ``for`` head whose body contains
    calls does not itself raise.
    """
    if isinstance(node, WithExit):
        return True  # __exit__ is a call
    if isinstance(node, (ast.Raise, ast.Assert)):
        return True
    for expr in immediate_exprs(node):
        for sub in ast.walk(expr):
            if isinstance(sub, (ast.Call, ast.Subscript)):
                return True
    return False


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self.current: int | None = self.cfg.entry
        # Innermost-last stack of exception continuations: each entry is
        # the list of block ids an in-flight exception may reach next.
        self.exc_targets: list[list[int]] = [[self.cfg.exit]]
        # (break target, continue target) per enclosing loop.
        self.loops: list[tuple[int, int]] = []
        # Entries of cleanup suites (`finally` bodies and `with` exits)
        # currently open around the point being built; early exits
        # route through the innermost one.
        self.finallies: list[int] = []
        # Cleanup entries an early `return` actually routed through;
        # only these get a continuation edge toward the function exit
        # (an unconditional edge would fabricate paths that skip the
        # releases between the cleanup and the real exit).
        self.return_routed: set[int] = set()

    # -- plumbing ------------------------------------------------------
    def _exc_edges(self, bid: int, stmt: BlockStmt) -> None:
        if _can_raise(stmt):
            for target in self.exc_targets[-1]:
                self.cfg.edge(bid, target, EXC)

    def _leaf(self, stmt: BlockStmt) -> int:
        block = self.cfg.new_block(stmt)
        if self.current is not None:
            self.cfg.edge(self.current, block.bid)
        self._exc_edges(block.bid, stmt)
        self.current = block.bid
        return block.bid

    def _early_exit_target(self, default: int) -> int:
        """Where return/break/continue actually goes (finally first)."""
        if self.finallies:
            return self.finallies[-1]
        return default

    def build(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            if self.current is None:
                break  # statically unreachable tail
            self._stmt(stmt)

    # -- statement dispatch --------------------------------------------
    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._if(stmt)
        elif isinstance(stmt, ast.While):
            self._while(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._for(stmt)
        elif isinstance(stmt, ast.Try):
            self._try(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt)
        elif isinstance(stmt, ast.Return):
            bid = self._leaf(stmt)
            if self.finallies:
                self.cfg.edge(bid, self.finallies[-1])
                self.return_routed.update(self.finallies)
            else:
                self.cfg.edge(bid, self.cfg.exit)
            self.current = None
        elif isinstance(stmt, ast.Raise):
            self._leaf(stmt)
            self.current = None
        elif isinstance(stmt, ast.Break):
            if self.loops:
                bid = self._leaf(stmt)
                self.cfg.edge(bid, self._early_exit_target(self.loops[-1][0]))
            self.current = None
        elif isinstance(stmt, ast.Continue):
            if self.loops:
                bid = self._leaf(stmt)
                self.cfg.edge(bid, self._early_exit_target(self.loops[-1][1]))
            self.current = None
        elif isinstance(stmt, ast.Match):
            self._match(stmt)
        else:
            # Leaf: simple statements, plus nested def/class (their
            # bodies get their own CFGs; here they just bind a name).
            self._leaf(stmt)

    def _if(self, node: ast.If) -> None:
        test = self._leaf(Test(node.test))
        join = self.cfg.new_block()
        self.current = test
        self.build(node.body)
        if self.current is not None:
            self.cfg.edge(self.current, join.bid)
        self.current = test
        self.build(node.orelse)
        if self.current is not None:
            self.cfg.edge(self.current, join.bid)
        self.current = join.bid if any(
            (join.bid, NORM) in b.succs for b in self.cfg.blocks
        ) else None

    def _while(self, node: ast.While) -> None:
        head = self._leaf(Test(node.test))
        after = self.cfg.new_block()
        self.loops.append((after.bid, head))
        self.current = head
        self.build(node.body)
        if self.current is not None:
            self.cfg.edge(self.current, head)
        self.loops.pop()
        # Loop condition false: fall through the else suite to after.
        self.current = head
        self.build(node.orelse)
        if self.current is not None:
            self.cfg.edge(self.current, after.bid)
        self.current = after.bid

    def _for(self, node: ast.For | ast.AsyncFor) -> None:
        head = self._leaf(node)  # evaluates iter, binds target per round
        after = self.cfg.new_block()
        self.loops.append((after.bid, head))
        self.current = head
        self.build(node.body)
        if self.current is not None:
            self.cfg.edge(self.current, head)
        self.loops.pop()
        self.current = head
        self.build(node.orelse)
        if self.current is not None:
            self.cfg.edge(self.current, after.bid)
        self.current = after.bid

    def _match(self, node: ast.Match) -> None:
        subject = self._leaf(Test(node.subject))
        join = self.cfg.new_block()
        for case in node.cases:
            self.current = subject
            self.build(case.body)
            if self.current is not None:
                self.cfg.edge(self.current, join.bid)
        # No case may match at all.
        self.cfg.edge(subject, join.bid)
        self.current = join.bid

    def _with(self, node: ast.With | ast.AsyncWith) -> None:
        entry = self._leaf(node)  # evaluates contexts, binds `as` names
        wexit = self.cfg.new_block(WithExit(node))
        # Exceptions inside the body reach __exit__ first, then (if
        # re-raised) the enclosing continuation; ``return`` inside the
        # body likewise runs __exit__ before leaving, so the with exit
        # joins the cleanup stack.
        self.exc_targets.append([wexit.bid])
        self.finallies.append(wexit.bid)
        self.current = entry
        self.build(node.body)
        self.finallies.pop()
        self.exc_targets.pop()
        if self.current is not None:
            self.cfg.edge(self.current, wexit.bid)
        for target in self.exc_targets[-1]:
            self.cfg.edge(wexit.bid, target, EXC)
        if wexit.bid in self.return_routed:
            outer = self.finallies[-1] if self.finallies else self.cfg.exit
            self.cfg.edge(wexit.bid, outer)
        self.current = wexit.bid

    def _try(self, node: ast.Try) -> None:
        after = self.cfg.new_block()
        finally_entry = (
            self.cfg.new_block().bid if node.finalbody else None
        )
        handler_entries = [
            self.cfg.new_block(handler).bid for handler in node.handlers
        ]

        # Body: exceptions may match any handler, or (unmatched / raised
        # during matching) fall through to finally / the outer context.
        body_exc = list(handler_entries)
        if finally_entry is not None:
            body_exc.append(finally_entry)
        elif not handler_entries:
            body_exc.extend(self.exc_targets[-1])
        self.exc_targets.append(body_exc)
        if finally_entry is not None:
            self.finallies.append(finally_entry)
        body_entry = self.current
        self.build(node.body)
        body_end = self.current
        # The else suite runs iff the body completed; its exceptions are
        # *not* caught by this try's handlers.
        self.exc_targets.pop()
        self.exc_targets.append(
            [finally_entry] if finally_entry is not None
            else list(self.exc_targets[-1])
        )
        self.current = body_end
        if body_end is not None:
            self.build(node.orelse)
        normal_end = self.current
        self.exc_targets.pop()

        # Handlers: their own exceptions go to finally / outward.
        handler_exc = (
            [finally_entry] if finally_entry is not None
            else list(self.exc_targets[-1])
        )
        handler_ends: list[int] = []
        for entry in handler_entries:
            self.exc_targets.append(handler_exc)
            self.current = entry
            handler_node = self.cfg.blocks[entry].stmt
            assert isinstance(handler_node, ast.ExceptHandler)
            self.build(handler_node.body)
            self.exc_targets.pop()
            if self.current is not None:
                handler_ends.append(self.current)

        if finally_entry is not None:
            self.finallies.pop()
            # All completions converge on the shared finally suite.
            for end in [normal_end, *handler_ends]:
                if end is not None:
                    self.cfg.edge(end, finally_entry)
            self.exc_targets.append(list(self.exc_targets[-1]))
            self.current = finally_entry
            self.build(node.finalbody)
            self.exc_targets.pop()
            if self.current is not None:
                # Normal continuation, plus the re-raise path onward.
                # A `return` that routed through this finally continues
                # to the next outer cleanup (or the function exit).
                self.cfg.edge(self.current, after.bid)
                for target in self.exc_targets[-1]:
                    self.cfg.edge(self.current, target, EXC)
                if finally_entry in self.return_routed:
                    outer = (
                        self.finallies[-1]
                        if self.finallies
                        else self.cfg.exit
                    )
                    self.cfg.edge(self.current, outer)
        else:
            for end in [normal_end, *handler_ends]:
                if end is not None:
                    self.cfg.edge(end, after.bid)
        self.current = after.bid


def build_cfg(
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module,
) -> CFG:
    """Build the CFG of one function body (or a module's top level)."""
    builder = _Builder()
    builder.build(list(node.body))
    if builder.current is not None:
        builder.cfg.edge(builder.current, builder.cfg.exit)
    return builder.cfg
