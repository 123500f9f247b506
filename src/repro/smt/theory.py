"""Linear integer arithmetic on top of the rational simplex.

Two standard ingredients:

* **Integer tightening** -- constraints whose variables are all
  integer-sorted are normalised to integer coefficients, divided by
  their content (coefficient gcd) and rounded: ``e < b`` becomes
  ``e <= ceil(b) - 1``, ``e <= b`` becomes ``e <= floor(b)``, and an
  equality whose content does not divide the constant is immediately
  infeasible.

* **Branch and bound** -- if the rational relaxation is feasible but
  assigns a fractional value ``v`` to an integer variable ``x``, the
  problem splits into ``x <= floor(v)`` and ``x >= ceil(v)``.

The conflict core of an integer-infeasible problem is the union of the
cores of both branches with the branching bounds removed; this is sound
because every integer point satisfies one of the two branch bounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Sequence

from .backend import check_tableau
from .formula import EQ, LE, LT, Atom
from .proof import FarkasCert, FarkasEntry, IntDivCert, SplitCert, TheoryCert
from .simplex import DeltaRational, Simplex, TheoryConflict, concrete_model
from .terms import LinExpr, Var

Tag = Hashable


class SolverBudgetError(Exception):
    """Branch-and-bound exceeded its node budget; result is unknown."""


@dataclass(frozen=True)
class _BranchTag:
    """Pseudo-tag for branching bounds.

    Branch tags are internal to branch and bound: each split frame
    removes its *own* two tags when merging its children's cores (the
    split certificate justifies the removal), so no branch tag ever
    reaches the conflict core surfaced to the SAT layer.
    """

    depth: int
    side: str

    @property
    def ref(self) -> int:
        """Stable identifier used by split certificates."""
        return self.depth * 2 + (1 if self.side == "ge" else 0)


def _is_pure_int(expr: LinExpr) -> bool:
    return all(var.is_int for var in expr.coeffs)


@functools.lru_cache(maxsize=262_144)
def tighten(atom: Atom) -> Atom | bool:
    """Integer-tighten an atom; returns True/False when it folds.

    Only applies to atoms over integer variables; mixed or real atoms
    are returned unchanged.  Memoised: the lazy DPLL(T) loop re-checks
    the same atoms on every round, and the exact-rational
    normalisation dominated profiles before caching.
    """
    expr = atom.expr
    if expr.is_constant:
        return atom.holds(expr.const)
    if not _is_pure_int(expr):
        return atom
    expr = expr.scaled_integral()
    content = expr.content()
    if content == 0:
        return atom.holds(expr.const)
    homogeneous = LinExpr(expr.coeffs)  # drop constant
    bound = -expr.const  # constraint is homogeneous op bound

    if atom.op == EQ:
        if bound % content != 0:
            return False
        return Atom(homogeneous / content - bound / content, EQ)
    if atom.op == LT:
        # homogeneous < bound  <=>  homogeneous <= ceil(bound) - 1
        tight = math.ceil(bound) - 1
        op = LE
    elif atom.op == LE:
        tight = math.floor(bound)
        op = LE
    else:
        raise ValueError(f"cannot tighten op {atom.op!r}")
    # Divide by content: h <= t  <=>  h/c <= floor(t/c)
    tight = math.floor(Fraction(tight) / content)
    return Atom(homogeneous / content - tight, op)


def check_conjunction(
    constraints: Sequence[tuple[Atom, Tag]],
    *,
    max_nodes: int = 4000,
    tableau: Simplex | None = None,
) -> dict[Var, Fraction]:
    """Feasibility of a conjunction over mixed integer/real variables.

    Returns a model mapping every variable of the constraints to a
    rational value (integral for integer-sorted variables).  Raises
    :class:`TheoryConflict` with a core of input tags when infeasible,
    or :class:`SolverBudgetError` when branch and bound gives up.

    Every rational relaxation runs on ``tableau`` through
    :func:`repro.smt.backend.check_tableau`: a solver passes its own
    incremental tableau, which is synced to ``constraints`` (plus the
    branch bounds) rather than rebuilt; without one a fresh tableau is
    used.  The model holds exactly the variables of ``constraints``.
    """
    prepared: list[tuple[Atom, Tag]] = []
    orig_of_tag: dict[Tag, Atom] = {}
    for atom, tag in constraints:
        orig_of_tag.setdefault(tag, atom)
        tightened = tighten(atom)
        if tightened is True:
            continue
        if tightened is False:
            raise TheoryConflict(
                frozenset([tag]), cert=_refute_folded(atom, tag)
            )
        prepared.append((tightened, tag))
    if tableau is None:
        tableau = Simplex()
    return _branch_and_bound(prepared, max_nodes, orig_of_tag, tableau)


def _refute_folded(atom: Atom, tag: Tag) -> TheoryCert:
    """Certificate for an atom :func:`tighten` folded to False.

    Either the atom is a false constant (one-entry Farkas) or it is an
    integer equality whose coefficient gcd does not divide the constant
    (divisibility refutation).
    """
    expr = atom.expr
    if expr.is_constant:
        sign = (
            Fraction(-1)
            if atom.op == EQ and expr.const < 0
            else Fraction(1)
        )
        entry = FarkasEntry(
            coeff=sign,
            lit=tag if isinstance(tag, int) else None,
            orig_expr=expr,
            orig_op=atom.op,
            used_expr=expr,
            used_op=atom.op,
        )
        return FarkasCert((entry,))
    return IntDivCert(lit=tag if isinstance(tag, int) else 0, expr=expr)


def _leaf_cert(
    conflict: TheoryConflict, orig_of_tag: dict[Tag, Atom]
) -> TheoryCert | None:
    """Wrap a simplex conflict's Farkas witness into a certificate leaf."""
    if conflict.cert is not None:
        return conflict.cert  # pragma: no cover - defensive
    if conflict.farkas is None:
        return None  # pragma: no cover - defensive
    entries: list[FarkasEntry] = []
    for coeff, tag, expr, op in conflict.farkas:
        if isinstance(tag, _BranchTag):
            entries.append(
                FarkasEntry(
                    coeff=coeff,
                    lit=None,
                    branch=tag.ref,
                    orig_expr=expr,
                    orig_op=op,
                    used_expr=expr,
                    used_op=op,
                )
            )
            continue
        orig = orig_of_tag.get(tag)
        orig_expr, orig_op = (
            (orig.expr, orig.op) if orig is not None else (expr, op)
        )
        entries.append(
            FarkasEntry(
                coeff=coeff,
                lit=tag if isinstance(tag, int) else None,
                orig_expr=orig_expr,
                orig_op=orig_op,
                used_expr=expr,
                used_op=op,
            )
        )
    return FarkasCert(tuple(entries))


def _concrete(
    assignment: dict[Var, DeltaRational],
    variables: Iterable[Var],
    constraints: Iterable[tuple[Atom, Tag]],
) -> dict[Var, Fraction]:
    """Concrete model of ``variables`` from a delta-rational assignment.

    The tableau may hold variables of earlier rounds; only the round's
    own variables enter the model, and delta is chosen against the
    round's own constraints.
    """
    strict_exprs: list[LinExpr] = []
    nonstrict_exprs: list[LinExpr] = []
    for atom, _tag in constraints:
        if atom.op == LT:
            strict_exprs.append(atom.expr)
        elif atom.op == LE:
            nonstrict_exprs.append(atom.expr)
    own = {var: assignment[var] for var in variables}
    return concrete_model(own, strict_exprs, nonstrict_exprs)


def _branch_and_bound(
    base: list[tuple[Atom, Tag]],
    max_nodes: int,
    orig_of_tag: dict[Tag, Atom],
    tableau: Simplex,
) -> dict[Var, Fraction]:
    """Iterative depth-first branch and bound on one tableau.

    Every node syncs ``tableau`` to ``base`` plus its branch bounds and
    re-checks from the warm basis; the base keys are already asserted,
    so a node retracts and asserts only the branch bounds that differ.

    An explicit stack (rather than recursion) keeps deep branching
    chains -- e.g. thin rational slivers with no integer points -- from
    blowing the interpreter's recursion limit.  When a subproblem is
    integer-infeasible, the conflict core is the union of both
    branches' cores with *that split's* branch bounds removed (every
    integer point satisfies one of the two bounds); branch tags of
    enclosing splits stay in the core until their own frame merges
    them, so the surfaced core never silently drops a bound it depends
    on.  Every conflict carries a composed certificate: Farkas leaves
    from the simplex joined by :class:`~repro.smt.proof.SplitCert`
    nodes at each exhausted split.
    """
    variables = {var for atom, _ in base for var in atom.expr.coeffs}
    # Each stack frame: branch constraints, parent frame index, the
    # side of the parent's split it explores, accumulated child
    # (core, cert, side) triples, and the split it opened (if any).
    frames: list[dict] = [
        {"extra": [], "parent": -1, "side": "", "cores": [], "pending": 2,
         "split": None}
    ]
    stack: list[int] = [0]
    nodes = 0

    def compose(frame: dict) -> tuple[frozenset[Tag], TheoryCert | None]:
        """Merge both children of an exhausted split frame."""
        branch_var, floor_v, le_tag, ge_tag = frame["split"]
        by_side = {side: cert for _, cert, side in frame["cores"]}
        merged = frozenset(
            tag
            for child_core, _, _ in frame["cores"]
            for tag in child_core
        ) - {le_tag, ge_tag}
        cert: TheoryCert | None = None
        if by_side.get("le") is not None and by_side.get("ge") is not None:
            cert = SplitCert(
                var=branch_var,
                floor=floor_v,
                le_ref=le_tag.ref,
                ge_ref=ge_tag.ref,
                le_cert=by_side["le"],
                ge_cert=by_side["ge"],
            )
        return merged, cert

    def fail_upward(
        index: int, core: frozenset[Tag], cert: TheoryCert | None
    ) -> None:
        """Record a failed frame; raise when the root is exhausted."""
        while True:
            frame = frames[index]
            parent = frame["parent"]
            if parent < 0:
                raise TheoryConflict(
                    frozenset(
                        tag for tag in core if not isinstance(tag, _BranchTag)
                    ),
                    cert=cert,
                )
            pframe = frames[parent]
            pframe["cores"].append((core, cert, frame["side"]))
            pframe["pending"] -= 1
            if pframe["pending"] > 0:
                return
            core, cert = compose(pframe)
            index = parent

    while stack:
        if nodes >= max_nodes:
            raise SolverBudgetError("branch-and-bound node budget exhausted")
        nodes += 1
        index = stack.pop()
        frame = frames[index]
        constraints = base + frame["extra"]
        try:
            assignment = check_tableau(tableau, constraints)
        except TheoryConflict as conflict:
            leaf = _leaf_cert(conflict, orig_of_tag)
            if frame["parent"] < 0:
                conflict.cert = leaf
                raise
            fail_upward(index, conflict.core, leaf)
            continue
        model = _concrete(assignment, variables, constraints)
        branch_var, value = _fractional_int_var(model)
        if branch_var is None:
            return model
        floor_v = math.floor(value)
        le_tag = _BranchTag(nodes, "le")
        ge_tag = _BranchTag(nodes, "ge")
        low = (Atom(LinExpr.var(branch_var) - floor_v, LE), le_tag)
        high = (Atom((floor_v + 1) - LinExpr.var(branch_var), LE), ge_tag)
        frame["pending"] = 2
        frame["cores"] = []
        frame["split"] = (branch_var, floor_v, le_tag, ge_tag)
        for (atom, tag), side in ((high, "ge"), (low, "le")):
            frames.append(
                {"extra": frame["extra"] + [(atom, tag)], "parent": index,
                 "side": side, "cores": [], "pending": 2, "split": None}
            )
            stack.append(len(frames) - 1)
    # All branches failed; the root's fail_upward raised already --
    # reaching here means the root itself was the failing frame.
    raise TheoryConflict(frozenset())  # pragma: no cover - defensive


def _fractional_int_var(
    model: dict[Var, Fraction],
) -> tuple[Var | None, Fraction]:
    """The integer variable whose value is most fractional, if any."""
    best: tuple[Fraction, Var, Fraction] | None = None
    for var, value in sorted(model.items(), key=lambda item: item[0].name):
        if not var.is_int or value.denominator == 1:
            continue
        frac = value - math.floor(value)
        distance = abs(frac - Fraction(1, 2))
        if best is None or distance < best[0]:
            best = (distance, var, value)
    if best is None:
        return None, Fraction(0)
    return best[1], best[2]
