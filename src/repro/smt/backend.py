"""The tableau entry point of the theory layer.

:func:`check_tableau` is the one function every LRA feasibility check
passes through (:mod:`repro.smt.theory`), so a tracer that wraps it by
name times the whole tableau layer.  The tableau is the owning solver's
incremental exact :class:`~repro.smt.simplex.Simplex`: a theory round
hands it the round's constraint set, which is diffed against what is
already asserted before the check restarts from the previous basis.
Verdicts are exact: a model is a delta-rational assignment and every
:class:`~repro.smt.simplex.TheoryConflict` carries a Fraction Farkas
witness.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from .formula import Atom
from .simplex import DeltaRational, Simplex
from .terms import Var

Tag = Hashable

__all__ = ["check_tableau"]


def check_tableau(
    tableau: Simplex,
    constraints: Sequence[tuple[Atom, Tag]],
) -> dict[Var, DeltaRational]:
    """Feasibility of ``tableau`` once its bounds are ``constraints``.

    ``constraints`` replaces the asserted set (:meth:`Simplex.sync`).
    Returns a delta-rational assignment or raises
    :class:`~repro.smt.simplex.TheoryConflict`.
    """
    tableau.sync(constraints)
    return tableau.check()
