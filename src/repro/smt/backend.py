"""Two-tier tableau backend: float filter, exact certified confirmation.

The numeric core used to be a single hardwired Fraction simplex; this
module makes the tableau pluggable and adds the fast tier in front:

* :class:`TableauBackend` -- the structural protocol both tiers
  implement (``assert_atom`` + ``check``).  The exact Dutertre--de
  Moura implementation (:class:`repro.smt.simplex.Simplex`) and the
  epsilon-guarded float clone
  (:class:`repro.smt.floatsimplex.FloatSimplex`) are its two
  instances.
* :func:`check_tableau` -- the orchestrator every LRA feasibility
  check routes through (:func:`repro.smt.theory._lra_check`).  Mode
  ``off`` is the historical exact-only path.  In the filter modes the
  float tier runs first and its verdict is **advisory**:

  - float-UNSAT hands the suspected Farkas row set (conflict tags) to
    the exact tier, which re-derives the certificate from Fractions by
    solving just those constraints; a refuted suspicion falls back to
    the full exact solve.  Every surfaced ``TheoryConflict`` therefore
    carries an exact-Fraction Farkas witness -- the proof/certify
    layer never sees a float.
  - float-SAT is confirmed by snapping the candidate onto exact bound
    values and model-checking every constraint in Fractions (mode
    ``filter+trust-sat``), or conservatively re-solved exactly (mode
    ``filter``).

Mode selection threads down from :class:`repro.core.config.SiaConfig`
(``float_filter``) through ``Solver``; the
``SIA_FLOAT_FILTER`` environment variable force-overrides every
construction site (used by CI to run the tier-1 suite with the float
tier forced on and forced off).

Instrumentation: per-tier pivot/agreement/disagreement counters live
in :data:`repro.smt.stats.GLOBAL_COUNTERS` (so ``counters=True`` trace
spans and the bench JSON attribute work to the tier that spent it) and
tier latencies are recorded as ``smt.tier.*_ms`` timers in
:data:`repro.obs.metrics.GLOBAL_METRICS`.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Hashable, Mapping, Protocol, Sequence

from ..obs.clock import now as _clock_now
from ..obs.metrics import GLOBAL_METRICS
from .floatsimplex import (
    FloatConflict,
    FloatDelta,
    FloatSimplex,
    FloatTierGiveUp,
)
from .formula import EQ, LE, LT, Atom
from .simplex import DeltaRational, Simplex, TheoryConflict
from .stats import GLOBAL_COUNTERS
from .terms import Var

Tag = Hashable

__all__ = [
    "FLOAT_OFF",
    "FLOAT_FILTER",
    "FLOAT_TRUST_SAT",
    "FLOAT_MODES",
    "FLOAT_MODE_ENV",
    "TableauBackend",
    "check_tableau",
    "resolve_float_mode",
]

#: Exact-only: the historical single-tier path.
FLOAT_OFF = "off"
#: Float tier filters; float-SAT still re-solves exactly from scratch.
FLOAT_FILTER = "filter"
#: Additionally trust float-SAT *hints*: snap the candidate model onto
#: exact values and accept it once it model-checks in Fractions.
FLOAT_TRUST_SAT = "filter+trust-sat"

FLOAT_MODES = (FLOAT_OFF, FLOAT_FILTER, FLOAT_TRUST_SAT)

#: Environment override: forces the mode at every construction site.
FLOAT_MODE_ENV = "SIA_FLOAT_FILTER"

#: Denominator cap when rationalizing a float that snapped to no bound.
_SNAP_DENOMINATOR = 10**9


class TableauBackend(Protocol):
    """Structural protocol of one tableau tier.

    ``assert_atom`` installs ``atom.expr atom.op 0`` under ``tag`` and
    may raise the tier's conflict exception; ``check`` either returns
    a variable assignment or raises it.  The exact tier's assignment
    maps to :class:`DeltaRational`; the float tier's to
    :class:`FloatDelta` -- the orchestrator is the only place aware of
    both value domains.
    """

    def assert_atom(self, atom: Atom, tag: Tag) -> None: ...

    def check(self) -> Mapping[Var, object]: ...


def resolve_float_mode(mode: str | None) -> str:
    """Validate ``mode``, honoring the ``SIA_FLOAT_FILTER`` override.

    ``None`` means "caller has no opinion" and resolves to the env
    override or :data:`FLOAT_OFF`.
    """
    override = os.environ.get(FLOAT_MODE_ENV)
    if override:
        mode = override
    if mode is None:
        mode = FLOAT_OFF
    if mode not in FLOAT_MODES:
        raise ValueError(
            f"unknown float-filter mode {mode!r}; expected one of "
            f"{', '.join(FLOAT_MODES)}"
        )
    return mode


# ----------------------------------------------------------------------
# Exact tier
# ----------------------------------------------------------------------
def _exact_check(
    constraints: Sequence[tuple[Atom, Tag]],
) -> dict[Var, DeltaRational]:
    """One full exact-simplex feasibility run (raises TheoryConflict)."""
    simplex: TableauBackend = Simplex()
    for atom, tag in constraints:
        simplex.assert_atom(atom, tag)
    assignment = simplex.check()
    # The exact tier's values are DeltaRational by construction; the
    # cast is only narrowing what the protocol widened.
    return dict(assignment)  # type: ignore[arg-type]


def _timed_exact(
    constraints: Sequence[tuple[Atom, Tag]], timer: str
) -> dict[Var, DeltaRational]:
    start = _clock_now()
    try:
        return _exact_check(constraints)
    finally:
        GLOBAL_METRICS.timer(timer).record((_clock_now() - start) * 1000)


# ----------------------------------------------------------------------
# Verdict confirmation
# ----------------------------------------------------------------------
def _confirm_unsat(
    constraints: Sequence[tuple[Atom, Tag]], core: frozenset[Tag]
) -> None:
    """Re-derive a float conflict exactly, or return to signal refusal.

    Solves only the constraints the float tier named in its suspected
    Farkas row set.  If they really are infeasible the exact simplex
    raises :class:`TheoryConflict` whose certificate -- derived purely
    from Fractions -- is valid for the full constraint set (a conflict
    over a subset is a conflict over the whole).  Returning normally
    means the suspicion was refuted.
    """
    suspect = [(atom, tag) for atom, tag in constraints if tag in core]
    if not suspect:
        return
    simplex = Simplex()
    for atom, tag in suspect:
        simplex.assert_atom(atom, tag)
    simplex.check()


def _snap_value(
    value: FloatDelta, candidates: Sequence[DeltaRational]
) -> DeltaRational:
    """Exact value for a float cell: nearest asserted bound, else a
    nearby small rational.

    Nonbasic variables sit exactly on one of their bounds in a
    Dutertre--de Moura solution, and those bounds were asserted as
    exact rationals -- so snapping recovers the intended exact value
    whenever the float image is within rounding distance of one.
    """
    # The one sanctioned float-touching boundary of this module: the
    # float candidate is *compared* against exact bounds (never mixed
    # into them), and whatever leaves this function is a Fraction.
    for exact in candidates:
        if (
            abs(value.real - float(exact.real)) <= 1e-6  # sia: allow-float
            and abs(value.k - float(exact.k)) <= 1e-6  # sia: allow-float
        ):
            return exact
    real = Fraction(value.real).limit_denominator(_SNAP_DENOMINATOR)
    k = Fraction(value.k).limit_denominator(_SNAP_DENOMINATOR)
    return DeltaRational(real, k)


def _holds_symbolically(atom: Atom, value: DeltaRational) -> bool:
    """Whether ``value_of(expr) op 0`` holds for infinitesimal delta."""
    real, k = value.real, value.k
    if atom.op == EQ:
        return real == 0 and k == 0
    if atom.op == LT:
        return real < 0 or (real == 0 and k < 0)
    if atom.op == LE:
        return real < 0 or (real == 0 and k <= 0)
    raise ValueError(f"cannot evaluate op {atom.op!r}")  # pragma: no cover


def _confirm_sat(
    constraints: Sequence[tuple[Atom, Tag]],
    tableau: FloatSimplex,
    assignment: Mapping[Var, FloatDelta],
) -> dict[Var, DeltaRational] | None:
    """Exact model-check of a snapped float candidate.

    Every float value is converted to an exact :class:`DeltaRational`
    (preferring the variable's own asserted bound values) and every
    constraint is evaluated symbolically in Fractions.  Returns the
    exact model on success, ``None`` when any constraint fails --
    nothing float-valued survives into the result.
    """
    exact: dict[Var, DeltaRational] = {}
    for var, value in assignment.items():
        exact[var] = _snap_value(value, tableau.exact_bound_values(var))
    for atom, _tag in constraints:
        expr = atom.expr
        real = expr.const
        k = Fraction(0)
        for var, coeff in expr.coeffs.items():
            value = exact.get(var)
            if value is None:
                value = DeltaRational(Fraction(0))
                exact[var] = value
            real += coeff * value.real
            k += coeff * value.k
        if not _holds_symbolically(atom, DeltaRational(real, k)):
            return None
    return exact


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
def check_tableau(
    constraints: Sequence[tuple[Atom, Tag]],
    *,
    float_mode: str = FLOAT_OFF,
) -> dict[Var, DeltaRational]:
    """Feasibility of one LRA conjunction through the tier stack.

    Returns an exact delta-rational assignment or raises
    :class:`TheoryConflict` carrying an exact Farkas witness --
    identical contract to the historical direct-simplex path,
    whichever tier did the work.
    """
    if float_mode == FLOAT_OFF:
        return _exact_check(constraints)

    GLOBAL_COUNTERS.float_checks += 1
    start = _clock_now()
    conflict: FloatConflict | None = None
    candidate: dict[Var, FloatDelta] | None = None
    tableau = FloatSimplex()
    try:
        for atom, tag in constraints:
            tableau.assert_atom(atom, tag)
        candidate = tableau.check()
    except FloatConflict as suspected:
        conflict = suspected
    except FloatTierGiveUp:
        GLOBAL_COUNTERS.tier_fallbacks += 1
        GLOBAL_METRICS.timer("smt.tier.float_ms").record(
            (_clock_now() - start) * 1000
        )
        return _timed_exact(constraints, "smt.tier.fallback_ms")
    GLOBAL_METRICS.timer("smt.tier.float_ms").record(
        (_clock_now() - start) * 1000
    )

    if conflict is not None:
        confirm_start = _clock_now()
        try:
            _confirm_unsat(constraints, conflict.core)
        except TheoryConflict:
            GLOBAL_COUNTERS.float_unsat_confirmed += 1
            raise
        finally:
            GLOBAL_METRICS.timer("smt.tier.exact_ms").record(
                (_clock_now() - confirm_start) * 1000
            )
        # The exact tier refuted the suspected conflict: disagreement,
        # silently corrected by a full exact solve.
        GLOBAL_COUNTERS.tier_disagreements += 1
        GLOBAL_COUNTERS.tier_fallbacks += 1
        return _timed_exact(constraints, "smt.tier.fallback_ms")

    assert candidate is not None
    if float_mode == FLOAT_TRUST_SAT:
        confirm_start = _clock_now()
        model = _confirm_sat(constraints, tableau, candidate)
        GLOBAL_METRICS.timer("smt.tier.exact_ms").record(
            (_clock_now() - confirm_start) * 1000
        )
        if model is not None:
            GLOBAL_COUNTERS.float_sat_confirmed += 1
            return model
        # Candidate failed the exact model check: the float tier was
        # wrong (or merely imprecise); count it and re-solve exactly.
        GLOBAL_COUNTERS.tier_disagreements += 1
    GLOBAL_COUNTERS.tier_fallbacks += 1
    return _timed_exact(constraints, "smt.tier.fallback_ms")
