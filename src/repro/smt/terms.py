"""Linear arithmetic terms for the SMT substrate.

The predicate grammar of the paper (section 4.1) is, after the
linearization performed by :mod:`repro.predicates.normalize`, a boolean
combination of *linear* constraints over integer- and real-sorted
variables.  This module provides the two building blocks:

* :class:`Var` -- a sorted first-order variable.
* :class:`LinExpr` -- an immutable linear expression ``sum(c_i * x_i) + c``
  with exact :class:`fractions.Fraction` coefficients.

Exact rational arithmetic is essential: the synthesized predicates are
verified with the solver, and floating point drift would make the
verification step unsound.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Mapping, Union

Scalar = Union[int, Fraction]

INT = "int"
REAL = "real"
_SORTS = (INT, REAL)


@dataclass(frozen=True, order=True)
class Var:
    """A sorted variable.

    Variables are compared structurally: two ``Var`` objects with the
    same name and sort are the same variable.  The synthesis pipeline
    derives names from SQL column names (e.g. ``lineitem.l_shipdate``),
    so structural identity gives the natural aliasing behaviour.

    Instances are hash-consed: constructing the same (name, sort) pair
    twice yields the *same object*, so structural equality implies
    identity and downstream identity-keyed caches (memoized CNF
    encoding, linearization) are sound.  The intern table holds weak
    references only -- variables no live formula mentions are
    collected, so one long process serving many queries does not
    accumulate dead queries' vocabularies.
    """

    name: str
    sort: str = INT

    _intern: ClassVar["weakref.WeakValueDictionary[tuple[str, str], Var]"] = (
        weakref.WeakValueDictionary()
    )

    def __new__(cls, name: str, sort: str = INT) -> "Var":
        if sort not in _SORTS:
            raise ValueError(f"unknown sort {sort!r}; expected one of {_SORTS}")
        key = (name, sort)
        cached = cls._intern.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        cls._intern[key] = self
        return self

    def __getnewargs__(self) -> tuple[str, str]:
        # Route unpickling through __new__ so deserialized variables
        # (e.g. from parallel bench workers) intern like fresh ones.
        return (self.name, self.sort)

    def __post_init__(self) -> None:
        if self.sort not in _SORTS:
            raise ValueError(f"unknown sort {self.sort!r}; expected one of {_SORTS}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.name}:{self.sort}"

    @property
    def is_int(self) -> bool:
        return self.sort == INT


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class LinExpr:
    """An immutable linear expression ``sum(coeffs[v] * v) + const``.

    Instances behave like values: arithmetic operators return new
    expressions and never mutate.  Zero coefficients are never stored,
    so equal expressions have equal coefficient maps.

    Expressions are hash-consed after normalisation: two structurally
    equal expressions are the same object, which lets the CNF encoder
    and linearization caches key on identity.  The intern table is
    weak, so expressions referenced by no live formula are collected.
    """

    __slots__ = ("coeffs", "const", "_hash", "__weakref__")

    _intern: "weakref.WeakValueDictionary[tuple, LinExpr]" = (
        weakref.WeakValueDictionary()
    )

    def __new__(
        cls,
        coeffs: Mapping[Var, Scalar] | None = None,
        const: Scalar = 0,
    ) -> "LinExpr":
        clean: dict[Var, Fraction] = {}
        if coeffs:
            for var, coeff in coeffs.items():
                frac = _as_fraction(coeff)
                if frac != 0:
                    clean[var] = frac
        key = (frozenset(clean.items()), _as_fraction(const))
        cached = cls._intern.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "const", key[1])
        object.__setattr__(self, "_hash", hash(key))
        cls._intern[key] = self
        return self

    def __init__(
        self,
        coeffs: Mapping[Var, Scalar] | None = None,
        const: Scalar = 0,
    ) -> None:
        # Construction (normalisation + interning) happens in __new__.
        pass

    def __reduce__(self):
        # Unpickled expressions re-enter the intern table via __new__.
        return (LinExpr, (self.coeffs, self.const))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("LinExpr is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def var(var: Var) -> "LinExpr":
        """The expression consisting of a single variable."""
        return LinExpr({var: 1})

    @staticmethod
    def const_expr(value: Scalar) -> "LinExpr":
        """A constant expression."""
        return LinExpr({}, value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def variables(self) -> set[Var]:
        return set(self.coeffs)

    def coeff(self, var: Var) -> Fraction:
        return self.coeffs.get(var, Fraction(0))

    def evaluate(self, assignment: Mapping[Var, Scalar]) -> Fraction:
        """Evaluate under a total assignment of the expression's variables."""
        total = self.const
        for var, coeff in self.coeffs.items():
            total += coeff * _as_fraction(assignment[var])
        return total

    def substitute(self, var: Var, replacement: "LinExpr") -> "LinExpr":
        """Replace ``var`` by a linear expression."""
        coeff = self.coeffs.get(var)
        if coeff is None:
            return self
        rest = {v: c for v, c in self.coeffs.items() if v != var}
        result = LinExpr(rest, self.const)
        return result + replacement * coeff

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "LinExpr | Scalar") -> "LinExpr":
        if isinstance(other, (int, Fraction)):
            return LinExpr(self.coeffs, self.const + _as_fraction(other))
        if not isinstance(other, LinExpr):
            return NotImplemented
        merged = dict(self.coeffs)
        for var, coeff in other.coeffs.items():
            merged[var] = merged.get(var, Fraction(0)) + coeff
        return LinExpr(merged, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr({v: -c for v, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other: "LinExpr | Scalar") -> "LinExpr":
        if isinstance(other, (int, Fraction)):
            return LinExpr(self.coeffs, self.const - _as_fraction(other))
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "LinExpr":
        return (-self) + other

    def __mul__(self, scalar: Scalar) -> "LinExpr":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        frac = _as_fraction(scalar)
        return LinExpr(
            {v: c * frac for v, c in self.coeffs.items()}, self.const * frac
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "LinExpr":
        frac = _as_fraction(scalar)
        if frac == 0:
            raise ZeroDivisionError("division of linear expression by zero")
        return self * (Fraction(1) / frac)

    # ------------------------------------------------------------------
    # Normalisation helpers
    # ------------------------------------------------------------------
    def scaled_integral(self) -> "LinExpr":
        """Scale by a positive rational so all coefficients are integers.

        The constant term is scaled by the same factor, so the zero set
        and sign of the expression are unchanged.  Used by the integer
        tightening and Fourier-Motzkin passes.
        """
        denoms = [c.denominator for c in self.coeffs.values()]
        denoms.append(self.const.denominator)
        lcm = 1
        for d in denoms:
            lcm = lcm * d // _gcd(lcm, d)
        if lcm == 1:
            return self
        return self * lcm

    def content(self) -> Fraction:
        """GCD of the variable coefficients (0 for constant expressions)."""
        g = 0
        for coeff in self.coeffs.values():
            g = _gcd(g, abs(coeff.numerator))
        return Fraction(g)

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LinExpr):
            return NotImplemented
        # Interning makes structurally equal expressions identical, so
        # this structural fallback only fires across intern tables
        # (e.g. objects revived by pickle mid-flight).
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = []
        for var in sorted(self.coeffs, key=lambda v: v.name):
            coeff = self.coeffs[var]
            if coeff == 1:
                parts.append(f"{var.name}")
            elif coeff == -1:
                parts.append(f"-{var.name}")
            else:
                parts.append(f"{coeff}*{var.name}")
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def linear_combination(terms: Iterable[tuple[Scalar, Var]], const: Scalar = 0) -> LinExpr:
    """Build ``sum(c * v for c, v in terms) + const``."""
    coeffs: dict[Var, Fraction] = {}
    for coeff, var in terms:
        coeffs[var] = coeffs.get(var, Fraction(0)) + _as_fraction(coeff)
    return LinExpr(coeffs, const)
