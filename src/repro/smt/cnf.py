"""Tseitin conversion of NNF formulas to CNF clauses.

The DPLL(T) driver (:mod:`repro.smt.solver`) works on a propositional
skeleton: every arithmetic :class:`~repro.smt.formula.Atom` and every
:class:`~repro.smt.formula.BVar` is mapped to a positive SAT variable,
and internal ``And``/``Or`` nodes receive fresh definition variables.

Literals use the classic DIMACS convention: the positive literal of SAT
variable ``v`` is ``v`` and its negation is ``-v``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .formula import FALSE, TRUE, And, Atom, BVar, Formula, Not, Or


@dataclass
class CnfResult:
    """Output of the Tseitin encoding.

    Attributes:
        clauses: CNF clauses over SAT variables ``1..num_vars``.
        num_vars: number of SAT variables allocated.
        atom_of_var: maps a SAT variable to its Atom/BVar, when the
            variable encodes a theory atom or named boolean (definition
            variables of internal nodes are absent).
        var_of_atom: inverse map.
        trivially_false: the input was constant FALSE.
    """

    clauses: list[list[int]] = field(default_factory=list)
    num_vars: int = 0
    atom_of_var: dict[int, Atom | BVar] = field(default_factory=dict)
    var_of_atom: dict[Atom | BVar, int] = field(default_factory=dict)
    trivially_false: bool = False


class CnfBuilder:
    """Incremental Tseitin encoder.

    Multiple formulas can be asserted against a shared atom map, which
    is what the lazy SMT loop needs to add blocking clauses that talk
    about the same atoms as the original assertion.
    """

    def __init__(self) -> None:
        self.result = CnfResult()
        # Memoized definition literals for internal And/Or nodes, keyed
        # on interned node identity.  Sound because _encode emits the
        # *full* Tseitin equivalence (def <-> node), so the literal can
        # stand for the node in any later assertion against this
        # builder.  Turns re-encoding of shared sub-formulas (an
        # enumerator asserts many formulas sharing structure) into a
        # dictionary hit.
        self._def_cache: dict[Formula, int] = {}

    # ------------------------------------------------------------------
    def fresh_var(self) -> int:
        self.result.num_vars += 1
        return self.result.num_vars

    def var_for(self, leaf: Atom | BVar) -> int:
        """SAT variable encoding an atom or named boolean, interned."""
        var = self.result.var_of_atom.get(leaf)
        if var is None:
            var = self.fresh_var()
            self.result.var_of_atom[leaf] = var
            self.result.atom_of_var[var] = leaf
        return var

    def add_clause(self, lits: list[int]) -> None:
        self.result.clauses.append(lits)

    # ------------------------------------------------------------------
    def assert_formula(self, formula: Formula) -> None:
        """Assert that ``formula`` (any shape; it is NNF-ed here) holds."""
        from .formula import to_nnf

        nnf = to_nnf(formula)
        if nnf is TRUE:
            return
        if nnf is FALSE:
            self.result.trivially_false = True
            self.add_clause([])
            return
        root = self._encode(nnf)
        self.add_clause([root])

    def _encode(self, formula: Formula) -> int:
        """Encode an NNF node, returning the literal that represents it."""
        if isinstance(formula, Atom):
            # Canonicalise complementary atoms onto one SAT variable:
            # `e <= 0` and `-e < 0` are each other's negations.
            neg = formula.negated()
            if neg in self.result.var_of_atom:
                return -self.result.var_of_atom[neg]
            return self.var_for(formula)
        if isinstance(formula, BVar):
            return self.var_for(formula)
        if isinstance(formula, Not):
            # NNF guarantees the argument is a leaf.
            return -self._encode(formula.arg)
        if isinstance(formula, And):
            cached = self._def_cache.get(formula)
            if cached is not None:
                return cached
            lits = [self._encode(arg) for arg in formula.args]
            out = self.fresh_var()
            for lit in lits:
                self.add_clause([-out, lit])
            self.add_clause([out] + [-lit for lit in lits])
            self._def_cache[formula] = out
            return out
        if isinstance(formula, Or):
            cached = self._def_cache.get(formula)
            if cached is not None:
                return cached
            lits = [self._encode(arg) for arg in formula.args]
            out = self.fresh_var()
            self.add_clause([-out] + lits)
            for lit in lits:
                self.add_clause([out, -lit])
            self._def_cache[formula] = out
            return out
        raise TypeError(f"cannot encode formula node {type(formula).__name__}")


def encode(formula: Formula) -> CnfResult:
    """One-shot encoding of a single formula."""
    builder = CnfBuilder()
    builder.assert_formula(formula)
    return builder.result
