"""Findings-as-data for the static analysis subsystem.

Every check in :mod:`repro.analysis` reports :class:`Finding` records
with a *stable* rule identifier (``SIA001`` ...).  The identifiers are
part of the tool's public contract: CI annotations, pragma suppressions
and the fixture tests all key on them, so they must never be renumbered
-- retire an identifier rather than reuse it.

The catalog is split in three bands:

* ``SIA0xx`` -- codebase lint rules (AST-level, :mod:`repro.analysis.lint`),
* ``SIA1xx`` -- structural invariants of live IR trees
  (:mod:`repro.analysis.invariants`),
* ``SIA2xx`` -- semantic soundness obligations discharged through the
  SMT solver (:mod:`repro.analysis.soundness`),
* ``SIA3xx`` -- solver-run audits: defects found while independently
  checking proof logs (:mod:`repro.analysis.certify`),
* ``SIA4xx`` -- interprocedural dataflow findings
  (:mod:`repro.analysis.flow`): facts that require following paths
  through the CFG and calls across modules,
* ``SIA5xx`` -- concurrency-safety findings
  (:mod:`repro.analysis.concurrency`): shared-state escape, fork
  inheritance, lock discipline and the snapshot/delta protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RuleInfo:
    """Catalog entry for one analysis rule."""

    rule_id: str
    title: str
    hint: str


# The rule catalog.  Keep in sync with docs/INTERNALS.md.
RULE_CATALOG: dict[str, RuleInfo] = {
    info.rule_id: info
    for info in (
        RuleInfo(
            "SIA001",
            "float literal in exact-arithmetic zone",
            "use int or fractions.Fraction; floats break solver soundness",
        ),
        RuleInfo(
            "SIA002",
            "float() cast at an unsanctioned boundary",
            "keep values exact, or mark a documented crossing with "
            "'# sia: allow-float'",
        ),
        RuleInfo(
            "SIA003",
            "==/!= comparison on a float operand",
            "exact equality on floats is meaningless; compare Fractions "
            "or use an explicit tolerance outside the exact zone",
        ),
        RuleInfo(
            "SIA004",
            "eval()/exec() call",
            "construct values explicitly; dynamic evaluation is banned "
            "project-wide",
        ),
        RuleInfo(
            "SIA005",
            "bare except clause",
            "catch the specific exception types; bare excepts swallow "
            "solver budget and type errors",
        ),
        RuleInfo(
            "SIA006",
            "mutation of a frozen node outside construction",
            "object.__setattr__ is only sanctioned in __init__/"
            "__post_init__/__new__/__setattr__; anything else breaks the "
            "value semantics of interned nodes",
        ),
        RuleInfo(
            "SIA007",
            "hot-path node class without __slots__ or frozen=True",
            "subclasses of Formula/Pred/Expr must declare __slots__ or be "
            "frozen dataclasses so instances stay compact and immutable",
        ),
        RuleInfo(
            "SIA008",
            "solver model read without a SAT verdict check",
            "guard every model() read with a check that check()/solve() "
            "returned SAT; an unchecked read raises or returns stale "
            "values on UNSAT paths",
        ),
        RuleInfo(
            "SIA010",
            "raw wall-clock read outside repro.obs.clock",
            "use repro.obs.now()/Timer so tests can install ManualClock; "
            "this covers time.*, aliased 'from time import ...' names "
            "and datetime.now()/today()/utcnow()",
        ),
        RuleInfo(
            "SIA101",
            "arity violation in IR tree",
            "n-ary nodes need >= 2 arguments and valid operators; build "
            "nodes through the smart constructors (conj/disj/pand/por)",
        ),
        RuleInfo(
            "SIA102",
            "sort/type inconsistency in IR tree",
            "coefficients must be exact Fractions and operand types must "
            "satisfy the SQL typing rules of section 4.1",
        ),
        RuleInfo(
            "SIA103",
            "shared mutable state between IR nodes",
            "two nodes alias the same mutable container; copy on "
            "construction so structural equality stays local",
        ),
        RuleInfo(
            "SIA104",
            "cycle in IR tree",
            "a node is its own ancestor; traversals will not terminate -- "
            "never splice nodes with object.__setattr__",
        ),
        RuleInfo(
            "SIA201",
            "rewrite rule is not null-sound (lhs does not imply rhs)",
            "T(lhs) & ~T(rhs) is satisfiable under three-valued logic; "
            "the rule would change query results on NULL-able columns",
        ),
        RuleInfo(
            "SIA202",
            "rewrite rule claims an equivalence its reverse direction lacks",
            "T(rhs) & ~T(lhs) is satisfiable; register the rule with "
            "equivalence=False if only lhs => rhs is intended",
        ),
        RuleInfo(
            "SIA301",
            "broken clause step in a proof log",
            "the step is not RUP over the preceding steps (or the UNSAT "
            "log lacks a refutation step); the solver derived a clause "
            "its own log cannot justify",
        ),
        RuleInfo(
            "SIA302",
            "bad theory certificate in a proof log",
            "the Farkas/divisibility/split/trichotomy certificate does "
            "not refute what its literals assert; the theory lemma may "
            "be unsound",
        ),
        RuleInfo(
            "SIA303",
            "uncertified step under an UNSAT verdict",
            "a theory lemma carries no certificate or the verdict rests "
            "on a budget-blocking clause; the UNSAT answer is not "
            "certifiable",
        ),
        RuleInfo(
            "SIA401",
            "float-tainted value reaches an exact-zone call",
            "a float produced in general code flows through assignments "
            "and calls into a repro.smt/repro.predicates function; "
            "convert to Fraction at the source or sanction a documented "
            "boundary with '# sia: allow-float'",
        ),
        RuleInfo(
            "SIA402",
            "nondeterminism flows into persisted output or merge order",
            "seed the RNG on every path (or use random.Random(seed)), "
            "sort set iterations, and never use id() in keys that reach "
            "perflog rows, traces or merge order",
        ),
        RuleInfo(
            "SIA403",
            "resource may not be released on every path",
            "a tracer or file handle leaks on some normal or exceptional "
            "path; use 'try/finally: close()' or a with-block",
        ),
        RuleInfo(
            "SIA501",
            "unsynchronized shared-state write on a worker-reachable path",
            "a function reachable from a pool/thread entry point writes "
            "module-level mutable state; guard it with a lock, make the "
            "registry delta-capable (snapshot/delta_since), or keep the "
            "state worker-local",
        ),
        RuleInfo(
            "SIA502",
            "fork-inheritance or pickling hazard at a pool boundary",
            "pass an explicit mp_context (spawn) to ProcessPoolExecutor, "
            "never mutate shared registries while a pool is live, and "
            "dispatch only top-level functions with picklable payloads",
        ),
        RuleInfo(
            "SIA503",
            "read-modify-write on a shared registry outside a lock",
            "wrap the get-or-create / += in 'with <module lock>:'; the "
            "unlocked fast-path read may stay outside (double-checked "
            "locking), only the store needs the lock",
        ),
        RuleInfo(
            "SIA504",
            "cross-process registry access bypasses the snapshot/delta "
            "protocol",
            "aggregation code must use snapshot()/delta_since()/"
            "merge_delta(); raw field reads mix parent-local warmth into "
            "worker totals",
        ),
    )
}


@dataclass(frozen=True, order=True)
class Finding:
    """One reported violation, sortable into a stable order."""

    file: str
    line: int
    col: int
    rule: str
    message: str
    pass_name: str = field(default="lint", compare=False)

    @property
    def hint(self) -> str:
        info = RULE_CATALOG.get(self.rule)
        return info.hint if info is not None else ""

    def render(self, *, fix_hints: bool = False) -> str:
        location = f"{self.file}:{self.line}:{self.col}"
        text = f"{location}: {self.rule} {self.message}"
        if fix_hints and self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "title": RULE_CATALOG[self.rule].title
            if self.rule in RULE_CATALOG
            else "",
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "pass": self.pass_name,
        }
