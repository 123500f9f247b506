"""repro: a full reproduction of "Sia: Optimizing Queries using Learned
Predicates" (SIGMOD 2021).

Subpackages
-----------
smt
    From-scratch SMT solver for linear integer/real arithmetic
    (CDCL + simplex + branch-and-bound + quantifier elimination).
sql
    Lexer/parser/printer for the SQL fragment the paper targets.
predicates
    Typed SQL predicate IR, date/NULL encodings, SMT lowering,
    vectorised evaluation.
learn
    Exact hard-margin linear SVM (least-distance NNLS) and
    hyperplane-to-predicate construction.
core
    The Sia algorithm itself: sample generation, the counter-example
    guided learning loop, verification, baselines.
rewrite
    Query rewriting with synthesized predicates.
engine
    A columnar relational execution engine with a pushdown optimizer.
tpch
    TPC-H data generator and the paper's 200-query workload generator.
bench
    Shared experiment harness for the paper's tables and figures.

The lazily-imported top-level API re-exports the pieces a downstream
user needs for the paper's headline flow: parse a query, synthesize a
predicate over chosen columns, rewrite, and execute.
"""

from importlib import metadata as _metadata

try:  # pragma: no cover - depends on install mode
    __version__ = _metadata.version("repro")
except _metadata.PackageNotFoundError:  # pragma: no cover
    __version__ = "0.0.0.dev0"

_LAZY_EXPORTS = {
    "SiaConfig": "repro.core.config",
    "SIA_DEFAULT": "repro.core.config",
    "SIA_V1": "repro.core.config",
    "SIA_V2": "repro.core.config",
    "SynthesisOutcome": "repro.core.synthesize",
    "Synthesizer": "repro.core.synthesize",
    "synthesize": "repro.core.synthesize",
    "RewriteResult": "repro.rewrite.rewriter",
    "rewrite_query": "repro.rewrite.rewriter",
}

__all__ = sorted(_LAZY_EXPORTS) + ["__version__"]


def __getattr__(name):
    """Lazy re-exports so `import repro.smt` works before core exists."""
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target)
    value = getattr(module, name)
    globals()[name] = value
    return value
