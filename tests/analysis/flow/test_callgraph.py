"""Module index + call resolution over the fixture package."""

from pathlib import Path

import pytest

from repro.analysis.flow.callgraph import Project, _dotted_key
from repro.analysis.lint import iter_python_files

FIXTURES = Path(__file__).parents[1] / "fixtures" / "flow"


@pytest.fixture(scope="module")
def project():
    return Project.load(iter_python_files([FIXTURES]))


def _module(project, suffix):
    hits = [m for key, m in project.modules.items() if key.endswith(suffix)]
    assert len(hits) == 1, f"{suffix}: {list(project.modules)}"
    return hits[0]


def test_dotted_key_strips_src_prefix():
    assert _dotted_key(Path("src/repro/smt/solver.py")) == "repro.smt.solver"
    assert _dotted_key(Path("src/repro/smt/__init__.py")) == "repro.smt"


def test_relative_import_resolves_cross_module(project):
    taint = _module(project, "core.sia401_taint")
    import ast

    calls = [
        node
        for node in ast.walk(taint.tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "assert_bound"
    ]
    assert calls
    resolved = project.resolve_call(calls[0].func, taint)
    assert resolved is not None
    assert resolved.name == "assert_bound"
    assert resolved.module.dotted.endswith("smt.engine")
    assert resolved.zone == "exact"


def test_local_function_resolves(project):
    taint = _module(project, "core.sia401_taint")
    import ast

    call = next(
        node
        for node in ast.walk(taint.tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "launder"
    )
    resolved = project.resolve_call(call.func, taint)
    assert resolved is not None
    assert resolved.module is taint


def test_method_calls_do_not_resolve(project):
    leaks = _module(project, "core.sia403_leaks")
    import ast

    call = next(
        node
        for node in ast.walk(leaks.tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "close"
    )
    assert project.resolve_call(call.func, leaks) is None


def test_external_module_binding(project):
    report = _module(project, "bench.sia402_report")
    import ast

    name = ast.parse("random").body[0].value
    assert project.external_module_of(name, report) == "random"


def test_functions_have_cfgs_and_params(project):
    engine = _module(project, "smt.engine")
    func = engine.functions["assert_bound"]
    assert func.params == ["session", "value"]
    assert func.cfg.exit is not None
    assert engine.toplevel is not None
