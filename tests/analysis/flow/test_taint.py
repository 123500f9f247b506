"""SIA401: interprocedural float taint into exact-zone calls."""

from pathlib import Path

from repro.analysis.flow.callgraph import Project
from repro.analysis.flow.taint import analyze_taint

FIXTURES = Path(__file__).parents[1] / "fixtures" / "flow"


def _project_from(sources: dict[str, str]) -> Project:
    project = Project()
    for rel, src in sources.items():
        project.add_source(src, Path(rel))
    for module in project.modules.values():
        project._bind_imports(module)
    return project


SINK = (
    "def assert_bound(session, value):\n"
    "    return session.check(value)\n"
)


def test_laundered_float_is_caught_cross_module():
    project = _project_from(
        {
            "pkg/smt/engine.py": SINK,
            "pkg/core/use.py": (
                "from ..smt.engine import assert_bound\n"
                "def launder(x):\n"
                "    return x * 0.5\n"
                "def drive(session, q):\n"
                "    v = launder(q)\n"
                "    return assert_bound(session, v)\n"
            ),
        }
    )
    findings = analyze_taint(project)
    assert [f.rule for f in findings] == ["SIA401"]
    assert findings[0].line == 6


def test_sanitized_value_is_clean():
    project = _project_from(
        {
            "pkg/smt/engine.py": SINK,
            "pkg/core/use.py": (
                "from fractions import Fraction\n"
                "from ..smt.engine import assert_bound\n"
                "def drive(session, q):\n"
                "    v = Fraction(q * 0.5).limit_denominator()\n"
                "    return assert_bound(session, v)\n"
            ),
        }
    )
    assert analyze_taint(project) == []


def test_float_through_branches_and_containers():
    project = _project_from(
        {
            "pkg/smt/engine.py": SINK,
            "pkg/core/use.py": (
                "from ..smt.engine import assert_bound\n"
                "def drive(session, q, c):\n"
                "    v = 0.5 if c else q\n"
                "    vs = [v]\n"
                "    return assert_bound(session, vs[0])\n"
            ),
        }
    )
    findings = analyze_taint(project)
    assert [f.rule for f in findings] == ["SIA401"]


def test_intra_module_calls_are_left_to_the_linter():
    # Same-module flow into an exact-zone function is SIA001-003
    # territory; the interprocedural pass must not double-report it.
    project = _project_from(
        {
            "pkg/smt/engine.py": (
                SINK
                + "def local(session):\n"
                + "    return assert_bound(session, 1)\n"
            ),
        }
    )
    assert analyze_taint(project) == []


def test_math_module_results_are_float_sources():
    project = _project_from(
        {
            "pkg/smt/engine.py": SINK,
            "pkg/core/use.py": (
                "import math\n"
                "from ..smt.engine import assert_bound\n"
                "def drive(session, q):\n"
                "    v = math.sqrt(q)\n"
                "    return assert_bound(session, v)\n"
            ),
        }
    )
    assert [f.rule for f in analyze_taint(project)] == ["SIA401"]


def test_float_into_certify_is_a_sink():
    # certify.py is promoted into the exact zone even though it lives
    # under analysis/: float flowing into its functions is SIA401.
    project = _project_from(
        {
            "pkg/analysis/certify.py": SINK,
            "pkg/core/use.py": (
                "from ..analysis.certify import assert_bound\n"
                "def drive(session, q):\n"
                "    v = q * 0.5\n"
                "    return assert_bound(session, v)\n"
            ),
        }
    )
    assert [f.rule for f in analyze_taint(project)] == ["SIA401"]


def test_float_into_any_smt_module_is_a_sink():
    # No smt/ file is exempt from the exact zone: float flowing into
    # the tableau module is SIA401 like everywhere else under smt/.
    project = _project_from(
        {
            "pkg/smt/simplex.py": SINK,
            "pkg/core/use.py": (
                "from ..smt.simplex import assert_bound\n"
                "def drive(session, q):\n"
                "    v = q * 0.5\n"
                "    return assert_bound(session, v)\n"
            ),
        }
    )
    assert [f.rule for f in analyze_taint(project)] == ["SIA401"]


def test_fixture_package_end_to_end():
    from repro.analysis.flow import flow_paths

    findings, _ = flow_paths([FIXTURES])
    taint = [f for f in findings if f.rule == "SIA401"]
    assert len(taint) == 1
    assert taint[0].file.endswith("sia401_taint.py")
    assert taint[0].line == 18
