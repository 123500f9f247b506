"""SIA403: must-close along normal and exceptional paths."""

from pathlib import Path

from repro.analysis.flow.callgraph import Project
from repro.analysis.flow.lifecycle import analyze_lifecycle

FIXTURES = Path(__file__).parents[1] / "fixtures" / "flow"


def _analyze(src: str):
    project = Project()
    project.add_source(src, Path("pkg/core/mod.py"))
    for module in project.modules.values():
        project._bind_imports(module)
    return analyze_lifecycle(project)


def test_handle_leaks_on_early_return():
    findings = _analyze(
        "def f(path, flag):\n"
        "    handle = open(path)\n"
        "    if flag:\n"
        "        return 1\n"
        "    handle.close()\n"
        "    return 0\n"
    )
    assert [f.rule for f in findings] == ["SIA403"]
    assert findings[0].line == 2
    assert "open()" in findings[0].message


def test_try_finally_close_is_clean():
    findings = _analyze(
        "def f(path, flag):\n"
        "    handle = open(path)\n"
        "    try:\n"
        "        if flag:\n"
        "            return 1\n"
        "        return 0\n"
        "    finally:\n"
        "        handle.close()\n"
    )
    assert findings == []


def test_handle_leaks_on_exceptional_path():
    # handle.read() can raise; no try/finally guards the close.
    findings = _analyze(
        "def f(path):\n"
        "    handle = open(path)\n"
        "    text = handle.read()\n"
        "    handle.close()\n"
        "    return text\n"
    )
    assert [f.rule for f in findings] == ["SIA403"]
    assert findings[0].line == 2


def test_with_block_is_clean_even_with_return():
    findings = _analyze(
        "def f(path):\n"
        "    with open(path) as handle:\n"
        "        return handle.read()\n"
    )
    assert findings == []


def test_conditional_acquisition_via_ifexp_with_block():
    # The cli.py tracing pattern: acquire through an IfExp, release
    # through the with.
    findings = _analyze(
        "from contextlib import nullcontext\n"
        "def f(path, install_file_tracer):\n"
        "    tracing = install_file_tracer(path) if path else nullcontext()\n"
        "    with tracing as tracer:\n"
        "        return tracer\n"
    )
    assert findings == []


def test_escape_via_call_argument_stops_tracking():
    findings = _analyze(
        "def f(path, consume):\n"
        "    handle = open(path)\n"
        "    consume(handle)\n"
        "    return None\n"
    )
    assert findings == []


def test_escape_via_attribute_store_stops_tracking():
    findings = _analyze(
        "class Holder:\n"
        "    def grab(self, path):\n"
        "        self.handle = open(path)\n"
        "        return None\n"
    )
    assert findings == []


def test_returned_resource_is_callers_problem():
    findings = _analyze(
        "def f(path):\n"
        "    return open(path)\n"
    )
    assert findings == []


def test_discarded_acquisition_is_flagged():
    findings = _analyze(
        "def f(path):\n"
        "    open(path)\n"
        "    return None\n"
    )
    assert [f.rule for f in findings] == ["SIA403"]


def test_release_raising_is_not_a_leak():
    findings = _analyze(
        "def f(path):\n"
        "    handle = open(path)\n"
        "    handle.close()\n"
        "    return None\n"
    )
    assert findings == []


def test_fixture_package_end_to_end_and_pragma():
    from repro.analysis.flow import flow_paths

    findings, _ = flow_paths([FIXTURES])
    leaks = [f for f in findings if f.rule == "SIA403"]
    assert [(f.file.rsplit("/", 1)[-1], f.line) for f in leaks] == [
        ("sia403_leaks.py", 5),
        ("sia403_leaks.py", 13),
    ]
    # The pragma-sanctioned leak resurfaces when pragmas are ignored.
    unfiltered, _ = flow_paths([FIXTURES], honor_pragmas=False)
    extra = [
        f
        for f in unfiltered
        if f.rule == "SIA403"
        and f.file.endswith("pragma_sanctioned_flow.py")
    ]
    assert len(extra) == 1 and extra[0].line == 7
