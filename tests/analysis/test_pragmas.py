"""Pragma extraction edge cases: blocks, lists, decorated defs."""

from repro.analysis.pragmas import extract_pragmas, is_suppressed


def test_inline_pragma_covers_its_own_line_only():
    pragmas = extract_pragmas(
        "x = 1.5  # sia: allow-float\n"
        "y = 2.5\n"
    )
    assert is_suppressed(pragmas, 1, "SIA001")
    assert not is_suppressed(pragmas, 2, "SIA001")


def test_allow_float_covers_the_interprocedural_rule_too():
    pragmas = extract_pragmas("x = 1.5  # sia: allow-float\n")
    assert is_suppressed(pragmas, 1, "SIA401")


def test_comment_block_extends_across_multiple_lines():
    pragmas = extract_pragmas(
        "# sia: allow-float -- documented crossing: the SVM is\n"
        "# float-native; rationalization restores exactness\n"
        "# downstream of this boundary.\n"
        "bias = float(raw)\n"
        "other = float(raw)\n"
    )
    for line in (1, 2, 3, 4):
        assert is_suppressed(pragmas, line, "SIA002"), line
    # The block ends at the first code line; later lines are live.
    assert not is_suppressed(pragmas, 5, "SIA002")


def test_allow_list_with_whitespace():
    pragmas = extract_pragmas(
        "do_thing()  # sia: allow( SIA004 , SIA005 )\n"
    )
    assert is_suppressed(pragmas, 1, "SIA004")
    assert is_suppressed(pragmas, 1, "SIA005")
    assert not is_suppressed(pragmas, 1, "SIA006")


def test_pragma_block_reaches_past_decorators_to_the_def():
    pragmas = extract_pragmas(
        "# sia: allow(SIA007) -- adapter class, not a hot-path node\n"
        "@register\n"
        "@functools.wraps(base)\n"
        "def shim(x):\n"
        "    return x\n"
    )
    # Findings anchor at the def line, not the decorator lines.
    assert is_suppressed(pragmas, 4, "SIA007")
    assert is_suppressed(pragmas, 2, "SIA007")
    assert not is_suppressed(pragmas, 5, "SIA007")


def test_indented_comment_block_extends():
    pragmas = extract_pragmas(
        "def f(path):\n"
        "    # sia: allow(SIA403) -- process-lifetime handle, never\n"
        "    # closed by design.\n"
        "    handle = open(path)\n"
        "    return handle\n"
    )
    assert is_suppressed(pragmas, 4, "SIA403")
    assert not is_suppressed(pragmas, 5, "SIA403")


def test_code_line_pragma_does_not_extend():
    pragmas = extract_pragmas(
        "x = 1.5  # sia: allow-float\n"
        "@decorator\n"
        "def f():\n"
        "    pass\n"
    )
    assert not is_suppressed(pragmas, 2, "SIA001")
    assert not is_suppressed(pragmas, 3, "SIA001")
