"""The checker is the routines' one gate: a program it admits builds.

* An oracle leg: a derandomized generator of routine programs over the
  ``bmc/safe`` chart (plus one data port).  Each program either holds
  located PSC30x diagnostics or builds on every rung of the improvement
  ladder and on the minimal TEP, without raising.
* A table over ``tests/fixtures/bad_routines``: every project command ends
  a bad program in a located diagnostic and the loader's exit code.
"""

import io
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import run
from repro.flow import Frontend, Improver
from repro.isa import MINIMAL_TEP
from repro.statechart import parse_chart

ROOT = pathlib.Path(__file__).resolve().parents[1]
SAFE = ROOT / "tests" / "fixtures" / "bmc" / "safe"
BAD = ROOT / "tests" / "fixtures" / "bad_routines"

# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------

BINARY_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
              "==", "!=", "<", "<=", ">", ">=", "&&", "||"]
UNARY_OPS = ["-", "~", "!"]
ENUM_MEMBERS = ["OFF", "ON", "HIGH"]


def indices(length):
    """An index into an array of *length*: mostly constants in range
    (literals, an enum member, folded expressions), else dynamic, and
    now and then a constant out of range."""
    in_range = ["0", "(1 - 1)", f"{length - 1}", "OFF", "(0 && jobs)"]
    if length > 1:
        in_range += ["ON", "(7 % 2)"]
    if length > 2:
        in_range += ["(4 / 2)", "(1 << 1)"]
    dynamic = ["jobs", "(jobs & 1)", "level"]
    out_of_range = [f"{length}", "7", "(0 - 1)", "~0"]
    return st.one_of(st.sampled_from(in_range), st.sampled_from(in_range),
                     st.sampled_from(in_range), st.sampled_from(dynamic),
                     st.sampled_from(out_of_range))


def expressions(leaves):
    """Expressions over *leaves*, every unary and binary operator."""
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(UNARY_OPS), inner).map(
                lambda t: f"{t[0]}{t[1]}"),
            st.tuples(inner, st.sampled_from(BINARY_OPS), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})")),
        max_leaves=4)


#: a global initializer: mostly constants of every operator, now and then
#: another global, an unknown name or a condition
INITIALIZERS = expressions(st.one_of(
    st.integers(0, 300).map(str), st.sampled_from(ENUM_MEMBERS),
    st.integers(0, 9).map(str),
    st.sampled_from(["jobs", "nosuch", "BUSY"])))


def accesses():
    return st.one_of(
        indices(3).map(lambda i: f"small[{i}]"),
        indices(2).map(lambda i: f"flags[{i}]"),
        st.tuples(indices(2), indices(3)).map(
            lambda t: f"grid[{t[0]}][{t[1]}]"))


VALUES = expressions(st.one_of(
    st.integers(0, 300).map(str), st.sampled_from(ENUM_MEMBERS),
    st.sampled_from(["jobs", "wide", "level", "P", "BUSY", "Test(BUSY)",
                     "ReadPort(P)"]),
    accesses()))

#: assignment targets: variables, elements, the port, and now and then a
#: condition or an enum member (both errors)
TARGETS = st.one_of(
    st.sampled_from(["jobs", "wide", "level", "P"]), accesses(),
    st.sampled_from(["jobs", "wide", "level", "P", "small[1]", "BUSY",
                     "ON"]))


def statements():
    simple = st.one_of(
        st.tuples(TARGETS, st.sampled_from(["=", "+=", "<<="]), VALUES).map(
            lambda t: f"{t[0]} {t[1]} {t[2]};"),
        VALUES.map(lambda v: f"WritePort(P, {v});"),
        st.just("SetTrue(BUSY);"))
    return st.one_of(
        simple,
        st.tuples(st.one_of(VALUES, st.sampled_from(
            ["wide", "(wide > 5)", "(wide == jobs)", "!wide"])),
            simple).map(lambda t: f"if ({t[0]}) {{ {t[1]} }}"))


@st.composite
def projects(draw):
    """(chart text, routine text): the safe chart with one data port, its
    ``Begin`` taking an enum or an integer argument from the labels."""
    wide = draw(st.sampled_from(["int:8", "int:16", "int:32"]))
    param = draw(st.sampled_from(["Power", "int:8", "int:16"]))
    argument = draw(st.sampled_from(ENUM_MEMBERS + ["0", "2", "B:11"]))
    globals_ = [f"int:16 g{index} = {init};" for index, init in
                enumerate(draw(st.lists(INITIALIZERS, max_size=2)))]
    if draw(st.integers(0, 9)) == 0:
        globals_.append("int:8 listed[2] = {5, 6};")
    begin = draw(st.lists(statements(), min_size=1, max_size=3))
    finish = draw(st.lists(statements(), max_size=2))
    routines = "\n".join([
        "enum Power {OFF, ON, HIGH};",
        "int:16 jobs;",
        f"{wide} wide;",
        "int:8 small[3];",
        "bool flags[2];",
        "int:16 grid[2][3];",
        *globals_,
        f"void Begin({param} level) {{",
        *(f"  {s}" for s in begin),
        "}",
        "void Finish() {",
        "  int:8 level = 1;",
        *(f"  {s}" for s in finish),
        "  SetFalse(BUSY);",
        "}",
        ""])
    chart = (SAFE / "chart.sc").read_text().replace(
        "condition BUSY;",
        "condition BUSY;\nport P : data width 8 address 463 inout;").replace(
        '"GO/Begin()"', f'"GO/Begin({argument})"')
    return chart, routines


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(projects())
def test_a_checked_program_builds_on_every_rung(project):
    chart_text, routines = project
    chart = parse_chart(chart_text)
    frontend = Frontend(chart, routines)
    if frontend.diagnostics:
        for diagnostic in frontend.diagnostics:
            assert diagnostic.code in ("PSC301", "PSC302", "PSC303")
            assert diagnostic.location.line is not None, diagnostic
        return
    frontend.build(MINIMAL_TEP)
    for _ in Improver(chart, routines).rungs():
        pass


# ---------------------------------------------------------------------------
# the reproduced bad programs, through every project command
# ---------------------------------------------------------------------------

#: fixture -> (code, line of routines.c, or None for a declaration without
#: one)
EXPECTED = {
    "assign_condition": ("PSC302", 5),
    "assign_enum_member": ("PSC302", 5),
    "duplicate_enum_member": ("PSC302", None),
    "index_out_of_range": ("PSC302", 4),
    "init_list_on_data": ("PSC302", 1),
    "init_other_global": ("PSC302", 1),
    "init_unknown_name": ("PSC302", 1),
    "two_dynamic_indices": ("PSC302", 4),
    "unparseable": ("PSC301", 4),
}

COMMANDS = {
    "lint": (["lint"], 2),
    "lint-minimal": (["lint", "--arch", "minimal"], 1),
    "stats": (["stats"], 2),
    "check": (["check"], 2),
}


def test_every_fixture_has_an_expectation():
    assert sorted(p.name for p in BAD.iterdir()) == sorted(EXPECTED)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_bad_routines_end_in_a_located_diagnostic(case, command):
    argv, status = COMMANDS[command]
    code, line = EXPECTED[case]
    out = io.StringIO()
    assert run([argv[0], str(BAD / case)] + argv[1:], out=out) == status
    located = "routines.c" + (f":{line}" if line else "")
    found = re.findall(r"routines\.c(?::\d+)?: error (PSC\d+)",
                       out.getvalue())
    assert found == [code], out.getvalue()
    assert f"{located}: error {code}" in out.getvalue()
