"""Bad labels end in a located diagnostic in every project command.

Each ``tests/fixtures/bad_charts/<case>`` is the ``bmc/safe`` project with
one transition label broken (``chart.sc`` line 12).  A call that does not
parse is the chart parser's PSC100; an undeclared trigger is lint's
well-formedness PSC106, which the loader gates on; a call that does not
link to the routines is the front end's PSC106 (a builtin naming an
undeclared signal) or PSC304.  The loader ends every command in exit 2;
lint reports a link failure among its own passes and exits 1.
"""

import io
import pathlib
import re

import pytest

from repro.cli import run

BAD = pathlib.Path(__file__).resolve().parent / "fixtures" / "bad_charts"

#: fixture -> (code at chart.sc:12, lint's exit status)
EXPECTED = {
    "builtin_two_names": ("PSC304", 1),
    "malformed_call": ("PSC100", 2),
    "non_constant_argument": ("PSC304", 1),
    "trailing_text": ("PSC100", 2),
    "undeclared_builtin_target": ("PSC106", 1),
    "undeclared_trigger": ("PSC106", 2),
    "unknown_routine": ("PSC304", 1),
    "wrong_arity": ("PSC304", 1),
}

#: command -> its argv after the project (``None``: lint's own status)
COMMANDS = {
    "lint": (["lint"], None),
    "lint-minimal": (["lint", "--arch", "minimal"], None),
    "stats": (["stats"], 2),
    "check": (["check"], 2),
    "trace": (["trace", "--out", "{tmp}/trace.json"], 2),
    "serve": (["serve", "--items", "4"], 2),
    "faults": (["faults"], 2),
    "flow": ([], 2),
}


def test_every_fixture_has_an_expectation():
    assert sorted(p.name for p in BAD.iterdir()) == sorted(EXPECTED)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_bad_chart_ends_in_a_located_diagnostic(case, command, tmp_path):
    argv, status = COMMANDS[command]
    code, lint_status = EXPECTED[case]
    project = BAD / case
    if argv:
        argv = ([argv[0], str(project)]
                + [arg.format(tmp=tmp_path) for arg in argv[1:]])
    else:
        argv = [str(project / "chart.sc"), str(project / "routines.c")]
    out = io.StringIO()
    assert run(argv, out=out) == (status or lint_status), out.getvalue()
    found = re.findall(r"chart\.sc:\d+: error (PSC\d+)", out.getvalue())
    assert found == [code], out.getvalue()
    assert f"chart.sc:12: error {code}" in out.getvalue()
