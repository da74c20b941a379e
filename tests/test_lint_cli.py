"""End-to-end tests for the `repro lint` subcommand."""

import io
import json
import os
import pathlib

import pytest

from repro.cli import run

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint"
GOLDEN = pathlib.Path(__file__).parent / "golden"
SAFE = pathlib.Path(__file__).parent / "fixtures" / "bmc" / "safe"


def invoke(argv):
    out = io.StringIO()
    status = run(argv, out=out)
    return status, out.getvalue()


def lint_fixture(name, *extra):
    base = FIXTURES / name
    return invoke(["lint", str(base / "chart.sc"),
                   str(base / "routines.c"), *extra])


class TestFixtures:
    def test_conflict_fixture_errors(self):
        status, text = lint_fixture("conflict")
        assert status == 1
        assert "PSC201" in text
        assert "1 error(s)" in text.splitlines()[-1]

    def test_race_fixture_warns(self):
        status, text = lint_fixture("race")
        assert status == 0
        assert "PSC203" in text
        assert "shared" in text
        assert "0 error(s)" in text.splitlines()[-1]

    def test_truncate_fixture_reports_dataflow(self):
        status, text = lint_fixture("truncate")
        assert status == 1
        for code in ("PSC310", "PSC311", "PSC312", "PSC313"):
            assert code in text
        # Preamble offset correction: lines refer to the user's file.
        assert "routines.c:5" in text

    def test_budget_fixture_reports_timing(self):
        status, text = lint_fixture("budget")
        assert status == 1
        assert "PSC401" in text
        assert "PSC402" in text

    def test_suppress_removes_code(self):
        status, text = lint_fixture("race", "--suppress", "PSC203")
        assert status == 0
        assert "PSC203" not in text

    def test_enable_surfaces_default_suppressed_notes(self):
        _, baseline = lint_fixture("conflict")
        _, enabled = lint_fixture("conflict", "--enable", "PSC202")
        assert "PSC202" not in baseline
        assert "PSC202" in enabled


class TestWorkloads:
    def test_smd_matches_golden(self):
        status, text = invoke(["lint", "--workload", "smd"])
        assert status == 0
        assert text == (GOLDEN / "lint_smd.txt").read_text()

    def test_elevator_matches_golden(self):
        status, text = invoke(["lint", "--workload", "elevator"])
        assert status == 0
        assert text == (GOLDEN / "lint_elevator.txt").read_text()

    def test_output_is_deterministic(self):
        _, first = invoke(["lint", "--workload", "smd", "--format", "sarif"])
        _, second = invoke(["lint", "--workload", "smd", "--format", "sarif"])
        assert first == second


class TestFormats:
    def test_json_format(self):
        _, text = lint_fixture("race", "--format", "json")
        document = json.loads(text)
        assert document["tool"] == "repro-lint"
        assert [d["code"] for d in document["diagnostics"]] == ["PSC203"]

    def test_sarif_format(self):
        _, text = lint_fixture("truncate", "--format", "sarif")
        sarif = json.loads(text)
        assert sarif["version"] == "2.1.0"
        rule_ids = {r["ruleId"] for r in sarif["runs"][0]["results"]}
        assert "PSC313" in rule_ids

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "report.sarif"
        status, text = lint_fixture("race", "--format", "sarif",
                                    "--out", str(target))
        assert status == 0
        assert json.loads(target.read_text())["version"] == "2.1.0"
        assert "wrote" in text


class TestErrors:
    def test_unknown_suppress_code_exits_2(self):
        status, text = lint_fixture("race", "--suppress", "PSC999")
        assert status == 2
        assert "PSC999" in text

    def test_unparseable_chart_reports_psc100(self, tmp_path):
        bad = tmp_path / "bad.sc"
        bad.write_text("chart broken;\nbasicstate A { nonsense }\n")
        routines = tmp_path / "r.c"
        routines.write_text("int:16 g;\n")
        status, text = invoke(["lint", str(bad), str(routines)])
        assert status == 2
        assert "PSC100" in text

    def test_missing_arguments_error(self):
        with pytest.raises(SystemExit):
            invoke(["lint"])


#: the ``safe`` model-checking fixture's routines, broken on line 4
UNPARSEABLE = """int:16 jobs;

void Begin() {
  jobs = ;
  SetTrue(BUSY);
}
"""

#: the same routines with a recursion (line 8) and two unknown names
#: (lines 9 and 10)
ILL_TYPED = """int:16 jobs;

void Begin() {
  jobs = jobs + 1;
  SetTrue(BUSY);
}

void Finish() {
  SetFalse(GHOST);
  total = 3;
  Finish();
}
"""


class TestBadRoutines:
    """Routines that do not parse or check.  Where the architecture is read
    off the routines, the loader reports the front end's diagnostics and
    exits 2; with --arch, lint reports the same diagnostics among its own
    and exits 1.  Either way they are located PSC301/PSC302/PSC303 at
    lines of the routine file, not of the preamble-prefixed text."""

    @pytest.fixture
    def project(self, tmp_path):
        (tmp_path / "chart.sc").write_text((SAFE / "chart.sc").read_text())

        def write(routines):
            (tmp_path / "routines.c").write_text(routines)
            return str(tmp_path), os.path.join(str(tmp_path), "routines.c")

        return write

    def test_loader_parse_error_names_the_user_line(self, project):
        path, source = project(UNPARSEABLE)
        status, text = invoke(["check", path])
        assert status == 2
        assert (f"{source}:4: error PSC301: action program does not parse: "
                "line 4: unexpected token ';'\n") in text

    def test_lint_parse_error_names_the_user_line(self, project):
        path, source = project(UNPARSEABLE)
        status, text = invoke(["lint", path, "--arch", "minimal"])
        assert status == 1
        assert (f"{source}:4: error PSC301: action program does not parse: "
                "line 4: unexpected token ';'\n") in text

    @pytest.mark.parametrize("argv, status", [
        (["check"], 2),
        (["lint", "--arch", "minimal"], 1),
    ], ids=["check", "lint-arch"])
    def test_lex_error_is_a_located_parse_error(self, project, argv, status):
        lines = (SAFE / "routines.c").read_text().splitlines(keepends=True)
        lines[3] = "  jobs = jobs $ 1;\n"
        path, source = project("".join(lines))
        code, text = invoke(argv[:1] + [path] + argv[1:])
        assert code == status
        assert (f"{source}:4: error PSC301: action program does not parse: "
                "line 4: unexpected character '$'\n") in text

    def test_lint_with_arch_locates_each_semantic_error(self, project):
        path, source = project(ILL_TYPED)
        status, text = invoke(["lint", path, "--arch", "minimal"])
        assert status == 1
        assert [line for line in text.splitlines()
                if line.startswith(source)] == [
            f"{source}:8: error PSC303: recursion is not permitted: "
            "Finish -> Finish",
            f"{source}:9: error PSC302: Finish: SetFalse: 'GHOST' is not a "
            "declared condition",
            f"{source}:10: error PSC302: Finish: unknown name 'total'"]

    def test_lint_without_arch_locates_each_semantic_error_and_exits_2(
            self, project):
        path, source = project(ILL_TYPED)
        status, text = invoke(["lint", path])
        assert status == 2
        assert [line for line in text.splitlines()
                if line.startswith(source)] == [
            f"{source}:8: error PSC303: recursion is not permitted: "
            "Finish -> Finish",
            f"{source}:9: error PSC302: Finish: SetFalse: 'GHOST' is not a "
            "declared condition",
            f"{source}:10: error PSC302: Finish: unknown name 'total'"]
        assert "PSC301" not in text


class TestLintSystem:
    def frontend(self, source):
        from repro.flow import Frontend
        from repro.statechart import parse_chart

        return Frontend(parse_chart((SAFE / "chart.sc").read_text()), source)

    def test_semantic_errors_are_located_in_the_routine_file(self):
        from repro.analysis import lint_system
        from repro.isa import MINIMAL_TEP

        result = lint_system(self.frontend(ILL_TYPED), MINIMAL_TEP,
                             chart_path="chart.sc", source_path="routines.c")
        assert [(d.code, d.location.file, d.location.line, d.location.obj,
                 d.message) for d in result.diagnostics
                if d.code.startswith("PSC30")] == [
            ("PSC303", "routines.c", 8, "function 'Finish'",
             "recursion is not permitted: Finish -> Finish"),
            ("PSC302", "routines.c", 9, "function 'Finish'",
             "Finish: SetFalse: 'GHOST' is not a declared condition"),
            ("PSC302", "routines.c", 10, "function 'Finish'",
             "Finish: unknown name 'total'")]

    def test_rejects_a_system_built_from_another_front_end(self):
        from repro.analysis import lint_system
        from repro.isa import MINIMAL_TEP

        source = (SAFE / "routines.c").read_text()
        system = self.frontend(source).build(MINIMAL_TEP)
        with pytest.raises(ValueError, match="front end"):
            lint_system(self.frontend(source), MINIMAL_TEP, system=system)
