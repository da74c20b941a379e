"""Tests for the command-line front end."""

import io
import json
import pathlib

import pytest

from repro.cli import run

CHART = """
chart demo;
event GO period 900;
event STOP;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO/Fast()"; } }
basicstate B { transition { target A; label "STOP/Slow()"; } }
"""

ROUTINES = """
int:16 x;
void Fast() { x = x + 1; }
void Slow() { x = 0; }
"""

SLOW_ROUTINES = """
int:16 x;
void Fast() {
  int:16 i = 0;
  @bound(40) while (i < 40) { x = x + i; i = i + 1; }
}
void Slow() { x = 0; }
"""


@pytest.fixture
def project(tmp_path):
    chart_file = tmp_path / "demo.sc"
    chart_file.write_text(CHART)
    routine_file = tmp_path / "demo.c"
    routine_file.write_text(ROUTINES)
    return str(chart_file), str(routine_file)


SMD_PROJECT = str(pathlib.Path(__file__).resolve().parents[1]
                  / "examples" / "smd")


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


class TestCli:
    def test_basic_run_reports_tables(self, project):
        code, text = invoke(list(project))
        assert code == 0
        assert "Table 2" in text and "Table 3" in text
        assert "all timing constraints met" in text
        assert "PSCP area estimate" in text

    def test_exit_code_on_violation(self, project, tmp_path):
        slow = tmp_path / "slow.c"
        slow.write_text(SLOW_ROUTINES)
        code, text = invoke([project[0], str(slow), "--arch", "minimal"])
        assert code == 1
        assert "timing violations" in text

    def test_json_summary(self, project):
        code, text = invoke([*project, "--json"])
        summary = json.loads(text)
        assert summary["chart"] == "demo"
        assert "GO" in summary["critical_paths"]
        assert summary["area_clbs"] > 0
        assert {"Fast", "Slow"} <= set(summary["routine_wcets"])

    def test_arch_and_teps_flags(self, project):
        code, text = invoke([*project, "--arch", "md16", "--teps", "2"])
        assert "2x" in text and "16bit" in text

    def test_optimize_flag(self, project):
        _, plain = invoke([*project, "--json"])
        _, optimized = invoke([*project, "--json", "--optimize"])
        plain_paths = json.loads(plain)["critical_paths"]
        opt_paths = json.loads(optimized)["critical_paths"]
        assert opt_paths["GO"] < plain_paths["GO"]

    def test_improve_mode(self, project, tmp_path):
        slow = tmp_path / "slow.c"
        slow.write_text(SLOW_ROUTINES)
        code, text = invoke([project[0], str(slow), "--improve"])
        assert "improvement trajectory" in text
        assert "baseline" in text

    def test_emit_artifacts(self, project):
        code, text = invoke([*project, "--emit", "blif", "--emit", "vhdl",
                             "--emit", "asm", "--emit", "dot"])
        assert ".model sla" in text
        assert "entity sla" in text
        assert "Fast" in text  # assembler labels
        assert "digraph" in text

    def test_floorplan_flag(self, project):
        code, text = invoke([*project, "--floorplan"])
        assert "floorplan" in text

    def test_floorplan_that_does_not_fit_is_an_error_line(self, capsys):
        code, text = invoke([f"{SMD_PROJECT}/chart.sc",
                             f"{SMD_PROJECT}/routines.c",
                             "--improve", "--floorplan"])
        assert code == 1
        assert "total: 857 CLBs (XC4025)" in text
        assert capsys.readouterr().err == (
            "error: floorplan: shelf packing overflowed placing "
            "'configuration-register' (14 CLBs) on XC4025\n")

    def test_missing_file_error(self, tmp_path):
        code, _ = invoke([str(tmp_path / "nope.sc"), str(tmp_path / "nope.c")])
        assert code == 2


#: ``Begin()`` declares ``@bound(2)`` for a loop that never ends; lint,
#: check and the flow accept the designer's claim
BOUND_OVERRUN = str(pathlib.Path(__file__).resolve().parent / "fixtures"
                    / "run_errors" / "bound_overrun")


@pytest.mark.parametrize("command", [["stats"],
                                     ["trace", "--out", "trace.json"]])
def test_routine_that_overruns_its_bound_is_an_error_line(
        command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, text = invoke([command[0], BOUND_OVERRUN, *command[1:]])
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err == (
        f"error: {BOUND_OVERRUN}/chart.sc:12: transition Idle --GO "
        f"/Begin()--> Work: runaway execution in '__t0' "
        f"(> 1000000 cycles)\n")
    # a failed command leaves no empty output file behind
    assert list(tmp_path.iterdir()) == []


def test_failed_serve_leaves_no_output_file(tmp_path, monkeypatch, capsys):
    from repro.resil import shardfarm

    monkeypatch.setattr(shardfarm.multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    monkeypatch.chdir(tmp_path)
    code, _ = invoke(["serve", SMD_PROJECT, "--items", "4", "--processes",
                      "2", "--trace", "trace.json", "--lineage", "dag.json"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the distributed farm requires the fork start method\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["trace", BOUND_OVERRUN, "--out"],
    ["serve", SMD_PROJECT, "--items", "4", "--trace"],
    ["serve", SMD_PROJECT, "--items", "4", "--processes", "2",
     "--lineage"]], ids=["trace", "serve-trace", "serve-lineage"])
def test_unwritable_output_exits_2_before_the_run(argv, tmp_path, capsys):
    # a run would exit 1 (the overrun) or 0, and fork for the lineage
    path = tmp_path / "missing" / "out.json"
    code, text = invoke([*argv, str(path)])
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith("error: [Errno 2]")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["lint"], ["check"],
                                     ["serve", "--items", "4"]])
def test_bound_overrun_passes_the_static_commands(command):
    code, _ = invoke([command[0], BOUND_OVERRUN, *command[1:]])
    assert code == 0


#: a chart whose only leaf is a chart reference the flow never inlines
REF_CHART = """
chart refs;
event GO period 900;
orstate Top { contains A, Sub; default A; }
basicstate A { transition { target Sub; label "GO"; } }
refstate Sub { refers Other; }
"""

BAD_INPUTS = {
    # name: (chart text, routine text, expected diagnostic)
    "bad-chart": ("chart demo;\norstate Top { contains A\n", ROUTINES,
                  "PSC100"),
    "bad-routines": (CHART, "void Fast() { x = ; }\n", "PSC301"),
    "unresolved-ref": (REF_CHART, ROUTINES, "PSC111"),
}

COMMANDS = {
    "flow": [],
    "trace": ["trace", "--cycles", "10"],
    "stats": ["stats", "--cycles", "10"],
    "faults": ["faults"],
    "serve": ["serve", "--items", "4"],
    "check": ["check"],
    "lint": ["lint"],
}


class TestBadProjectInput:
    """Every project-loading command reports bad input as a diagnostic and
    exits 2 — never a traceback."""

    @pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_diagnostic_and_exit_2(self, command, bad, tmp_path,
                                   monkeypatch):
        chart_text, routine_text, code = BAD_INPUTS[bad]
        (tmp_path / "bad.sc").write_text(chart_text)
        (tmp_path / "bad.c").write_text(routine_text)
        monkeypatch.chdir(tmp_path)  # trace writes trace.json here
        status, text = invoke(COMMANDS[command] + ["bad.sc", "bad.c"])
        assert status == 2
        assert text.startswith("bad.sc\n")
        assert f" {code}: " in text
        assert "1 error(s)" in text

    def test_unresolved_ref_is_located_at_the_ref_state(self, tmp_path):
        (tmp_path / "refs.sc").write_text(REF_CHART)
        (tmp_path / "refs.c").write_text(ROUTINES)
        status, text = invoke(["check", str(tmp_path)])
        assert status == 2
        line = REF_CHART.splitlines().index(
            "refstate Sub { refers Other; }") + 1
        assert (f"refs.sc:{line}: error PSC111: ref state 'Sub' (refers to "
                "'Other') is not resolved") in text


class TestFaultCampaignTooShort:
    def test_short_cycles_are_a_usage_error(self, capsys):
        # the baseline needs ~14,000 cycles to finish its move
        status, text = invoke(["faults", SMD_PROJECT, "--cycles", "3000"])
        assert status == 2
        assert text == ""
        error = capsys.readouterr().err
        assert error.startswith("error: --cycles 3000 is too short: ")
        assert error.count("\n") == 1


# the flags `repro serve` reads in one farm mode only, with a value each
IN_PROCESS_SERVE_FLAGS = {
    "--workers": ["3"], "--chaos-faults": ["2"],
    "--recorder-capacity": ["8"], "--no-recorder": [], "--dashboard": [],
    "--forensics-dir": ["fdir"],
}
DISTRIBUTED_SERVE_FLAGS = {"--standby": [], "--kills": ["1"],
                           "--lineage": ["dag.json"]}


class TestServeModeFlags:
    """A flag of the other farm mode is a usage error, reported before
    anything is built, forked or created."""

    @pytest.fixture(autouse=True)
    def no_build(self, monkeypatch, tmp_path):
        import repro.cli

        def refuse(*args, **kwargs):
            raise AssertionError("serve built the project")

        monkeypatch.setattr(repro.cli, "_load_project", refuse)
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("flag", sorted(IN_PROCESS_SERVE_FLAGS))
    def test_in_process_flag_under_processes(self, flag, tmp_path, capsys):
        status, text = invoke(["serve", SMD_PROJECT, "--items", "4",
                               "--processes", "2", flag,
                               *IN_PROCESS_SERVE_FLAGS[flag]])
        assert status == 2 and text == ""
        assert capsys.readouterr().err == (
            f"error: {flag} is an in-process farm option, not read under "
            f"--processes (distributed mode)\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", sorted(DISTRIBUTED_SERVE_FLAGS))
    def test_distributed_flag_without_processes(self, flag, tmp_path,
                                                capsys):
        status, text = invoke(["serve", SMD_PROJECT, "--items", "4", flag,
                               *DISTRIBUTED_SERVE_FLAGS[flag]])
        assert status == 2 and text == ""
        assert capsys.readouterr().err == (
            f"error: {flag} requires --processes (distributed mode)\n")
        assert list(tmp_path.iterdir()) == []


def test_closed_stdout_ends_without_a_traceback():
    import os
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    # about 140 kB of JSON: far more than the pipe buffers once the reader
    # has gone, so the writer meets EPIPE
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", SMD_PROJECT, "--items",
         "2000", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert "Traceback" not in stderr, stderr


@pytest.mark.parametrize("mode", [[], ["--processes", "2"]],
                         ids=["in-process", "distributed"])
def test_samples_path_picks_csv_or_json(mode, tmp_path):
    import json

    for name in ("samples.csv", "samples.json"):
        path = tmp_path / name
        status, _ = invoke(["serve", SMD_PROJECT, "--items", "20",
                            *mode, "--samples", str(path)])
        assert status == 0
        text = path.read_text()
        if name.endswith(".csv"):
            header, *rows = text.splitlines()
            assert header.startswith("tick,submitted,") and rows
            assert all(len(row.split(",")) == len(header.split(","))
                       for row in rows)
        else:
            assert json.loads(text)["samples"]
