"""Bounded model checker: property language, explorer, witnesses, CLI.

The three fixtures under ``tests/fixtures/bmc/`` pin the three verdict
families end to end: ``violating`` (embedded properties, replayable
counterexamples, exit 1), ``safe`` (every form proved, exit 0) and
``bounded`` (honest bound-exhausted verdicts at ``--depth 5``, exit 3).
"""

import io
import json
import os
import pathlib

import pytest

from repro.analysis.bmc import (
    AlwaysReach,
    Deadline,
    Explorer,
    NeverIn,
    NeverWhile,
    abstract_actions,
    check_system,
    load_witness,
    parse_properties,
    replay_witness,
)
from repro.analysis.bmc import explorer as explorer_module
from repro.cli import run
from repro.flow.build import build_system, select_initial_architecture
from repro.statechart.parser import parse_chart

REPO = pathlib.Path(__file__).parent.parent
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "bmc"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def invoke(argv):
    out = io.StringIO()
    status = run(argv, out=out)
    return status, out.getvalue()


def check_fixture(name, *extra):
    base = os.path.join("tests", "fixtures", "bmc", name)
    return invoke(["check", base, *extra])


def build_fixture(name):
    chart = parse_chart((FIXTURES / name / "chart.sc").read_text())
    source = (FIXTURES / name / "routines.c").read_text()
    arch = select_initial_architecture(chart, source)
    return chart, source, build_system(chart, source, arch)


# ---------------------------------------------------------------------------
# property language
# ---------------------------------------------------------------------------

class TestPropertyParsing:
    CHART = """
chart props;
event GO period 500;
event STOP;
condition BUSY;
orstate Main { contains A, B; default A; }
basicstate A { transition { target B; label "GO"; } }
basicstate B { transition { target A; label "STOP [BUSY]"; } }
"""

    def parse(self, text):
        chart = parse_chart(self.CHART)
        return parse_properties(chart, sidecar_text=text,
                                sidecar_path="props.txt")

    def test_all_four_forms(self):
        parsed = self.parse(
            "never A while B\n"
            "never BUSY in A\n"
            "always reach B within 3 cycles of GO\n"
            "deadline GO\n"
            "deadline STOP 120\n")
        assert parsed.ok
        kinds = [type(p) for p in parsed.properties]
        assert kinds == [NeverWhile, NeverIn, AlwaysReach, Deadline,
                         Deadline]
        reach = parsed.properties[2]
        assert (reach.state, reach.cycles, reach.event) == ("B", 3, "GO")
        assert parsed.properties[3].budget is None  # declared period
        assert parsed.properties[4].budget == 120

    def test_comments_and_blank_lines_skipped(self):
        parsed = self.parse("# comment\n\nnever A while B  // tail\n")
        assert parsed.ok and len(parsed.properties) == 1

    def test_unknown_state_is_psc601(self):
        parsed = self.parse("never A while Nope\n")
        assert not parsed.ok
        assert [d.code for d in parsed.diagnostics] == ["PSC601"]

    def test_unknown_syntax_is_psc600(self):
        parsed = self.parse("eventually B\n")
        assert not parsed.ok
        assert [d.code for d in parsed.diagnostics] == ["PSC600"]

    def test_deadline_without_period_needs_budget(self):
        parsed = self.parse("deadline STOP\n")  # STOP has no period
        assert not parsed.ok
        assert parsed.diagnostics[0].code == "PSC600"

    def test_never_in_requires_condition_expression(self):
        parsed = self.parse("never GO in A\n")  # event, not condition
        assert not parsed.ok

    def test_chart_embedded_properties_carry_lines(self):
        chart = parse_chart(
            (FIXTURES / "violating" / "chart.sc").read_text())
        parsed = parse_properties(chart, chart_path="chart.sc")
        assert parsed.ok
        texts = [p.text for p in parsed.properties]
        assert texts == ["never Armed while Running",
                         "never ARMED in Running"]
        assert all(p.line is not None for p in parsed.properties)


# ---------------------------------------------------------------------------
# the explorer and the action abstraction
# ---------------------------------------------------------------------------

class TestExplorer:
    def explore(self, name, **kwargs):
        chart, source, system = build_fixture(name)
        from repro.action.check import Checker, Externals
        from repro.action.parser import parse_with_preamble

        program = parse_with_preamble(source)
        checked = Checker(program, Externals.from_chart(chart)).analyze()
        actions = abstract_actions(chart, checked)
        return Explorer(system.pla, actions, **kwargs).explore()

    def test_safe_fixture_space_is_tiny_and_complete(self):
        space = self.explore("safe")
        assert space.complete
        configs = {node[0] for node in space.nodes}
        assert all(len(c) == 3 for c in configs)  # Root + Main + one child
        assert len(space.nodes) == 3

    def test_mid_step_condition_writes_are_ordered(self):
        # Begin() runs SetTrue(BUSY) as a top-level builtin: the successor
        # node must carry BUSY=true exactly (a must effect, not a fork).
        space = self.explore("safe")
        work = [n for n in space.nodes if "Work" in n[0]]
        assert work and all("BUSY" in n[1] for n in work)
        idle = [n for n in space.nodes if "Idle" in n[0]]
        assert idle and all("BUSY" not in n[1] for n in idle)

    def test_depth_bound_truncates_honestly(self):
        space = self.explore("bounded", depth=5)
        assert not space.complete
        assert "depth" in space.truncation

    def test_decision_events_prune_dead_alphabet(self):
        # In the safe chart only GO/STOP ever appear in an AND-plane
        # row, and at Idle only GO's row is live.
        space = self.explore("safe")
        for node, decisions in space.decisions.items():
            assert set(decisions) <= {"GO", "STOP"}
            if any(s == "Idle" for s in node[0]):
                assert set(decisions) == {"GO"}


class TestTruncationCaps:
    """The input-alphabet and fork caps truncate honestly: the space is
    incomplete, names the cap, and no property comes back proved."""

    FORK_CHART = """
chart forks;
event GO period 1000;
condition FLAG;
orstate Main { contains Idle, Run; default Idle; }
basicstate Idle { transition { target Run; label "GO/Decide()"; } }
basicstate Run { transition { target Idle; label "GO [FLAG]"; } }
"""
    FORK_ROUTINES = """
int:16 level;
void Decide() {
  level = level + 1;
  if (level > 3) {
    SetTrue(FLAG);
  }
}
"""

    def assert_undecided(self, result, cap):
        assert result.space.complete is False
        assert cap in result.space.truncation
        codes = {d.code for d in result.diagnostics}
        assert "PSC604" in codes
        assert not codes & {"PSC603", "PSC610"}

    def test_decision_event_cap(self, monkeypatch):
        # Work has two live events (GO, STOP); Idle has one
        monkeypatch.setattr(explorer_module, "MAX_DECISION_EVENTS", 1)
        chart, source, system = build_fixture("safe")
        props = (FIXTURES / "safe" / "properties.txt").read_text()
        result = check_system(chart, source, system, properties_text=props)
        self.assert_undecided(result, "2 decision events at one node "
                                      "exceed the cap of 1")
        work = [n for n in result.space.decisions if "Work" in n[0]]
        assert work and all(result.space.decisions[n] == ("GO",)
                            for n in work)

    def test_fork_cap(self, monkeypatch):
        # Decide() sets FLAG only under an `if`: a two-way may fork
        monkeypatch.setattr(explorer_module, "MAX_FORKS_PER_STEP", 1)
        chart = parse_chart(self.FORK_CHART)
        arch = select_initial_architecture(chart, self.FORK_ROUTINES)
        system = build_system(chart, self.FORK_ROUTINES, arch)
        result = check_system(chart, self.FORK_ROUTINES, system,
                              properties_text="never Idle while Run\n")
        self.assert_undecided(result, "2 abstraction forks at one step "
                                      "exceed the cap of 1")
        assert result.space.abstraction_forks == 0


# ---------------------------------------------------------------------------
# verdicts end to end
# ---------------------------------------------------------------------------

class TestCheckSystem:
    def test_rejects_a_source_the_system_was_not_built_from(self):
        chart, source, system = build_fixture("safe")
        with pytest.raises(ValueError, match="routine source"):
            check_system(chart, source + "int:16 spare;\n", system)

    def test_violating_chart_produces_replaying_witnesses(self, tmp_path):
        chart, source, system = build_fixture("violating")
        result = check_system(chart, source, system,
                              witness_dir=str(tmp_path), label="v")
        assert result.violated
        violated = [v for v in result.verdicts if v.status == "violated"]
        assert len(violated) == 2
        for verdict in violated:
            assert verdict.witness is not None
            assert verdict.witness.replayed is True
            assert len(verdict.witness_files) == 2
            for path in verdict.witness_files:
                assert os.path.exists(path)

    def test_witness_roundtrip_and_fresh_replay(self, tmp_path):
        chart, source, system = build_fixture("violating")
        result = check_system(chart, source, system,
                              witness_dir=str(tmp_path), label="v")
        verdict = next(v for v in result.verdicts
                       if v.status == "violated")
        witness = load_witness(verdict.witness_files[0])
        witness.replayed = None  # force a fresh verdict
        replayed, recorder = replay_witness(system, witness)
        assert replayed.replayed is True
        assert recorder.last_escalation is not None
        assert recorder.last_escalation["kind"] == "model-check"

    def test_forensics_bundle_names_the_property(self, tmp_path):
        chart, source, system = build_fixture("violating")
        result = check_system(chart, source, system,
                              witness_dir=str(tmp_path), label="v")
        verdict = next(v for v in result.verdicts
                       if v.status == "violated")
        bundle = json.loads(
            pathlib.Path(verdict.witness_files[1]).read_text())
        assert bundle["cause"]["kind"] == "model-check"
        assert bundle["cause"]["property"] == verdict.prop.text

    def test_safe_chart_proves_everything(self):
        chart, source, system = build_fixture("safe")
        props = (FIXTURES / "safe" / "properties.txt").read_text()
        result = check_system(chart, source, system,
                              properties_text=props)
        assert result.complete and not result.violated
        assert all(v.status == "proved" for v in result.verdicts)

    def test_bound_exhausted_is_not_a_proof(self):
        chart, source, system = build_fixture("bounded")
        props = (FIXTURES / "bounded" / "properties.txt").read_text()
        result = check_system(chart, source, system,
                              properties_text=props, depth=5)
        assert not result.complete
        assert all(v.status == "bound-exhausted" for v in result.verdicts)

    def test_property_errors_check_nothing(self):
        chart, source, system = build_fixture("safe")
        result = check_system(chart, source, system,
                              properties_text="never Ghost while Work\n")
        assert result.truncation == "property errors"
        assert result.verdicts == ()
        assert result.errors >= 1


# ---------------------------------------------------------------------------
# the CLI and its goldens
# ---------------------------------------------------------------------------

@pytest.fixture
def repo_cwd(monkeypatch):
    monkeypatch.chdir(REPO)


class TestCheckCli:
    def test_violating_fixture_matches_golden(self, repo_cwd):
        status, text = check_fixture("violating")
        assert status == 1
        assert text == (GOLDEN / "check_violating.txt").read_text()

    def test_safe_fixture_matches_golden(self, repo_cwd):
        status, text = check_fixture(
            "safe", "--properties", "tests/fixtures/bmc/safe/properties.txt")
        assert status == 0
        assert text == (GOLDEN / "check_safe.txt").read_text()

    def test_bounded_fixture_matches_golden(self, repo_cwd):
        status, text = check_fixture(
            "bounded", "--properties",
            "tests/fixtures/bmc/bounded/properties.txt", "--depth", "5")
        assert status == 3
        assert text == (GOLDEN / "check_bounded.txt").read_text()

    def test_bounded_fixture_proves_at_full_depth(self, repo_cwd):
        status, text = check_fixture(
            "bounded", "--properties",
            "tests/fixtures/bmc/bounded/properties.txt")
        assert status == 0
        assert "PSC603" in text

    def test_witness_dir_writes_artifacts(self, repo_cwd, tmp_path):
        status, text = check_fixture("violating", "--witness-dir",
                                     str(tmp_path))
        assert status == 1
        names = sorted(os.listdir(tmp_path))
        assert names == ["chart.p0.forensics.json", "chart.p0.witness.json",
                         "chart.p1.forensics.json", "chart.p1.witness.json"]
        assert "[witness: chart.p0.witness.json]" in text

    def test_sarif_runs_are_byte_identical(self, repo_cwd):
        _, first = check_fixture("violating", "--format", "sarif")
        _, second = check_fixture("violating", "--format", "sarif")
        assert first == second
        assert json.loads(first)["version"] == "2.1.0"

    def test_smd_workload_matches_golden(self):
        status, text = invoke(["check", "--workload", "smd"])
        assert status == 0
        assert text == (GOLDEN / "check_smd.txt").read_text()
        # the previously heuristic deadline claims are now proofs
        assert text.count("PSC610") == 4

    def test_missing_properties_file_exits_2(self, repo_cwd):
        status, _ = check_fixture("safe", "--properties", "no/such/file")
        assert status == 2

    def test_unknown_property_name_exits_2(self, repo_cwd, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("never Ghost while Armed\n")
        status, text = check_fixture("violating", "--properties", str(bad))
        assert status == 2
        assert "PSC601" in text

    def test_unparseable_routines_exit_2_not_crash(self, tmp_path):
        (tmp_path / "chart.sc").write_text(
            (FIXTURES / "safe" / "chart.sc").read_text())
        (tmp_path / "routines.c").write_text("routine Broken() {}\n")
        status, text = invoke(["check", str(tmp_path)])
        assert status == 2
        assert "PSC301" in text


class TestChartPropertyRoundtrip:
    def test_emit_chart_preserves_properties(self):
        from repro.statechart.parser import emit_chart

        chart = parse_chart((FIXTURES / "violating" / "chart.sc").read_text())
        text = emit_chart(chart)
        assert 'property "never Armed while Running";' in text
        reparsed = parse_chart(text)
        assert ([p.text for p in reparsed.properties]
                == [p.text for p in chart.properties])

    def test_escaped_quotes_survive_roundtrip(self):
        from repro.statechart.parser import emit_chart

        chart = parse_chart("chart q;\nevent GO;\n"
                            "orstate Main { contains A; default A; }\n"
                            "basicstate A { }\n")
        chart.add_property('never A while A')
        assert [p.text for p in parse_chart(emit_chart(chart)).properties] \
            == ["never A while A"]
