"""The flow's front end: what is computed once per chart.

A :class:`~repro.flow.build.Frontend` parses and checks a chart's routines
once per runtime-helper set and synthesizes its SLA once; every ladder rung
only compiles.  These tests show that sharing changes nothing and that the
work really happens once:

* ``tests/golden/rung_code.json`` pins the code every ladder rung emits:
  the SHA-256 of each rung's rendered ``compiled.flat_instructions()``, for
  every rung of ``Improver(chart, source).rungs()`` on the first 12 charts
  of fuzz campaign seed 1 (chart seeds 7919-7930) and on the ``check``
  workload's elevator ladder.  It was recorded before rungs shared a front
  end;
* each of those rungs equals a fresh ``build_system`` at its architecture
  point, and after the whole ladder the front end's programs still equal a
  fresh parse and check;
* call counts of ``parse_with_preamble``, ``check_program``,
  ``Checker.analyze`` and ``synthesize`` over the ``check`` workload's
  ladder, a 6-chart fuzz campaign and each CLI command: a command makes
  one front end, and lint and the model checker read its typed program.

Regenerate the golden (only when a change to the emitted code is
intended)::

    PYTHONPATH=src python tests/test_frontend.py
"""

import hashlib
import io
import json
import pathlib
import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.action.check import Externals, check_program
from repro.action.parser import parse_with_preamble
from repro.cli import run as run_cli
from repro.flow import Frontend, Improver, build_system
from repro.flow.build import specialize_routines
from repro.fuzz import FuzzCampaign, generate_spec, render_chart, render_source
from repro.isa import MD16_TEP, prepare_program
from repro.isa.codegen import required_helpers

GOLDEN = pathlib.Path(__file__).parent / "golden" / "rung_code.json"

#: campaign seed 1's first 12 charts (``seed * 7919 + index``)
CHART_SEEDS = tuple(range(7919, 7931))


def campaign_improver(seed):
    spec = generate_spec(seed)
    return Improver(render_chart(spec), render_source(spec))


def elevator_improver():
    from repro.workloads.elevator import (
        ELEVATOR_MUTUAL_EXCLUSIONS,
        ELEVATOR_ROUTINES,
        elevator_chart,
    )
    return Improver(elevator_chart(), ELEVATOR_ROUTINES,
                    initial_arch=MD16_TEP,
                    mutual_exclusions=ELEVATOR_MUTUAL_EXCLUSIONS,
                    max_teps=3)


def code_sha256(system):
    text = "\n".join(str(instruction)
                     for instruction in system.compiled.flat_instructions())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rung_code(improver):
    return [{"rung": rung.name, "sha256": code_sha256(rung.system)}
            for rung in improver.rungs()]


IMPROVERS = ([pytest.param(lambda seed=seed: campaign_improver(seed),
                           id=str(seed)) for seed in CHART_SEEDS]
             + [pytest.param(elevator_improver, id="elevator-check")])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", CHART_SEEDS)
def test_campaign_rung_code_matches_golden(golden, seed):
    assert rung_code(campaign_improver(seed)) == golden["ladder"][str(seed)]


def test_elevator_rung_code_matches_golden(golden):
    assert rung_code(elevator_improver()) == golden["elevator-check"]


# ---------------------------------------------------------------------------
# sharing changes nothing
# ---------------------------------------------------------------------------

def assert_same_system(system, fresh):
    compiled, expected = system.compiled, fresh.compiled
    assert compiled.flat_instructions() == expected.flat_instructions()
    assert compiled.allocator.locations == expected.allocator.locations
    assert (compiled.allocator.initial_values
            == expected.allocator.initial_values)
    assert system.param_names == fresh.param_names
    assert system.transition_costs == fresh.transition_costs
    assert dict(compiled.wcets()) == dict(expected.wcets())
    assert system.pla.transition_terms == fresh.pla.transition_terms
    assert system.pla.guards == fresh.pla.guards
    assert system.pla.next_state == fresh.pla.next_state


def assert_programs_untouched(frontend, archs):
    """The front end's programs equal a fresh parse and check: AST
    dataclasses compare by value, ``typ`` annotations included."""
    fresh = check_program(parse_with_preamble(frontend.source),
                          frontend.externals)
    assert frontend.typed.program == fresh.program
    for arch in archs:
        assert frontend.checked(arch).program == prepare_program(
            frontend.source, arch, frontend.externals).program


@pytest.mark.parametrize("make_improver", IMPROVERS)
def test_rungs_equal_fresh_builds(make_improver):
    improver = make_improver()
    frontend = improver.frontend
    rungs = list(improver.rungs())
    for rung in rungs:
        fresh = build_system(frontend.chart, frontend.source, rung.arch,
                             storage_map=rung.storage_map)
        assert_same_system(rung.system, fresh)
    assert_programs_untouched(frontend, [rung.arch for rung in rungs])


def test_specialized_build_leaves_plain_builds_alone():
    from repro.workloads import SMD_ROUTINES, smd_chart

    frontend = Frontend(smd_chart(), SMD_ROUTINES)
    specialized = frontend.build(MD16_TEP, specialize=True)
    assert "DeltaT_0" in specialized.param_names
    plain = frontend.build(MD16_TEP)
    assert "DeltaT_0" not in plain.param_names
    assert_same_system(plain, build_system(smd_chart(), SMD_ROUTINES,
                                           MD16_TEP))
    assert_programs_untouched(frontend, [MD16_TEP])


def test_specialize_routines_copies_the_function_list():
    from repro.workloads import SMD_ROUTINES, smd_chart

    chart = smd_chart()
    externals = Externals.from_chart(chart)
    checked = prepare_program(SMD_ROUTINES, MD16_TEP, externals)
    before = [f.name for f in checked.program.functions]
    _, specialized = specialize_routines(
        chart, checked, Frontend(chart, SMD_ROUTINES).calls)
    assert [f.name for f in checked.program.functions] == before
    assert [f.name for f in specialized.program.functions] == before + [
        "StartMotor_0_0", "DeltaT_0", "StartMotor_1_1", "DeltaT_1",
        "StartMotor_2_2", "DeltaT_2"]


def smd_source():
    from repro.workloads import SMD_ROUTINES, smd_chart

    return smd_chart(), SMD_ROUTINES, MD16_TEP


def elevator_source():
    from repro.workloads.elevator import ELEVATOR_ROUTINES, elevator_chart

    return elevator_chart(), ELEVATOR_ROUTINES, MD16_TEP


def campaign_source(seed):
    spec = generate_spec(seed)
    chart, source = render_chart(spec), render_source(spec)
    return chart, source, Frontend(chart, source).initial_architecture()


SOURCES = ([pytest.param(smd_source, id="smd"),
            pytest.param(elevator_source, id="elevator")]
           + [pytest.param(lambda seed=seed: campaign_source(seed),
                           id=str(seed)) for seed in CHART_SEEDS])


@pytest.mark.parametrize("make_source", SOURCES)
def test_specialized_program_equals_a_full_check(make_source):
    import copy

    chart, source, arch = make_source()
    frontend = Frontend(chart, source)
    _, specialized = specialize_routines(chart, frontend.checked(arch),
                                         frontend.calls)
    full = check_program(copy.deepcopy(specialized.program),
                         frontend.externals)
    assert specialized.program == full.program
    assert specialized.global_types == full.global_types
    assert specialized.call_order == full.call_order


# ---------------------------------------------------------------------------
# the work happens once
# ---------------------------------------------------------------------------

COUNTED = (("repro.action.parser", "parse_with_preamble"),
           ("repro.action.check", "check_program"),
           ("repro.action.check", "Checker.analyze"),
           ("repro.sla.synth", "synthesize"))


@pytest.fixture
def calls(monkeypatch):
    """Counts calls through every module binding of :data:`COUNTED`, and
    through the class of a method."""
    counts = Counter()
    for module_name, name in COUNTED:
        owner = sys.modules[module_name]
        *classes, attribute = name.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        raw = vars(owner)[attribute]

        def counting(*args, _raw=raw, _name=name, **kwargs):
            counts[_name] += 1
            return _raw(*args, **kwargs)

        if classes:
            monkeypatch.setattr(owner, attribute, counting)
            continue
        for module_key, module in list(sys.modules.items()):
            if not module_key.startswith("repro") or module is None:
                continue
            for binding, value in list(vars(module).items()):
                if value is raw:
                    monkeypatch.setattr(module, binding, counting)
    return counts


def test_check_ladder_parses_once_per_helper_set(calls):
    improver = elevator_improver()
    rungs = list(improver.rungs())
    helper_sets = {()} | {
        tuple(required_helpers(improver.frontend.typed.program, rung.arch))
        for rung in rungs}
    assert len(rungs) == 7
    # one parse and one check per helper set: the front end checks the
    # helper-free program itself and check_program each helper-spliced
    # one, both through Checker.analyze
    assert calls["parse_with_preamble"] == len(helper_sets)
    assert calls["Checker.analyze"] == len(helper_sets)
    assert calls["check_program"] == len(helper_sets) - 1
    assert calls["synthesize"] == 1
    assert len(helper_sets) == 1


@pytest.mark.parametrize("bmc", [False, True], ids=["plain", "bmc"])
def test_fuzz_campaign_parses_each_chart_once(calls, bmc):
    report = FuzzCampaign(seed=1, charts=6, bmc=bmc).run()
    assert report.counts() == {"clean": 6}
    # per chart: the ladder's front end (none of these six charts needs a
    # runtime helper); lint and the model checker read its typed program
    assert calls == {"parse_with_preamble": 6, "Checker.analyze": 6,
                     "synthesize": 6}


ROOT = pathlib.Path(__file__).resolve().parents[1]
SAFE = ROOT / "tests" / "fixtures" / "bmc" / "safe"
SMD = str(ROOT / "examples" / "smd")

#: commands that read routines; before lint and the model checker read the
#: command's one front end, each parsed them two or three times (``serve``
#: once)
COMMANDS = {
    "lint-workload-smd": ["lint", "--workload", "smd"],
    "lint-workload-elevator": ["lint", "--workload", "elevator"],
    "check-workload-smd": ["check", "--workload", "smd"],
    "check-workload-elevator": ["check", "--workload", "elevator"],
    "lint-smd": ["lint", SMD],
    "check-smd": ["check", SMD],
    "lint-safe": ["lint", str(SAFE)],
    "check-safe": ["check", str(SAFE)],
    "stats-safe": ["stats", str(SAFE)],
    "flow-safe": [str(SAFE / "chart.sc"), str(SAFE / "routines.c")],
    "serve-smd": ["serve", SMD, "--items", "4"],
}


@pytest.mark.parametrize("argv", list(COMMANDS.values()), ids=list(COMMANDS))
def test_each_command_parses_once(calls, argv):
    assert run_cli(argv, out=io.StringIO()) == 0
    assert calls["parse_with_preamble"] == 1
    # a specialized build checks only its clones (Checker.extend)
    assert calls["Checker.analyze"] == 1


# ---------------------------------------------------------------------------
# the campaign lints the baseline rung
# ---------------------------------------------------------------------------

def test_campaign_lint_reports_shadowed_transition():
    spec = generate_spec(7919)
    first = spec.transitions[0]
    spec.transitions.insert(1, replace(first, target=first.source))
    outcome = FuzzCampaign(seed=1, charts=1)._run_one(0, 7919, spec)
    assert outcome.status == "lint-error"
    assert outcome.lint_errors == [
        "error PSC201: transition S0 --E3 [C0] /Act0()--> S0 can never "
        "fire: S0 --E3 [C0] /Act0()--> S8 has priority and its enabling "
        "condition covers it [hint: reorder the transitions or make the "
        "triggers/guards disjoint]"]


def record():
    return {
        "ladder": {str(seed): rung_code(campaign_improver(seed))
                   for seed in CHART_SEEDS},
        "elevator-check": rung_code(elevator_improver()),
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
