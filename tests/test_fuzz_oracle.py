"""Multi-rung differential oracle: clean ladders, canary detection,
divergence monotonicity."""

import pytest

from repro.fuzz import (
    OracleHarness,
    apply_mutation,
    generate_spec,
    plant_canary,
    render_chart,
    render_source,
    spec_to_json,
)
from repro.flow import Improver
from repro.fuzz.oracle import EXTRA_STAGES, Divergence, WcetWatch
from repro.isa import MD16_TEP
from repro.pscp import DISPATCH_OVERHEAD_CYCLES, MachineObserver
from repro.statechart import ChartBuilder


def first_plantable(stage, seeds=range(7919, 7940), cycles=20):
    """First (spec, mutation) pair where a canary plants at *stage*."""
    for seed in seeds:
        spec = generate_spec(seed)
        mutation = plant_canary(spec, stage=stage, cycles=cycles)
        if mutation is not None:
            return spec, mutation
    raise AssertionError(f"no plantable seed for stage {stage!r}")


class TestLadder:
    def test_rung_names_mirror_improver(self):
        """``run()`` evaluates a prefix of ``Improver.rungs()``, and the
        oracle's stages are every rung of the same ladder."""
        tight = ChartBuilder("tight")
        tight.event("E", period=40)
        with tight.or_state("T", default="S"):
            tight.basic("S").transition("S", label="E/Work()")
        work = "int:16 a;\nvoid Work() { a = a + 1; a = a + 2; a = a + 3; }"
        spec = generate_spec(1)
        walked = []
        for improver in (
                Improver(render_chart(spec), render_source(spec)),
                Improver(tight.build(), work, initial_arch=MD16_TEP)):
            rungs = list(improver.rungs())
            steps = improver.run().steps
            assert ([(s.rung, s.arch, s.storage_map) for s in steps]
                    == [(r.name, r.arch, r.storage_map)
                        for r in rungs[:len(steps)]])
            walked.append(
                (len(steps), len(rungs), steps[-1].meets_constraints))
        # the generated chart meets timing at the baseline; the tight one
        # meets it nowhere, so run() evaluates every rung
        assert walked == [(1, 6, True), (5, 5, False)]

        harness = OracleHarness(spec, cycles=10)
        rungs = list(Improver(harness.chart, harness.source).rungs())
        assert harness.stage_names() == (
            [rung.name for rung in rungs] + list(EXTRA_STAGES))
        assert ([(r.arch, r.storage_map) for r in harness.rungs()]
                == [(r.arch, r.storage_map) for r in rungs])

    def test_stage_names_include_extra_stages(self):
        harness = OracleHarness(generate_spec(1), cycles=10)
        names = harness.stage_names()
        for extra in EXTRA_STAGES:
            assert extra in names
        assert names[-len(EXTRA_STAGES):] == list(EXTRA_STAGES)

    def test_max_rungs_truncates(self):
        harness = OracleHarness(generate_spec(1), cycles=10, max_rungs=1)
        assert harness.stage_names() == ["baseline", *EXTRA_STAGES]


class TestCleanOracle:
    @pytest.mark.parametrize("seed", [1, 2, 5, 7919])
    def test_every_stage_agrees(self, seed):
        """Zero divergence across all rungs, snapshot/restore and the
        delta-chain reconstruction — the fuzzer's core invariant."""
        harness = OracleHarness(generate_spec(seed), cycles=25)
        result = harness.run_all()
        assert result.clean, result.divergence.describe()
        assert result.stages == harness.stage_names()


class DispatchLog(MachineObserver):
    def __init__(self):
        self.dispatches = []

    def on_dispatch(self, cycle, index, completed, cost, raised,
                    port_accesses):
        self.dispatches.append((cycle, index, cost))


def first_dispatches(harness, system):
    """``(cycle, index, cost)`` of each transition's first dispatch when
    *system* runs the harness trace, in dispatch order."""
    log = DispatchLog()
    machine = system.make_machine()
    machine.attach(log)
    machine.run(harness.trace)
    seen = set()
    firsts = []
    for cycle, index, cost in log.dispatches:
        if index not in seen:
            seen.add(index)
            firsts.append((cycle, index, cost))
    return firsts


class TestWcetLeg:
    """Every machine the oracle steps checks each dispatch's cost against
    its transition's static cost (``transition_costs`` minus the dispatch
    overhead)."""

    def test_lowered_bound_reported_at_first_dispatch(self):
        harness = OracleHarness(generate_spec(7922), cycles=40)
        rung = harness.rungs()[0]
        cycle, index, cost = first_dispatches(harness, rung.system)[0]
        bound = WcetWatch(rung.system).bounds[index]
        assert cost == bound
        rung.system.transition_costs[index] -= 1
        assert harness.run_stage(0) == Divergence(
            rung.name, cycle, "wcet",
            {"transition": index, "at_most": bound - 1},
            {"transition": index, "cycles": bound})

    @pytest.mark.parametrize("stage,restored_at", [
        ("snapshot-restore", 30), ("delta-chain", 40)])
    def test_restored_machines_are_watched(self, stage, restored_at):
        """A transition first dispatched by the restored machine, its
        bound one cycle below that dispatch's cost."""
        harness = OracleHarness(generate_spec(7928), cycles=60)
        system = harness.rungs()[-1].system
        cycle, index, cost = next(
            first for first in first_dispatches(harness, system)
            if first[0] >= restored_at)
        system.transition_costs[index] = (
            cost - 1 + DISPATCH_OVERHEAD_CYCLES)
        divergence = harness.run_stage(harness.stage_names().index(stage))
        assert (divergence.stage, divergence.cycle, divergence.field) == (
            stage, cycle, "wcet")


class TestCanary:
    def test_apply_mutation_retargets_one_transition(self):
        spec, mutation = first_plantable("baseline")
        mutated = apply_mutation(spec, mutation)
        assert mutated is not None
        before = spec_to_json(spec)
        after = spec_to_json(mutated)
        assert before != after
        # exactly one transition's target changed
        changed = [
            (b, a)
            for b, a in zip(_transitions(before), _transitions(after))
            if b != a
        ]
        assert len(changed) == 1
        assert changed[0][1]["target"] == mutation.new_target

    def test_canary_detected_at_planted_stage(self):
        spec, mutation = first_plantable("promote-internal")
        harness = OracleHarness(spec, cycles=20, mutation=mutation)
        names = harness.stage_names()
        planted = names.index("promote-internal")
        # stages before the mutation run the clean chart: no divergence
        for index in range(planted):
            assert harness.run_stage(index) is None, names[index]
        # the planted stage itself diverges
        divergence = harness.run_stage(planted)
        assert divergence is not None
        assert divergence.stage == "promote-internal"

    def test_canary_divergence_is_monotone(self):
        """Every stage at or after the mutation point diverges: the canary
        models a rung bug that persists down the ladder."""
        spec, mutation = first_plantable("promote-internal")
        harness = OracleHarness(spec, cycles=20, mutation=mutation)
        names = harness.stage_names()
        planted = names.index("promote-internal")
        verdicts = [harness.run_stage(i) is not None
                    for i in range(len(names))]
        assert verdicts == [i >= planted for i in range(len(names))]

    def test_snapshot_stage_canary(self):
        """A mutation planted at an extra stage is caught there and only
        there (all rung stages run the clean chart)."""
        spec = generate_spec(7922)
        mutation = plant_canary(spec, stage="snapshot-restore", cycles=20)
        assert mutation is not None
        harness = OracleHarness(spec, cycles=20, mutation=mutation)
        names = harness.stage_names()
        planted = names.index("snapshot-restore")
        for index in range(planted):
            assert harness.run_stage(index) is None
        assert harness.run_stage(planted) is not None


def _transitions(doc):
    return doc["transitions"]
