"""Guilty-stage attribution: the oracle's ordered sweep stops at the first
diverging stage, and every stage before it ran clean."""

import pytest

from repro.fuzz import (
    Divergence,
    FuzzCampaign,
    GeneratorConfig,
    OracleHarness,
    generate_spec,
    plant_canary,
)


def _canary_harness(stage, seeds=range(7919, 7940), cycles=20):
    for seed in seeds:
        spec = generate_spec(seed)
        mutation = plant_canary(spec, stage=stage, cycles=cycles)
        if mutation is not None:
            return OracleHarness(spec, cycles=cycles, mutation=mutation)
    raise AssertionError(f"no plantable seed for {stage!r}")


class TestSweepAttribution:
    @pytest.mark.parametrize("stage", ["baseline", "promote-internal"])
    def test_canary_first_caught_at_planted_stage(self, stage):
        harness = _canary_harness(stage)
        result = harness.run_all()
        assert result.divergence is not None
        assert result.divergence.stage == stage
        assert result.stages_run == harness.stage_names().index(stage) + 1

    def test_clean_harness_reports_no_divergence(self):
        harness = OracleHarness(generate_spec(1), cycles=15)
        result = harness.run_all()
        assert result.clean
        assert result.divergence is None
        assert result.stages_run == len(harness.stage_names())


class TestCampaignAttribution:
    """A divergence that is not monotone down the ladder still names the
    stage the sweep stopped at."""

    def _outcome(self, monkeypatch, diverging):
        """One unshrunk campaign chart whose stages diverge exactly where
        ``diverging(index, count)`` says so."""

        def run_stage(harness, index):
            names = harness.stage_names()
            if diverging(index, len(names)):
                return Divergence(names[index], 0, "configuration",
                                  ("A",), ("B",))
            return None

        monkeypatch.setattr(OracleHarness, "run_stage", run_stage)
        report = FuzzCampaign(
            seed=5, charts=1, cycles=10, max_rungs=3, shrink=False,
            config=GeneratorConfig(max_states=8,
                                   max_extra_transitions=2)).run()
        (outcome,) = report.outcomes
        assert outcome.status == "diverged"
        return outcome

    def test_first_and_last_stage_diverge(self, monkeypatch):
        outcome = self._outcome(
            monkeypatch, lambda index, count: index in (0, count - 1))
        assert outcome.guilty_stage == outcome.divergence.stage
        assert outcome.guilty_stage == outcome.stages[0]
        assert outcome.bisect_verified is True
        assert outcome.stages_checked == 1

    def test_only_a_middle_stage_diverges(self, monkeypatch):
        outcome = self._outcome(
            monkeypatch, lambda index, count: index == count // 2)
        assert outcome.guilty_stage == outcome.divergence.stage
        middle = len(outcome.stages) // 2
        assert outcome.guilty_stage == outcome.stages[middle]
        assert outcome.bisect_verified is True
        assert outcome.stages_checked == middle + 1
