"""Unit tests for the flow profile: the improvement ladder's per-rung table
and ``improvement_profile`` JSON, both computed from
:attr:`~repro.flow.ImprovementResult.steps`.

``tests/test_obs.py`` runs the profile end to end once; these tests build
the steps by hand and pin down the accounting itself: delta computation
against the previous rung (including the first-rung zero conventions and
events that appear mid-ladder), the JSON shape, and the table rows.
"""

from repro.flow import (
    ImprovementResult,
    LadderStep,
    improvement_profile_json,
    improvement_profile_report,
)
from repro.isa import MD16_TEP


def step(rung, area_clbs, n_violations, critical_paths, wall_seconds=0.0,
         description=""):
    return LadderStep(rung=rung, description=description, arch=MD16_TEP,
                      storage_map={}, critical_paths=critical_paths,
                      n_violations=n_violations, area_clbs=area_clbs,
                      wall_seconds=wall_seconds)


def result(*steps):
    return ImprovementResult(list(steps), final=None)


def profile_rungs(*steps):
    return improvement_profile_json(result(*steps))["rungs"]


class TestRungAccounting:
    def test_first_rung_deltas_are_zero(self):
        (rung,) = profile_rungs(
            step("baseline", 100, 1, {"GO": 7, "BACK": 5}))
        assert rung["area_delta"] == 0
        assert rung["critical_path_deltas"] == {"GO": 0, "BACK": 0}

    def test_deltas_against_previous_rung(self):
        _, rung = profile_rungs(
            step("baseline", 100, 2, {"GO": 7, "BACK": 5}),
            step("split", 88, 0, {"GO": 4, "BACK": 6}))
        assert rung["area_delta"] == -12
        assert rung["critical_path_deltas"] == {"GO": -3, "BACK": +1}

    def test_event_new_at_this_rung_gets_zero_delta(self):
        # an event with no previous-path entry compares against itself
        _, rung = profile_rungs(
            step("baseline", 100, 0, {"GO": 7}),
            step("retarget", 100, 0, {"GO": 7, "NEW": 9}))
        assert rung["critical_path_deltas"] == {"GO": 0, "NEW": 0}


class TestReadback:
    def ladder(self):
        return result(
            step("baseline", 100, 2, {"GO": 7}, wall_seconds=0.5,
                 description="first build"),
            step("split", 90, 0, {"GO": 5}, wall_seconds=0.25,
                 description="split the chart"))

    def test_total_wall_seconds_sums_rungs(self):
        ladder = self.ladder()
        assert improvement_profile_json(ladder)["total_wall_seconds"] == 0.75
        assert improvement_profile_report(ladder).endswith(
            "total rebuild time 750.0 ms over 2 rung(s)")

    def test_to_json_shape_and_rounding(self):
        document = improvement_profile_json(result(
            step("baseline", 100, 2, {"GO": 7}, wall_seconds=0.1234567891,
                 description="first build")))
        assert document["total_wall_seconds"] == 0.123457  # 6 dp
        (rung,) = document["rungs"]
        assert rung == {
            "rung": "baseline",
            "description": "first build",
            "wall_seconds": 0.123457,
            "area_clbs": 100,
            "n_violations": 2,
            "critical_paths": {"GO": 7},
            "area_delta": 0,
            "critical_path_deltas": {"GO": 0},
        }

    def test_rows_blank_delta_on_first_rung_only(self):
        lines = improvement_profile_report(self.ladder()).splitlines()
        assert lines[:6] == [
            "Improvement ladder profile",
            "+----------+------+-------+------------+---------+",
            "| Rung     | Area | ΔArea | Violations | Wall ms |",
            "+----------+------+-------+------------+---------+",
            "| baseline | 100  |       | 2          | 500.0   |",
            "| split    | 90   | -10   | 0          | 250.0   |",
        ]
