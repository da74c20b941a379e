"""Tests for the end-to-end flow and the iterative improvement ladder."""

import pytest

from repro.flow import (
    Improver,
    build_system,
    select_initial_architecture,
)
from repro.flow.build import specialize_routines
from repro.isa import MD16_TEP, MINIMAL_TEP, StorageClass
from repro.statechart import ChartBuilder


def small_chart():
    b = ChartBuilder("small")
    b.event("GO", period=800)
    b.event("TOCK")
    with b.or_state("Top", default="A"):
        b.basic("A").transition("B", label="GO/Work(3)")
        b.basic("B").transition("A", label="TOCK/Cool()")
    return b.build()


SMALL_SRC = """
int:16 total;
void Work(int:16 k) {
  int:16 i = 0;
  @bound(12) while (i < k * 4) {
    total = total + i;
    i = i + 1;
  }
}
void Cool() { total = total >> 1; }
"""


class TestBuildSystem:
    def test_produces_all_artifacts(self):
        system = build_system(small_chart(), SMALL_SRC, MD16_TEP)
        assert system.compiled.objects
        assert system.pla.product_terms > 0
        assert set(system.transition_costs) == {0, 1}
        assert system.critical_paths()["GO"] > 0

    def test_machine_runs_from_built_system(self):
        system = build_system(small_chart(), SMALL_SRC, MD16_TEP)
        machine = system.make_machine()
        machine.step({"GO"})
        assert machine.in_state("B")
        assert machine.read_global("total") == sum(range(12))

    def test_area_scales_with_arch(self):
        chart = small_chart()
        one = build_system(chart, SMALL_SRC, MD16_TEP).area().total_clbs
        two = build_system(chart, SMALL_SRC,
                           MD16_TEP.with_(n_teps=2)).area().total_clbs
        assert two > one

    def test_decoder_rom_nonempty(self):
        system = build_system(small_chart(), SMALL_SRC, MD16_TEP)
        assert system.decoder_rom().size_words > 0

    def test_app_stats_from_chart(self):
        system = build_system(small_chart(), SMALL_SRC, MD16_TEP)
        stats = system.app_stats()
        assert stats.transitions == 2
        assert stats.cr_bits == system.pla.layout.width


class TestInitialArchitectureSelection:
    def test_16bit_muldiv_selected_for_wide_mul(self):
        arch = select_initial_architecture(small_chart(), SMALL_SRC)
        assert arch.data_width == 16
        assert arch.has_muldiv

    def test_8bit_for_narrow_code(self):
        b = ChartBuilder("narrow")
        b.event("E", period=500)
        with b.or_state("T", default="S"):
            b.basic("S").transition("S", label="E/Bump()")
        chart = b.build()
        src = "int:8 c; void Bump() { c = c + 1; }"
        arch = select_initial_architecture(chart, src)
        assert arch.data_width == 8
        assert not arch.has_muldiv


class TestSpecialization:
    def chart_and_src(self):
        b = ChartBuilder("spec")
        b.event("P", period=400)
        with b.or_state("T", default="S"):
            b.basic("S").transition("S", label="P/Tick(2)")
        chart = b.build()
        src = """
        int:16 slots[4];
        void Tick(int:16 m) { slots[m] = slots[m] + 1; }
        """
        return chart, src

    def test_specialized_clone_created_and_cheaper(self):
        chart, src = self.chart_and_src()
        plain = build_system(chart, src, MD16_TEP)
        specialized = build_system(chart, src, MD16_TEP, specialize=True)
        assert any(name.startswith("Tick_") for name
                   in specialized.compiled.objects)
        assert specialized.transition_costs[0] < plain.transition_costs[0]

    def test_specialized_machine_still_correct(self):
        chart, src = self.chart_and_src()
        system = build_system(chart, src, MD16_TEP, specialize=True)
        machine = system.make_machine()
        machine.step({"P"})
        machine.step({"P"})
        slots = system.compiled.allocator.locations["slots"]
        values = machine.executor.read_variable(slots)
        # element 2 incremented twice: value 2 sits in the third word group
        element = (values >> (2 * 16)) & 0xFFFF
        assert element == 2

    def test_original_chart_untouched(self):
        chart, src = self.chart_and_src()
        build_system(chart, src, MD16_TEP, specialize=True)
        assert chart.transitions[0].action == "Tick(2)"

    def test_assigned_parameter_not_folded(self):
        b = ChartBuilder("nospec")
        b.event("P", period=400)
        with b.or_state("T", default="S"):
            b.basic("S").transition("S", label="P/Tick(2)")
        chart = b.build()
        src = """
        int:16 x;
        void Tick(int:16 m) { m = m + 1; x = m; }
        """
        system = build_system(chart, src, MD16_TEP, specialize=True)
        assert not any(name.startswith("Tick_")
                       for name in system.compiled.objects)


class TestImprover:
    def test_trajectory_recorded(self):
        improver = Improver(small_chart(), SMALL_SRC)
        result = improver.run()
        assert result.steps
        assert result.steps[0].rung == "baseline"
        rungs = [step.rung for step in result.steps]
        assert rungs == sorted(set(rungs), key=rungs.index)  # no repeats

    def test_already_meeting_constraints_stops_at_baseline(self):
        b = ChartBuilder("easy")
        b.event("E", period=100000)
        with b.or_state("T", default="S"):
            b.basic("S").transition("S", label="E/Nop()")
        chart = b.build()
        improver = Improver(chart, "void Nop() { }")
        result = improver.run()
        assert result.success
        assert len(result.steps) == 1

    def test_baseline_meeting_constraints_builds_once(self, monkeypatch):
        import repro.flow.improve as improve

        builds = []

        def counting_build(*args, **kwargs):
            builds.append(args)
            return build_system(*args, **kwargs)

        monkeypatch.setattr(improve, "build_system", counting_build)
        b = ChartBuilder("easy")
        b.event("E", period=100000)
        with b.or_state("T", default="S"):
            b.basic("S").transition("S", label="E/Nop()")
        result = Improver(b.build(), "void Nop() { }").run()
        assert [step.rung for step in result.steps] == ["baseline"]
        assert len(builds) == 1

    def test_peephole_rung_reduces_critical_path(self):
        improver = Improver(small_chart(), SMALL_SRC,
                            initial_arch=MD16_TEP)
        result = improver.run()
        by_rung = {step.rung: step for step in result.steps}
        if "peephole" in by_rung:
            assert by_rung["peephole"].critical_paths["GO"] < \
                by_rung["baseline"].critical_paths["GO"]

    def test_tight_constraint_escalates_to_more_teps(self):
        b = ChartBuilder("tight")
        b.event("FAST", period=60)
        b.event("OTHER")
        with b.and_state("W"):
            with b.or_state("A", default="A1"):
                b.basic("A1").transition("A1", label="FAST/Quick()")
            with b.or_state("B", default="B1"):
                b.basic("B1").transition("B1", label="OTHER/Slow()")
        chart = b.build()
        src = """
        int:16 a;
        int:16 s;
        void Quick() { a = a + 1; }
        void Slow() {
          int:16 i = 0;
          @bound(10) while (i < 10) { s = s + i; i = i + 1; }
        }
        """
        improver = Improver(chart, src, max_teps=2)
        result = improver.run()
        rungs = [step.rung for step in result.steps]
        assert "add-tep" in rungs
        final_arch = result.steps[-1].arch
        assert final_arch.n_teps == 2

    def test_area_grows_along_ladder(self):
        improver = Improver(small_chart(), SMALL_SRC,
                            initial_arch=MINIMAL_TEP)
        result = improver.run()
        # the last rung (if TEPs were added) must cost more than baseline
        if result.steps[-1].arch.n_teps > 1:
            assert result.steps[-1].area_clbs > result.steps[0].area_clbs

    def test_trajectory_table_shape(self):
        improver = Improver(small_chart(), SMALL_SRC)
        result = improver.run()
        table = result.trajectory_table()
        assert all(len(row) == 3 for row in table)
