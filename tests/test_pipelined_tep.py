"""Tests for the pipelined TEP extension (section 6's future work)."""

import pytest

from repro.flow import Improver, build_system
from repro.hw import tep_area_clbs
from repro.isa import (
    Imm,
    Instruction,
    LabelRef,
    MD16_TEP,
    Mem,
    Op,
    cycle_cost,
    prepare_program,
    CodeGenerator,
)
from repro.isa.microcode import PIPELINE_FLUSH_CYCLES
from repro.pscp.tep import ProgramImage, Tep
from repro.statechart import ChartBuilder

PIPELINED = MD16_TEP.with_(pipelined=True, name="md16-pipe")


class TestCycleCosts:
    def test_straight_line_instructions_cheaper(self):
        for instruction in [Instruction(Op.LDA, Imm(1)),
                            Instruction(Op.ADD, Mem(0)),
                            Instruction(Op.STA, Mem(1)),
                            Instruction(Op.NOT)]:
            assert cycle_cost(instruction, PIPELINED) < \
                cycle_cost(instruction, MD16_TEP), instruction

    def test_fetch_fully_hidden(self):
        plain = cycle_cost(Instruction(Op.NOT), MD16_TEP)
        piped = cycle_cost(Instruction(Op.NOT), PIPELINED)
        assert piped == plain - 2  # the two fetch states

    def test_control_transfers_pay_flush(self):
        jump_plain = cycle_cost(Instruction(Op.JMP, LabelRef("x", 0)), MD16_TEP)
        jump_piped = cycle_cost(Instruction(Op.JMP, LabelRef("x", 0)), PIPELINED)
        # fetch hidden (-2) but flush paid (+2): a wash for JMP
        assert jump_piped == jump_plain - 2 + PIPELINE_FLUSH_CYCLES

    def test_minimum_one_cycle(self):
        for op in Op:
            instruction = {
                Op.LDA: Instruction(Op.LDA, Imm(0)),
                Op.JMP: Instruction(Op.JMP, LabelRef("x", 0)),
            }.get(op)
            if instruction is None:
                continue
            assert cycle_cost(instruction, PIPELINED) >= 1


class TestCompiledCode:
    SRC = """
    int:16 total;
    void straight() {
      total = total + 1;
      total = total + 2;
      total = total + 3;
      total = total + 4;
      total = total + 5;
      total = total + 6;
    }
    void loopy(int:16 n) {
      @bound(20) while (n > 0) { total = total + n; n = n - 1; }
    }
    void branchy(int:16 n) {
      if (n == 0) { total = 1; }
      else if (n == 1) { total = 2; }
      else if (n == 2) { total = 3; }
      else if (n == 3) { total = 4; }
      else { total = 5; }
    }
    """

    def _wcets(self, arch):
        checked = prepare_program(self.SRC, arch)
        return CodeGenerator(checked, arch).compile().wcets()

    def test_gains_follow_branch_density(self):
        plain = self._wcets(MD16_TEP)
        piped = self._wcets(PIPELINED)
        gains = {name: plain[name] / piped[name]
                 for name in ("straight", "loopy", "branchy")}
        # everything gains, but branch-dense code gains least — the classic
        # pipelining trade-off
        assert all(gain > 1.0 for gain in gains.values()), gains
        assert gains["straight"] > gains["branchy"]

    def test_simulator_matches_pipelined_costs(self):
        arch = PIPELINED
        checked = prepare_program(self.SRC, arch)
        compiled = CodeGenerator(checked, arch).compile()
        tep = Tep(ProgramImage.link(arch, compiled.flat_instructions()))
        tep.load_memory(compiled.allocator.initial_values)
        cycles = tep.run("straight")
        assert cycles <= compiled.wcets()["straight"]
        assert tep.read_variable(compiled.allocator.locations["total"]) == 21


class TestAreaAndFlow:
    def test_pipeline_costs_area(self):
        assert tep_area_clbs(PIPELINED) > tep_area_clbs(MD16_TEP)

    def test_improver_pipeline_rung_opt_in(self):
        b = ChartBuilder("pipe")
        b.event("E", period=220)
        with b.or_state("T", default="S"):
            b.basic("S").transition("S", label="E/Work()")
        chart = b.build()
        src = """
        int:16 a;
        void Work() {
          a = a + 1;
          a = a + 2;
          a = a + 3;
          a = a + 4;
          a = a + 5;
          a = a + 6;
          a = a + 7;
        }
        """
        with_pipe = Improver(chart, src, initial_arch=MD16_TEP,
                             allow_pipelining=True, max_teps=1).run()
        without = Improver(chart, src, initial_arch=MD16_TEP,
                           max_teps=1).run()
        assert "pipeline" not in [s.rung for s in without.steps]
        rungs = [s.rung for s in with_pipe.steps]
        if not without.success:
            assert "pipeline" in rungs
            pipe_step = next(s for s in with_pipe.steps
                             if s.rung == "pipeline")
            previous = with_pipe.steps[rungs.index("pipeline") - 1]
            assert pipe_step.critical_paths["E"] < \
                previous.critical_paths["E"]

    def test_describe_mentions_pipelining(self):
        assert "pipelined" in PIPELINED.describe()
