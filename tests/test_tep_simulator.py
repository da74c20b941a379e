"""Direct unit tests for the TEP simulator: flags, shifts, faults."""

import pytest

from repro.isa import (
    CustomInstruction,
    Imm,
    Instruction,
    LabelRef,
    MD16_TEP,
    MINIMAL_TEP,
    Mem,
    Op,
    PortRef,
    Reg,
    SignalRef,
    StorageClass,
    cycle_cost,
)
from repro.pscp.tep import ProgramImage, SimplePorts, Tep, TepError


def run_program(instructions, arch=MINIMAL_TEP, entry="main", ports=None,
                setup=None):
    program = [instructions[0].with_label(entry)] + list(instructions[1:])
    if program[-1].op not in (Op.RET, Op.TRET):
        program.append(Instruction(Op.RET))
    tep = Tep(ProgramImage.link(arch, program), ports=ports)
    if setup:
        setup(tep)
    tep.run(entry)
    return tep


class TestFlags:
    def test_load_sets_zero_flag(self):
        tep = run_program([Instruction(Op.LDA, Imm(0))])
        assert tep.z and not tep.n

    def test_load_sets_negative_flag(self):
        tep = run_program([Instruction(Op.LDA, Imm(0x80))])
        assert tep.n and not tep.z

    def test_load_preserves_carry(self):
        # SUB sets borrow; the following LDA must not clear it
        tep = run_program([
            Instruction(Op.LDA, Imm(1)),
            Instruction(Op.SUB, Imm(2)),     # borrow -> C set
            Instruction(Op.LDA, Imm(7)),
        ])
        assert tep.c is True

    def test_add_carry_out(self):
        tep = run_program([
            Instruction(Op.LDA, Imm(200)),
            Instruction(Op.ADD, Imm(100)),
        ])
        assert tep.c is True
        assert tep.acc == (300) & 0xFF

    def test_adc_chains_carry(self):
        tep = run_program([
            Instruction(Op.LDA, Imm(255)),
            Instruction(Op.ADD, Imm(1)),     # carry out, acc = 0
            Instruction(Op.LDA, Imm(10)),
            Instruction(Op.ADC, Imm(0)),     # 10 + 0 + carry = 11
        ])
        assert tep.acc == 11

    def test_sbc_chains_borrow(self):
        tep = run_program([
            Instruction(Op.LDA, Imm(0)),
            Instruction(Op.SUB, Imm(1)),     # borrow
            Instruction(Op.LDA, Imm(10)),
            Instruction(Op.SBC, Imm(0)),     # 10 - 0 - 1 = 9
        ])
        assert tep.acc == 9

    def test_cmp_discards_result(self):
        tep = run_program([
            Instruction(Op.LDA, Imm(5)),
            Instruction(Op.CMP, Imm(5)),
        ])
        assert tep.acc == 5 and tep.z


class TestShiftsAndRotates:
    def test_shl_carry_out(self):
        tep = run_program([Instruction(Op.LDA, Imm(0x81)),
                           Instruction(Op.SHL)])
        assert tep.acc == 0x02 and tep.c

    def test_shr_carry_out(self):
        tep = run_program([Instruction(Op.LDA, Imm(0x01)),
                           Instruction(Op.SHR)])
        assert tep.acc == 0 and tep.c and tep.z

    def test_rcl_rotates_through_carry(self):
        tep = run_program([
            Instruction(Op.LDA, Imm(0x80)),
            Instruction(Op.SHL),             # acc=0, C=1
            Instruction(Op.LDA, Imm(0x01)),
            Instruction(Op.RCL),             # acc = 0x03
        ])
        assert tep.acc == 0x03

    def test_rcr_rotates_through_carry(self):
        tep = run_program([
            Instruction(Op.LDA, Imm(0x01)),
            Instruction(Op.SHR),             # acc=0, C=1
            Instruction(Op.LDA, Imm(0x80)),
            Instruction(Op.RCR),             # acc = 0xC0
        ])
        assert tep.acc == 0xC0


class TestMemoryAndIndexing:
    def test_internal_external_distinct(self):
        tep = run_program([
            Instruction(Op.LDA, Imm(5)),
            Instruction(Op.STA, Mem(3, StorageClass.INTERNAL)),
            Instruction(Op.LDA, Imm(9)),
            Instruction(Op.STA, Mem(3, StorageClass.EXTERNAL)),
        ])
        assert tep.internal[3] == 5
        assert tep.external[3] == 9

    def test_indexed_load_store(self):
        tep = run_program([
            Instruction(Op.LDA, Imm(2)),
            Instruction(Op.TAO),                       # OP = 2
            Instruction(Op.LDA, Imm(42)),
            Instruction(Op.STI, Mem(10)),              # mem[12] = 42
            Instruction(Op.LDA, Imm(0)),
            Instruction(Op.LDI, Mem(10)),              # acc = mem[12]
        ])
        assert tep.acc == 42
        assert tep.internal[12] == 42

    def test_registers(self):
        arch = MINIMAL_TEP.with_(register_file_size=4)
        tep = run_program([
            Instruction(Op.LDA, Imm(7)),
            Instruction(Op.STA, Reg(2)),
            Instruction(Op.LDA, Imm(0)),
            Instruction(Op.LDA, Reg(2)),
        ], arch=arch)
        assert tep.acc == 7


class TestFaults:
    def test_illegal_mul_without_unit(self):
        with pytest.raises(TepError, match="M/D"):
            run_program([Instruction(Op.LDA, Imm(2)),
                         Instruction(Op.MUL, Imm(3))])

    def test_illegal_neg_without_negator(self):
        with pytest.raises(TepError, match="negator"):
            run_program([Instruction(Op.NEG)])

    def test_division_by_zero_saturates(self):
        tep = run_program([Instruction(Op.LDA, Imm(9)),
                           Instruction(Op.DIV, Imm(0))], arch=MD16_TEP)
        assert tep.acc == 0xFFFF

    def test_runaway_detected(self):
        program = [Instruction(Op.JMP, LabelRef("main"), label="main")]
        tep = Tep(ProgramImage.link(MINIMAL_TEP, program))
        with pytest.raises(TepError, match="runaway"):
            tep.run("main", max_cycles=500)

    def test_undefined_label(self):
        tep = Tep(ProgramImage.link(MINIMAL_TEP,
                                    [Instruction(Op.NOP, label="main")]))
        with pytest.raises(TepError, match="unknown entry"):
            tep.run("nowhere")

    def test_duplicate_label_rejected(self):
        with pytest.raises(TepError, match="duplicate"):
            ProgramImage.link(MINIMAL_TEP, [Instruction(Op.NOP, label="x"),
                                            Instruction(Op.NOP, label="x")])

    def test_unbalanced_return(self):
        # RET with an empty call stack below the entry depth
        program = [Instruction(Op.RET, label="main")]
        tep = Tep(ProgramImage.link(MINIMAL_TEP, program))
        # a bare RET at entry depth just ends the run
        assert tep.run("main") > 0

    def test_call_stack_overflow_guard(self):
        program = [Instruction(Op.CALL, LabelRef("main"), label="main")]
        tep = Tep(ProgramImage.link(MINIMAL_TEP, program))
        with pytest.raises(TepError, match="stack"):
            tep.run("main")


class TestPortsSignalsCustom:
    def test_ports_roundtrip(self):
        ports = SimplePorts({0x700: 5})
        tep = run_program([
            Instruction(Op.INP, PortRef(0x700)),
            Instruction(Op.ADD, Imm(1)),
            Instruction(Op.OUTP, PortRef(0x701)),
        ], ports=ports)
        assert ports.values[0x701] == 6
        assert ports.writes == [(0x701, 6)]

    def test_events_and_conditions(self):
        tep = run_program([
            Instruction(Op.EVSET, SignalRef(3)),
            Instruction(Op.CSET, SignalRef(1)),
            Instruction(Op.CCLR, SignalRef(2)),
            Instruction(Op.CTST, SignalRef(1)),
        ])
        assert tep.events_raised == {3}
        assert tep.condition_cache[1] is True
        assert tep.condition_cache[2] is False
        assert tep.acc == 1

    def test_custom_instruction_semantics(self):
        custom = CustomInstruction("fma", "((v0+v1)<<c1)", 2, 2)
        arch = MD16_TEP.with_(custom_instructions=(custom,))
        tep = run_program([
            Instruction(Op.LDA, Imm(10)),
            Instruction(Op.LDO, Imm(20)),
            Instruction(Op.CUSTOM, Imm(0)),
        ], arch=arch)
        assert tep.acc == 60

    def test_undefined_custom_faults(self):
        with pytest.raises(TepError, match="CUSTOM"):
            run_program([Instruction(Op.CUSTOM, Imm(5))], arch=MD16_TEP)


class TestCycleAccounting:
    def test_cycles_match_microprogram_lengths(self):
        program = [Instruction(Op.LDA, Imm(1), label="main"),
                   Instruction(Op.ADD, Mem(0)),
                   Instruction(Op.RET)]
        tep = Tep(ProgramImage.link(MINIMAL_TEP, program))
        cycles = tep.run("main")
        expected = sum(cycle_cost(i, MINIMAL_TEP) for i in program)
        assert cycles == expected

    def test_multiple_runs_accumulate(self):
        program = [Instruction(Op.NOP, label="main"), Instruction(Op.RET)]
        tep = Tep(ProgramImage.link(MINIMAL_TEP, program))
        first = tep.run("main")
        tep.run("main")
        assert tep.cycles == 2 * first
        assert tep.instructions_executed == 4
