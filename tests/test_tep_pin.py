"""Pins what the TEP interpreter computes, instruction by instruction.

``tests/golden/tep_pin.json`` was recorded from the interpreter that
decoded every instruction each time it ran, before slots were decoded once
per build.  It holds, for every case and architecture, the outcome of each
run and the SHA-256 of the canonical records of all of them:

* every opcode with every operand kind it accepts (``Imm``, ``Reg``,
  internal and external ``Mem``, ``PortRef``, ``SignalRef``, ``LabelRef``,
  and ``LDI``/``STI`` at the ``OP`` offsets the starting states set), run
  on ``MINIMAL_TEP``, on ``MD16_TEP`` and on an architecture with the
  comparator, the negator, the barrel shifter, a register file and one
  custom instruction, from four fixed starting states.  The states' runs
  share one linked image, so later states run slots the first one decoded;
* one bad program per reachable ``raise`` of ``repro.pscp.tep``, with the
  error's class and message and the state at the moment it fired.
  ``ProgramImage.link`` refuses a program whose slot the microcode cannot
  price (``LDI``/``STI`` without a memory base, ``STA`` to a
  non-location); the golden records that ``IsaError`` and runs such a
  program on a hand-built image, the only way to reach those checks;
* programs that hold a bad slot they never execute, or an untaken branch
  to an undefined label, and run clean.

A record is the TEP's architectural state after the run (``acc``, ``op``,
the flags, registers, both RAMs, the condition cache, raised events, the
call stack), the port writes, ``cycles``, ``instructions_executed`` and
the returned cost or the error.  JSON keeps ``True`` apart from ``1``, so a
flag or a cache bit that changes type changes the hash.

``unbalanced return`` is unreachable: a run returns at the ``RET`` that
finds the call stack at its entry depth, and only ``CALL`` grows the stack
during a run, so a ``RET`` never pops below the entry depth.

Regenerate the golden (only for an intended change of what the TEP
computes)::

    PYTHONPATH=src python tests/test_tep_pin.py
"""

import hashlib
import json
import pathlib
from types import MappingProxyType

import pytest

from repro.isa import (
    CustomInstruction,
    Imm,
    Instruction,
    IsaError,
    LabelRef,
    MD16_TEP,
    MINIMAL_TEP,
    Mem,
    Op,
    PortRef,
    Reg,
    SignalRef,
    StorageClass,
)
from repro.pscp.tep import (
    ProgramImage,
    SimplePorts,
    Tep,
    TepBudgetExceeded,
    TepError,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "tep_pin.json"

ARCHS = {
    "minimal": MINIMAL_TEP,
    "md16": MD16_TEP,
    "extended": MINIMAL_TEP.with_(
        name="pin-extended", has_comparator=True, has_negator=True,
        has_barrel_shifter=True, register_file_size=4,
        external_ram_wait_states=3,
        custom_instructions=(
            CustomInstruction("fused", "((v0^v3)+(v1>>c1))", 3, 2),)),
}

EXT = StorageClass.EXTERNAL
PORT_IN, PORT_OUT = 0x700, 0x712

#: starting states; every word is masked to the architecture's width
STATES = (
    dict(acc=0, op=0, z=False, c=False, n=False,
         registers=[0x11, 0x22, 0x33], internal={}, external={},
         cache=(), call_stack=[]),
    dict(acc=0x5A3C, op=1, z=True, c=True, n=False,
         registers=[0x1F1, 0x7F, 0x80, 0xFFFF],
         internal={1: 0x0F, 2: 0x1A5, 3: 0xFF, 6: 0x8001, 7: 9},
         external={2: 0x3C, 3: 0x80, 4: 0xFFFF, 8: 5},
         cache=(1, 3, 40), call_stack=[]),
    dict(acc=0xFFFF, op=5, z=False, c=False, n=True,
         registers=[0, 0x8000], internal={2: 3, 7: 0x4242},
         external={3: 0x7FFF, 7: 1, 8: 0x1234},
         cache=(0, 2), call_stack=[4]),
    dict(acc=0x8080, op=2, z=False, c=True, n=True,
         registers=[7, 0x11, 0x101, 3, 0x9999],
         internal={2: 0xC3, 3: 0, 4: 0x80}, external={3: 2, 5: 0x77},
         cache=(1, 63), call_stack=[2, 3]),
)

VALUE_OPERANDS = {
    "imm": Imm(3),
    "imm-wide": Imm(-0x1C3),
    "reg": Reg(1),
    "int": Mem(2),
    "int-unset": Mem(9),
    "ext": Mem(3, EXT),
}
LOCATION_OPERANDS = {"reg": Reg(1), "reg-beyond": Reg(6), "int": Mem(2),
                     "ext": Mem(3, EXT)}
VALUE_OPS = (Op.LDA, Op.LDO, Op.ADD, Op.ADC, Op.SUB, Op.SBC, Op.CMP, Op.AND,
             Op.ORR, Op.XOR, Op.SHLN, Op.SHRN, Op.MUL, Op.DIV, Op.MOD)
BARE_OPS = (Op.NOP, Op.TAO, Op.NOT, Op.NEG, Op.INC, Op.DEC, Op.SHL, Op.SHR,
            Op.RCL, Op.RCR, Op.TRET)
JUMPS = (Op.JMP, Op.JZ, Op.JNZ, Op.JC, Op.JNC, Op.JN, Op.JP)
SIGNALS = (Op.EVSET, Op.CSET, Op.CCLR, Op.CTST)


def straight(*instructions):
    """*instructions* from the entry ``main``, then ``TRET``."""
    first, *rest = instructions
    return [first.with_label("main"), *rest, Instruction(Op.TRET)]


def branching(instruction):
    """*instruction* branches to ``skip``; either path ends in ``TRET``."""
    return [instruction.with_label("main"),
            Instruction(Op.LDA, Imm(1)),
            Instruction(Op.TRET),
            Instruction(Op.LDA, Imm(2), label="skip"),
            Instruction(Op.TRET)]


def opcode_cases():
    """(case id, program, max_cycles) for every opcode x operand kind."""
    cases = []
    for op in VALUE_OPS:
        for kind, operand in VALUE_OPERANDS.items():
            cases.append((f"{op.name} {kind}",
                          straight(Instruction(op, operand))))
    for kind, operand in LOCATION_OPERANDS.items():
        cases.append((f"STA {kind}", straight(Instruction(Op.STA, operand))))
    for op in (Op.LDI, Op.STI):
        for kind, operand in (("int", Mem(2)), ("ext", Mem(3, EXT))):
            cases.append((f"{op.name} {kind}",
                          straight(Instruction(op, operand))))
    for op in BARE_OPS:
        cases.append((op.name, straight(Instruction(op))))
    cases.append(("RET", [Instruction(Op.RET, label="main")]))
    for op in JUMPS:
        cases.append((f"{op.name} label",
                      branching(Instruction(op, LabelRef("skip")))))
    for op in (Op.CBEQ, Op.CBNE):
        for kind, operand in VALUE_OPERANDS.items():
            cases.append((f"{op.name} {kind}", branching(
                Instruction(op, operand, target=LabelRef("skip")))))
    cases.append(("CALL label", [
        Instruction(Op.CALL, LabelRef("sub"), label="main"),
        Instruction(Op.INC),
        Instruction(Op.TRET),
        Instruction(Op.LDA, Imm(7), label="sub"),
        Instruction(Op.CALL, LabelRef("leaf")),
        Instruction(Op.RET),
        Instruction(Op.DEC, label="leaf"),
        Instruction(Op.RET)]))
    cases.append(("INP port", straight(Instruction(Op.INP,
                                                   PortRef(PORT_IN)))))
    cases.append(("OUTP port", straight(Instruction(Op.OUTP,
                                                    PortRef(PORT_OUT)))))
    for op in SIGNALS:
        cases.append((f"{op.name} signal",
                      straight(Instruction(op, SignalRef(3, "s3")))))
    cases.append(("CUSTOM imm", straight(Instruction(Op.CUSTOM, Imm(0)))))
    cases.append(("carry chain", straight(
        Instruction(Op.LDA, Mem(6)), Instruction(Op.ADD, Mem(2, EXT)),
        Instruction(Op.STA, Mem(10)), Instruction(Op.LDA, Mem(7)),
        Instruction(Op.ADC, Mem(3, EXT)), Instruction(Op.RCL),
        Instruction(Op.SBC, Reg(0)), Instruction(Op.RCR),
        Instruction(Op.STI, Mem(11)), Instruction(Op.LDI, Mem(1)))))
    cases.append(("counted loop", [
        Instruction(Op.LDA, Imm(4), label="main"),
        Instruction(Op.STA, Mem(12)),
        Instruction(Op.LDA, Mem(12), label="loop"),
        Instruction(Op.DEC),
        Instruction(Op.STA, Mem(12)),
        Instruction(Op.CSET, SignalRef(5)),
        Instruction(Op.JNZ, LabelRef("loop")),
        Instruction(Op.EVSET, SignalRef(2)),
        Instruction(Op.OUTP, PortRef(PORT_OUT)),
        Instruction(Op.TRET)]))
    return [(case_id, program, 1_000_000) for case_id, program in cases]


def error_cases():
    """(case id, program, max_cycles): one bad program per reachable
    ``raise``, a few orderings between checks, and programs whose bad
    slots never fire."""
    jump = Instruction(Op.JMP, LabelRef("done"))
    done = Instruction(Op.TRET, label="done")
    cases = [
        ("undefined label: JMP", straight(
            Instruction(Op.JMP, LabelRef("nowhere")))),
        ("undefined label: taken JZ", straight(
            Instruction(Op.LDA, Imm(0)),
            Instruction(Op.JZ, LabelRef("nowhere")))),
        ("undefined label: CALL pushes first", straight(
            Instruction(Op.CALL, LabelRef("nowhere")))),
        ("undefined label: taken CBEQ", straight(
            Instruction(Op.LDA, Imm(4)),
            Instruction(Op.CBEQ, Imm(4), target=LabelRef("nowhere")))),
        ("bad jump operand: JMP imm", straight(
            Instruction(Op.JMP, Imm(3)))),
        ("bad jump operand: taken JNZ mem", straight(
            Instruction(Op.LDA, Imm(1)), Instruction(Op.JNZ, Mem(1)))),
        ("bad jump operand: CALL reg", straight(
            Instruction(Op.CALL, Reg(0)))),
        ("LDI needs a memory base", straight(Instruction(Op.LDI, Reg(0)))),
        ("STI needs a memory base", straight(Instruction(Op.STI, Imm(2)))),
        ("without branch target: CBNE", straight(
            Instruction(Op.CBNE, Imm(1)))),
        ("without branch target: after the operand", straight(
            Instruction(Op.CBEQ, PortRef(PORT_IN)))),
        ("without a comparator: CBEQ", straight(
            Instruction(Op.CBEQ, Imm(1), target=LabelRef("main")))),
        ("without a comparator: before the operand", straight(
            Instruction(Op.CBEQ, PortRef(PORT_IN),
                        target=LabelRef("main")))),
        ("needs a port: INP", straight(Instruction(Op.INP, Imm(1)))),
        ("needs a port: OUTP", straight(Instruction(Op.OUTP, Mem(1)))),
        ("needs a signal: CSET", straight(Instruction(Op.CSET, Imm(1)))),
        ("needs a signal: CTST", straight(Instruction(Op.CTST,
                                                      PortRef(1)))),
        ("PC out of range: falls off the end", [
            Instruction(Op.LDA, Imm(1), label="main"),
            Instruction(Op.INC)]),
        ("PC out of range: returns past the end", [
            Instruction(Op.JMP, LabelRef("last"), label="main"),
            Instruction(Op.RET, label="back"),
            Instruction(Op.CALL, LabelRef("back"), label="last")]),
        ("barrel shifter: SHRN", straight(Instruction(Op.SHRN, Imm(1)))),
        ("barrel shifter: before the operand", straight(
            Instruction(Op.SHLN, PortRef(1)))),
        ("M/D unit: MOD", straight(Instruction(Op.MOD, Imm(3)))),
        ("M/D unit: before the operand", straight(
            Instruction(Op.MUL, SignalRef(1)))),
        ("negator: NEG", straight(Instruction(Op.NEG))),
        ("cannot evaluate operand: port", straight(
            Instruction(Op.LDA, PortRef(PORT_IN)))),
        ("cannot evaluate operand: none", straight(Instruction(Op.ADD))),
        ("cannot evaluate operand: label", straight(
            Instruction(Op.CMP, LabelRef("main")))),
        ("cannot write location: imm", straight(
            Instruction(Op.STA, Imm(4)))),
        ("cannot write location: none", straight(Instruction(Op.STA))),
        ("undefined CUSTOM", straight(Instruction(Op.CUSTOM, Imm(1)))),
        ("undefined CUSTOM: not an immediate", straight(
            Instruction(Op.CUSTOM, Mem(0)))),
        ("call stack overflow", [
            Instruction(Op.INC, label="main"),
            Instruction(Op.CALL, LabelRef("main"))]),
        ("register beyond the file", straight(
            Instruction(Op.LDA, Reg(7)))),
        ("signal beyond the cache", straight(
            Instruction(Op.CSET, SignalRef(64)))),
        ("never executed: bad slots", [
            jump.with_label("main"),
            Instruction(Op.JMP, LabelRef("nowhere")),
            Instruction(Op.JMP, Imm(3)),
            Instruction(Op.INP, Imm(1)),
            Instruction(Op.CSET, Imm(1)),
            Instruction(Op.LDA, PortRef(1)),
            Instruction(Op.CBEQ, PortRef(1)),
            Instruction(Op.MUL, Imm(2)),
            Instruction(Op.SHLN, Imm(2)),
            Instruction(Op.CUSTOM, Imm(9)),
            done]),
        ("never executed: unlinkable slot", [
            jump.with_label("main"),
            Instruction(Op.LDI, Imm(1)),
            done]),
        ("never executed: untaken branches", straight(
            Instruction(Op.LDA, Imm(1)),
            Instruction(Op.JZ, LabelRef("nowhere")),
            Instruction(Op.JN, Imm(5)),
            Instruction(Op.CMP, Imm(1)),
            Instruction(Op.JNZ, LabelRef("nowhere")),
            Instruction(Op.JC, Reg(0)))),
        ("never executed: untaken compare-branches", straight(
            Instruction(Op.LDA, Imm(1)),
            Instruction(Op.CBEQ, Imm(2), target=LabelRef("nowhere")),
            Instruction(Op.CBNE, Imm(1), target=LabelRef("nowhere")))),
    ]
    budget = [("runaway: budget", [
        Instruction(Op.INC, label="main"),
        Instruction(Op.STA, Mem(1, EXT)),
        Instruction(Op.JMP, LabelRef("main"))], 60)]
    return ([(case_id, program, 1_000_000) for case_id, program in cases]
            + budget)


CASES = {case_id: (program, max_cycles)
         for case_id, program, max_cycles in opcode_cases() + error_cases()}


def start(tep, state):
    mask = tep.mask
    tep.acc = state["acc"] & mask
    tep.op = state["op"] & mask
    tep.z, tep.c, tep.n = state["z"], state["c"], state["n"]
    tep.registers = [word & mask for word in state["registers"]]
    tep.internal = {a: w & mask for a, w in state["internal"].items()}
    tep.external = {a: w & mask for a, w in state["external"].items()}
    for index in state["cache"]:
        tep.condition_cache[index] = True
    tep.call_stack = list(state["call_stack"])


def outcome_of(tep, max_cycles):
    try:
        return f"returned {tep.run('main', max_cycles=max_cycles)}"
    except (TepError, IndexError) as error:
        return f"{type(error).__name__}: {error}"


def record(tep, ports, outcome):
    return {
        "outcome": outcome,
        "acc": tep.acc, "op": tep.op, "z": tep.z, "c": tep.c, "n": tep.n,
        "registers": tep.registers,
        "internal": sorted(tep.internal.items()),
        "external": sorted(tep.external.items()),
        "condition_cache": tep.condition_cache,
        "events_raised": sorted(tep.events_raised),
        "call_stack": tep.call_stack,
        "port_writes": ports.writes,
        "cycles": tep.cycles,
        "instructions_executed": tep.instructions_executed,
    }


def hand_linked(arch, program):
    """The image of a program ``ProgramImage.link`` refuses because the
    microcode cannot price one of its slots: every slot costs 1."""
    labels = {instruction.label: slot
              for slot, instruction in enumerate(program)
              if instruction.label is not None}
    return ProgramImage(arch, tuple(program), MappingProxyType(labels),
                        (1,) * len(program))


def pin(case_id, arch_name):
    """The golden entry of one case on one architecture: each starting
    state runs on a fresh TEP, all on one image.  A program ``link``
    refuses records why and runs on a hand-built image."""
    program, max_cycles = CASES[case_id]
    entry = {}
    try:
        image = ProgramImage.link(ARCHS[arch_name], program)
    except IsaError as error:
        entry["link"] = f"{type(error).__name__}: {error}"
        image = hand_linked(ARCHS[arch_name], program)
    records = []
    for state in STATES:
        ports = SimplePorts({PORT_IN: 0x1F3})
        tep = Tep(image, ports=ports)
        start(tep, state)
        records.append(record(tep, ports, outcome_of(tep, max_cycles)))
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    entry["outcomes"] = [r["outcome"] for r in records]
    entry["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return entry


def record_all():
    return {case_id: {arch_name: pin(case_id, arch_name)
                      for arch_name in ARCHS}
            for case_id in CASES}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_case_matches_golden(golden, case_id):
    assert {arch_name: pin(case_id, arch_name)
            for arch_name in ARCHS} == golden[case_id]


def test_every_opcode_is_covered():
    covered = {instruction.op for program, _ in CASES.values()
               for instruction in program}
    assert covered == set(Op)


#: one message fragment per reachable ``raise`` in ``repro.pscp.tep``
RAISES = ("undefined label", "bad jump operand", "LDI needs",
          "STI needs", "without branch target", "without a comparator",
          "needs a port", "needs a signal", "PC out of range",
          "barrel shifter", "cannot evaluate operand", "cannot write location",
          "M/D unit", "negator", "undefined CUSTOM", "call stack overflow",
          "runaway execution")


def test_every_reachable_raise_is_pinned(golden):
    outcomes = " | ".join(outcome for entry in golden.values()
                          for pins in entry.values()
                          for outcome in pins["outcomes"])
    for fragment in RAISES:
        assert fragment in outcomes, fragment


def test_budget_error_is_the_budget_class():
    program, max_cycles = CASES["runaway: budget"]
    tep = Tep(ProgramImage.link(MINIMAL_TEP, program))
    with pytest.raises(TepBudgetExceeded,
                       match=r"runaway execution in 'main' \(> 60 cycles\)"):
        tep.run("main", max_cycles=max_cycles)


def test_bad_slots_raise_only_when_executed(golden):
    ran_clean = [golden[case_id][arch_name]["outcomes"]
                 for case_id in ("never executed: bad slots",
                                 "never executed: unlinkable slot",
                                 "never executed: untaken branches")
                 for arch_name in ARCHS]
    ran_clean.append(golden["never executed: untaken compare-branches"]
                     ["extended"]["outcomes"])
    assert all(outcome.startswith("returned ")
               for outcomes in ran_clean for outcome in outcomes)


def test_location_accessors_refuse_non_locations():
    tep = Tep(ProgramImage.link(MINIMAL_TEP,
                                [Instruction(Op.TRET, label="main")]))
    with pytest.raises(TepError, match=r"cannot read location Imm\(value=1\)"):
        tep.read_location(Imm(1))
    with pytest.raises(TepError,
                       match=r"cannot read location PortRef\(address=2\)"):
        tep.flip_memory_bit(PortRef(2), 0)
    with pytest.raises(TepError,
                       match=r"cannot write location SignalRef\(index=1"):
        tep.load_memory({SignalRef(1): 3})


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_all(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
