"""Microprogrammed control of the TEP (section 3.2, Table 1).

"Each instruction of the TEP is represented by a microprogram containing a
sequence of microinstructions.  Every microinstruction defines a set of
datapath control signals that are asserted in a single state. […] In the
basic TEP, microinstructions are 16 bits wide.  The first eight bits
represent the control signals, and the other eight bit indicate the address
of the next microinstruction.  The eight control bits are further divided
into 3 bits to denote the group of control signals, and 5 bits to encode the
control signals."

Table 1's five groups are reproduced exactly:

=================  ====  ==========
group              bits  signal pattern
=================  ====  ==========
arithmetic         001   01x00
logical            001   000xx
shift              010   0xxxx
single signals     011   xxxxx
address bus        100   0xxxx
jump, branch       101   0xxxx
=================  ====  ==========

A microinstruction costs one clock; an instruction's execution time is the
length of its microprogram.  This is the quantity the WCET analysis sums and
the optimization ladder shrinks.

The microprogram of every instruction starts with the two fetch
microinstructions (drive PC onto the program-memory address bus; latch the
instruction register and increment PC) and — **unoptimized** — ends with an
explicit jump back to the fetch microprogram.  The peephole step of section
4 ("a peephole optimization step removes redundant jumps from the
microprogram sequences") folds that jump into the preceding
microinstruction's next-address field; :func:`repro.isa.peephole.
optimize_microprogram` performs exactly that rewrite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.isa.arch import ArchConfig, StorageClass
from repro.isa.isa import (
    ALU_OPS,
    BRANCH_FUSED_OPS,
    CONTROL_TRANSFERS,
    Imm,
    Instruction,
    IsaError,
    JUMP_OPS,
    LabelRef,
    Mem,
    MULDIV_OPS,
    Op,
    PortRef,
    Reg,
    SignalRef,
)


class Group(enum.Enum):
    """The 3-bit control-signal group of Table 1."""

    ALU = 0b001           # arithmetic and logical (distinguished by pattern)
    SHIFT = 0b010
    SINGLE = 0b011        # instructions influencing exactly one control signal
    ADDRESS = 0b100       # address bus instructions
    JUMP = 0b101          # jump, branch


#: Table 1 signal patterns, keyed by symbolic class
TABLE1_FORMAT: List[Tuple[str, Group, str]] = [
    ("arithmetic", Group.ALU, "01x00"),
    ("logical", Group.ALU, "000xx"),
    ("shift", Group.SHIFT, "0xxxx"),
    ("single signals", Group.SINGLE, "xxxxx"),
    ("address bus", Group.ADDRESS, "0xxxx"),
    ("jump, branch", Group.JUMP, "0xxxx"),
]


@dataclass(frozen=True)
class MicroOp:
    """One microinstruction: 3-bit group + 5-bit signal + 8-bit next address.

    ``next_address`` of ``None`` means "fall through to the next
    microinstruction"; the micro-assembler fills the field when the decoder
    ROM is laid out.
    """

    group: Group
    signal: int
    mnemonic: str
    next_address: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.signal < 32:
            raise IsaError(f"signal {self.signal} does not fit in 5 bits")

    def encode(self, next_address: int) -> int:
        """The 16-bit microinstruction word."""
        if not 0 <= next_address < 256:
            raise IsaError(f"next address {next_address} does not fit in 8 bits")
        return (self.group.value << 13) | (self.signal << 8) | next_address

    def __str__(self) -> str:
        return f"{self.group.name.lower():8s} {self.signal:05b}  {self.mnemonic}"


# -- signal dictionaries per group (5-bit encodings) -------------------------
# ALU group: arithmetic ops carry pattern 01x00-style codes (bit 3 set),
# logical ops pattern 000xx (bit 3/4 clear) — mirroring Table 1.
ARITH_SIGNALS = {
    "add": 0b01000, "adc": 0b01100, "sub": 0b01001, "sbc": 0b01101,
    "inc": 0b01010, "dec": 0b01011, "neg": 0b01110,
    "mul": 0b11000, "div": 0b11001, "mod": 0b11010, "custom": 0b11111,
}
LOGIC_SIGNALS = {
    "and": 0b00000, "or": 0b00001, "xor": 0b00010, "not": 0b00011,
    "cmp": 0b00100, "cbeq": 0b00101, "cbne": 0b00110,
}
SHIFT_SIGNALS = {"shl": 0b00000, "shr": 0b00001, "shln": 0b00010,
                 "shrn": 0b00011, "rcl": 0b00100, "rcr": 0b00101}
SINGLE_SIGNALS = {
    "imm_to_acc": 0b00000, "imm_to_op": 0b00001, "reg_to_acc": 0b00010,
    "reg_to_op": 0b00011, "acc_to_reg": 0b00100, "acc_to_op": 0b00101,
    "alu_to_acc": 0b00110, "port_strobe": 0b00111, "port_latch": 0b01000,
    "ev_set": 0b01001, "cond_set": 0b01010, "cond_clr": 0b01011,
    "cond_to_acc": 0b01100, "tret": 0b01101, "wait": 0b01110,
    "push_pc": 0b01111, "pop_pc": 0b10000, "nop": 0b11111,
}
ADDRESS_SIGNALS = {
    "pc_to_abus": 0b00000, "fetch_ir": 0b00001, "addr_to_abus": 0b00010,
    "ram_read": 0b00011, "ram_write": 0b00100, "ext_read": 0b00101,
    "ext_write": 0b00110, "imm_fetch": 0b00111, "port_addr": 0b01000,
}
JUMP_SIGNALS = {
    "jump": 0b00000, "branch_z": 0b00001, "branch_nz": 0b00010,
    "branch_c": 0b00011, "branch_nc": 0b00100, "branch_n": 0b00101,
    "to_fetch": 0b01111,
}


def _alu(mnemonic: str) -> MicroOp:
    signals = {**ARITH_SIGNALS, **LOGIC_SIGNALS}
    return MicroOp(Group.ALU, signals[mnemonic], mnemonic)


def _shift(mnemonic: str) -> MicroOp:
    return MicroOp(Group.SHIFT, SHIFT_SIGNALS[mnemonic], mnemonic)


def _single(mnemonic: str) -> MicroOp:
    return MicroOp(Group.SINGLE, SINGLE_SIGNALS[mnemonic], mnemonic)


def _address(mnemonic: str) -> MicroOp:
    return MicroOp(Group.ADDRESS, ADDRESS_SIGNALS[mnemonic], mnemonic)


def _jump(mnemonic: str) -> MicroOp:
    return MicroOp(Group.JUMP, JUMP_SIGNALS[mnemonic], mnemonic)


#: the two-microinstruction instruction fetch every microprogram starts with
FETCH_PROLOGUE = (_address("pc_to_abus"), _address("fetch_ir"))

#: the redundant trailing jump of unoptimized microcode
RETURN_TO_FETCH = _jump("to_fetch")


def _operand_fetch(operand, arch: ArchConfig, to_op: bool) -> List[MicroOp]:
    """Microinstructions that bring *operand* to OP (or ACC)."""
    destination = "imm_to_op" if to_op else "imm_to_acc"
    reg_destination = "reg_to_op" if to_op else "reg_to_acc"
    if operand is None:
        return []
    if isinstance(operand, Imm):
        return [_single(destination)]
    if isinstance(operand, Reg):
        return [_single(reg_destination)]
    if isinstance(operand, Mem):
        ops = [_address("addr_to_abus")]
        if operand.space is StorageClass.EXTERNAL:
            ops.append(_address("ext_read"))
            ops.extend(_single("wait") for _ in range(arch.external_ram_wait_states))
        else:
            ops.append(_address("ram_read"))
        return ops
    if isinstance(operand, (PortRef, SignalRef, LabelRef)):
        return [_single(destination)]
    raise IsaError(f"cannot fetch operand {operand!r}")


def _store(operand, arch: ArchConfig) -> List[MicroOp]:
    if isinstance(operand, Reg):
        return [_single("acc_to_reg")]
    if isinstance(operand, Mem):
        ops = [_address("addr_to_abus")]
        if operand.space is StorageClass.EXTERNAL:
            ops.append(_address("ext_write"))
            ops.extend(_single("wait") for _ in range(arch.external_ram_wait_states))
        else:
            ops.append(_address("ram_write"))
        return ops
    raise IsaError(f"cannot store to operand {operand!r}")


def microprogram(instruction: Instruction, arch: ArchConfig) -> List[MicroOp]:
    """The microinstruction sequence implementing *instruction* on *arch*.

    Includes the fetch prologue; includes the redundant return-to-fetch jump
    unless ``arch.microcode_optimized`` (the peephole's effect).
    """
    body = _body(instruction, arch)
    ops = list(FETCH_PROLOGUE) + body
    if not arch.microcode_optimized:
        ops.append(RETURN_TO_FETCH)
    return ops


def _body(instruction: Instruction, arch: ArchConfig) -> List[MicroOp]:
    op = instruction.op
    operand = instruction.operand

    if op is Op.NOP:
        return [_single("nop")]
    if op is Op.LDA:
        return _operand_fetch(operand, arch, to_op=False)
    if op is Op.LDO:
        return _operand_fetch(operand, arch, to_op=True)
    if op in (Op.LDI, Op.STI):
        # indexed access: one extra state to add OP to the base address
        if not isinstance(operand, Mem):
            raise IsaError(f"{op.name} needs a memory base operand")
        access = (_operand_fetch(operand, arch, to_op=False)
                  if op is Op.LDI else _store(operand, arch))
        return [_address("addr_to_abus")] + access
    if op is Op.TAO:
        return [_single("acc_to_op")]
    if op is Op.STA:
        return _store(operand, arch)
    if op in ALU_OPS:
        fetch = _operand_fetch(operand, arch, to_op=True)
        return fetch + [_alu(op.name.lower().replace("orr", "or"))]
    if op in (Op.NOT, Op.INC, Op.DEC, Op.NEG):
        return [_alu(op.name.lower())]
    if op in (Op.SHL, Op.SHR, Op.RCL, Op.RCR):
        return [_shift(op.name.lower())]
    if op in (Op.SHLN, Op.SHRN):
        return [_shift(op.name.lower())]
    if op in MULDIV_OPS:
        fetch = _operand_fetch(operand, arch, to_op=True)
        iterations = {"MUL": 4, "DIV": 6, "MOD": 6}[op.name]
        return fetch + [_alu(op.name.lower())] * iterations
    if op is Op.JMP:
        return [_jump("jump")]
    if op in JUMP_OPS:
        flag = {"JZ": "branch_z", "JNZ": "branch_nz", "JC": "branch_c",
                "JNC": "branch_nc", "JN": "branch_n", "JP": "branch_n"}[op.name]
        # one state to evaluate the flag, one to redirect the PC
        return [_jump(flag), _jump("jump")]
    if op in BRANCH_FUSED_OPS:
        # the comparator ALU style compares and redirects in one pass:
        # operand fetch + single compare-branch state
        fetch = _operand_fetch(operand, arch, to_op=True)
        return fetch + [_alu(op.name.lower())]
    if op is Op.CALL:
        return [_single("push_pc"), _single("push_pc"), _jump("jump")]
    if op is Op.RET:
        return [_single("pop_pc"), _single("pop_pc")]
    if op is Op.TRET:
        return [_single("tret"), _single("tret")]
    if op is Op.INP:
        return [_address("port_addr"), _single("port_latch")]
    if op is Op.OUTP:
        return [_address("port_addr"), _single("port_strobe")]
    if op is Op.EVSET:
        return [_single("ev_set")]
    if op is Op.CSET:
        return [_single("cond_set")]
    if op is Op.CCLR:
        return [_single("cond_clr")]
    if op is Op.CTST:
        return [_single("cond_to_acc")]
    if op is Op.CUSTOM:
        # "These instructions execute within one clock cycle."
        return [_alu("custom")]
    raise IsaError(f"no microprogram for {op}")


#: cycles lost re-filling the pipeline after a control transfer
PIPELINE_FLUSH_CYCLES = 2

#: the price table: an instruction's cycle count keyed by exactly what its
#: microprogram depends on — op, operand class, ``Mem`` space, and the
#: architecture's wait states, microcode optimization and pipelining.
#: Each shape is priced from :func:`microprogram` once, on first use.
_PRICES: Dict[Tuple, int] = {}


def cycle_cost(instruction: Instruction, arch: ArchConfig) -> int:
    """Execution time of *instruction* in clock cycles on *arch*.

    "Once a particular PSCP version has been fixed" (section 3.2) every
    microprogram is fixed, so the price is looked up in the price table.
    """
    operand = instruction.operand
    operand_class = type(operand)
    key = (instruction.op, operand_class,
           operand.space if operand_class is Mem else None,
           arch.external_ram_wait_states, arch.microcode_optimized,
           arch.pipelined)
    price = _PRICES.get(key)
    if price is None:
        price = _PRICES[key] = _price(instruction, arch)
    return price


def _price(instruction: Instruction, arch: ArchConfig) -> int:
    """The microprogram's length.

    On a pipelined TEP (section 6's future work, opt-in) the two fetch
    states overlap the previous instruction's execution, so they are hidden;
    control transfers flush the pipeline and pay them back (plus the flush
    penalty), so branch-heavy code gains less — the classic pipelining
    trade-off, priced at the microprogram level.
    """
    length = len(microprogram(instruction, arch))
    if not arch.pipelined:
        return length
    hidden = len(FETCH_PROLOGUE)
    cost = max(1, length - hidden)
    if instruction.op in CONTROL_TRANSFERS:
        cost += PIPELINE_FLUSH_CYCLES
    return cost


def format_table1() -> List[Tuple[str, str, str]]:
    """Regenerate Table 1: (symbolic, group bits, signal pattern)."""
    return [(symbolic, format(group.value, "03b"), pattern)
            for symbolic, group, pattern in TABLE1_FORMAT]


class DecoderRom:
    """The application-specific microprogram decoder.

    "Once a particular PSCP version has been fixed, the associated
    microprogram decoder can be synthesized from the combination of all the
    microinstruction sequences involved."  Distinct microprograms are laid
    out consecutively; shared microprograms are stored once.
    """

    def __init__(self, arch: ArchConfig) -> None:
        self.arch = arch
        self._layout: Dict[Tuple, int] = {}
        self.words: List[int] = []
        self.entry_points: Dict[str, int] = {}

    @staticmethod
    def _key(ops: List[MicroOp]) -> Tuple:
        return tuple((op.group, op.signal) for op in ops)

    def add_instruction(self, instruction: Instruction) -> int:
        """Place the instruction's microprogram; returns its entry address."""
        ops = microprogram(instruction, self.arch)
        key = self._key(ops)
        if key in self._layout:
            return self._layout[key]
        entry = len(self.words)
        if entry + len(ops) > 256:
            raise IsaError("decoder ROM exceeds the 8-bit microaddress space")
        for offset, op in enumerate(ops):
            is_last = offset == len(ops) - 1
            next_address = 0 if is_last else entry + offset + 1
            self.words.append(op.encode(next_address))
        self._layout[key] = entry
        self.entry_points[str(instruction.op.name)] = entry
        return entry

    def add_program(self, instructions: List[Instruction]) -> None:
        for instruction in instructions:
            self.add_instruction(instruction)

    @property
    def size_words(self) -> int:
        return len(self.words)

    def dump(self) -> str:
        lines = [f"; decoder ROM for {self.arch.name}: {self.size_words} words"]
        for address, word in enumerate(self.words):
            group = (word >> 13) & 0b111
            signal = (word >> 8) & 0b11111
            nxt = word & 0xFF
            lines.append(f"{address:02x}: {group:03b} {signal:05b} -> {nxt:02x}")
        return "\n".join(lines)
