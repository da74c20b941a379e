"""The TEP instruction set (section 3.2).

The basic TEP is an accumulator machine: a calculation unit with two
registers (the accumulator ``ACC`` and a second operand register ``OP``), an
ALU, on-chip RAM, a Harvard architecture, an 8-bit data bus and a 16-bit
instruction format.  "The instruction set includes load and store
instructions, basic arithmetic and logic instructions, shift instructions,
jump instructions, and port instructions.  Further operations reset the
transition registers, perform calls to the transition routines, and
communicate with the SLA."

Operands come in five addressing modes:

* ``Imm`` — immediate constant;
* ``Reg`` — a register-file register (library option);
* ``Mem(addr, INTERNAL)`` — on-chip RAM;
* ``Mem(addr, EXTERNAL)`` — external RAM (adds wait states);
* ``PortRef`` / ``SignalRef`` / ``LabelRef`` — port addresses, CR
  event/condition indices, and code labels.

Extension instructions (``MUL``/``DIV``, ``CBEQ``/``CBNE``, ``NEG``,
``SHLN``/``SHRN``, ``CUSTOM``) are only *legal* on architectures whose
component library provides the corresponding hardware
(:class:`repro.isa.arch.ArchConfig`); :func:`check_legal` enforces this.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.isa.arch import ArchConfig, StorageClass


class IsaError(Exception):
    """Raised for malformed or architecturally illegal instructions."""


# ---------------------------------------------------------------------------
# operands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Imm:
    value: int

    def __str__(self) -> str:
        return f"#{self.value}"


@dataclass(frozen=True)
class Reg:
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise IsaError("register index must be non-negative")

    def __str__(self) -> str:
        return f"R{self.index}"


@dataclass(frozen=True)
class Mem:
    address: int
    space: StorageClass = StorageClass.INTERNAL

    def __post_init__(self) -> None:
        if self.space is StorageClass.REGISTER:
            raise IsaError("use Reg(...) for register operands")

    def __str__(self) -> str:
        prefix = "int" if self.space is StorageClass.INTERNAL else "ext"
        return f"{prefix}[{self.address}]"


@dataclass(frozen=True)
class PortRef:
    address: int

    def __str__(self) -> str:
        return f"port[{self.address}]"


@dataclass(frozen=True)
class SignalRef:
    """An event or condition index in the CR / condition cache."""

    index: int
    name: str = ""

    def __str__(self) -> str:
        return self.name or f"sig[{self.index}]"


@dataclass(frozen=True)
class LabelRef:
    name: str
    #: filled by the assembler
    address: Optional[int] = None

    def __str__(self) -> str:
        return self.name


Operand = Union[Imm, Reg, Mem, PortRef, SignalRef, LabelRef, None]


# ---------------------------------------------------------------------------
# opcodes
# ---------------------------------------------------------------------------

class Op(enum.Enum):
    """Every TEP opcode.  The value is the 6-bit encoding."""

    NOP = 0x00
    # loads / stores
    LDA = 0x01        # ACC <- src
    LDO = 0x02        # OP  <- src
    STA = 0x03        # dst <- ACC
    TAO = 0x04        # OP  <- ACC
    LDI = 0x05        # ACC <- mem[base + OP]   (indexed, for arrays)
    STI = 0x06        # mem[base + OP] <- ACC
    # ALU (ACC <- ACC op {OP | src})
    ADD = 0x08
    ADC = 0x09
    SUB = 0x0A
    SBC = 0x0B
    AND = 0x0C
    ORR = 0x0D
    XOR = 0x0E
    CMP = 0x0F        # flags <- ACC - src
    NOT = 0x10
    NEG = 0x11        # two's complement (negator ALU style only)
    INC = 0x12
    DEC = 0x13
    # shifts
    SHL = 0x14        # 1 bit, through carry
    SHR = 0x15
    SHLN = 0x16       # n bits in one operation (barrel shifter only)
    SHRN = 0x17
    RCL = 0x1C        # rotate left through carry (multi-word shifts)
    RCR = 0x1D
    # multiply / divide (M/D calculation unit only)
    MUL = 0x18
    DIV = 0x19
    MOD = 0x1A
    # control
    JMP = 0x20
    JZ = 0x21
    JNZ = 0x22
    JC = 0x23
    JNC = 0x24
    JN = 0x25
    JP = 0x2B         # jump if not negative (N clear)
    CALL = 0x26
    RET = 0x27
    TRET = 0x28       # end of transition routine; signals the scheduler
    CBEQ = 0x29       # fused compare-and-branch-if-equal (comparator style)
    CBNE = 0x2A
    # ports
    INP = 0x30        # ACC <- data port
    OUTP = 0x31       # data port <- ACC
    # SLA / CR communication
    EVSET = 0x38      # set event bit in the CR
    CSET = 0x39       # set condition bit (through the condition cache)
    CCLR = 0x3A       # clear condition bit
    CTST = 0x3B       # ACC <- condition bit
    # application-specific fused operations
    CUSTOM = 0x3F


ALU_OPS = {Op.ADD, Op.ADC, Op.SUB, Op.SBC, Op.AND, Op.ORR, Op.XOR, Op.CMP}
UNARY_OPS = {Op.NOT, Op.NEG, Op.INC, Op.DEC}
SHIFT_OPS = {Op.SHL, Op.SHR, Op.SHLN, Op.SHRN, Op.RCL, Op.RCR}
MULDIV_OPS = {Op.MUL, Op.DIV, Op.MOD}
JUMP_OPS = {Op.JMP, Op.JZ, Op.JNZ, Op.JC, Op.JNC, Op.JN, Op.JP}
BRANCH_FUSED_OPS = {Op.CBEQ, Op.CBNE}
SIGNAL_OPS = {Op.EVSET, Op.CSET, Op.CCLR, Op.CTST}
PORT_OPS = {Op.INP, Op.OUTP}

#: opcodes that terminate or divert straight-line control flow
CONTROL_TRANSFERS = JUMP_OPS | BRANCH_FUSED_OPS | {Op.CALL, Op.RET, Op.TRET}


@dataclass(frozen=True)
class Instruction:
    """One assembler-level instruction, optionally labelled."""

    op: Op
    operand: Operand = None
    #: second operand for fused compare-branch: the branch target
    target: Optional[LabelRef] = None
    label: Optional[str] = None
    comment: str = ""

    def __str__(self) -> str:
        text = self.op.name
        if self.operand is not None:
            text += f" {self.operand}"
        if self.target is not None:
            text += f", {self.target}"
        if self.label:
            text = f"{self.label}: {text}"
        if self.comment:
            text += f"    ; {self.comment}"
        return text

    def with_label(self, label: str) -> "Instruction":
        return Instruction(self.op, self.operand, self.target, label,
                           self.comment)


def check_legal(instruction: Instruction, arch: ArchConfig) -> None:
    """Raise :class:`IsaError` if *instruction* needs hardware *arch* lacks."""
    op = instruction.op
    if op in MULDIV_OPS and not arch.has_muldiv:
        raise IsaError(f"{op.name} requires an M/D calculation unit")
    if op is Op.NEG and not arch.has_negator:
        raise IsaError("NEG requires the two's-complement ALU style")
    if op in (Op.SHLN, Op.SHRN) and not arch.has_barrel_shifter:
        raise IsaError(f"{op.name} requires a barrel shifter")
    if op in BRANCH_FUSED_OPS and not arch.has_comparator:
        raise IsaError(f"{op.name} requires the comparator ALU style")
    if op is Op.CUSTOM:
        index = instruction.operand.value if isinstance(instruction.operand, Imm) else -1
        if not 0 <= index < len(arch.custom_instructions):
            raise IsaError(f"CUSTOM #{index} is not defined on {arch.name}")
    if isinstance(instruction.operand, Reg):
        if instruction.operand.index >= arch.register_file_size:
            raise IsaError(
                f"register R{instruction.operand.index} exceeds the register "
                f"file size {arch.register_file_size}")
    if isinstance(instruction.operand, Mem):
        if (instruction.operand.space is StorageClass.INTERNAL
                and instruction.operand.address >= arch.internal_ram_words):
            raise IsaError(
                f"internal address {instruction.operand.address} exceeds "
                f"{arch.internal_ram_words} words")


# ---------------------------------------------------------------------------
# binary encoding (16-bit instruction format, section 3.2)
# ---------------------------------------------------------------------------

class Mode(enum.Enum):
    """2-bit addressing-mode field."""

    NONE = 0
    IMM = 1
    DIRECT = 2      # internal RAM / register / port / signal / label
    EXTERNAL = 3


def encode(instruction: Instruction) -> List[int]:
    """Encode to one or two 16-bit words.

    Layout of the first word: ``[15:10] opcode, [9:8] mode, [7:0] operand``.
    Operands that do not fit in 8 bits occupy a second word (the assembler-
    level format is fixed at 16 bits; wide constants use an extension word,
    which the microprogram fetches with a second program-memory access).
    """
    op_bits = instruction.op.value << 10
    operand = instruction.operand
    if instruction.op in BRANCH_FUSED_OPS:
        if instruction.target is None or instruction.target.address is None:
            raise IsaError(f"{instruction.op.name} needs a resolved target")
        # fused compare-branch: operand word + target word
        head, *rest = _encode_operand(op_bits, operand)
        return [head] + rest + [instruction.target.address & 0xFFFF]
    return _encode_operand(op_bits, operand)


def _encode_operand(op_bits: int, operand: Operand) -> List[int]:
    if operand is None:
        return [op_bits | (Mode.NONE.value << 8)]
    if isinstance(operand, Imm):
        value = operand.value & 0xFFFF
        if value <= 0xFF:
            return [op_bits | (Mode.IMM.value << 8) | value]
        return [op_bits | (Mode.IMM.value << 8) | 0xFF, value]
    if isinstance(operand, Reg):
        return [op_bits | (Mode.DIRECT.value << 8) | (0xC0 | operand.index)]
    if isinstance(operand, Mem):
        mode = (Mode.EXTERNAL if operand.space is StorageClass.EXTERNAL
                else Mode.DIRECT)
        # internal addresses above 0xBF collide with the register encoding
        # space (0xC0..); externals use the full byte
        limit = 0xFF if mode is Mode.EXTERNAL else 0xBF
        if operand.address <= limit:
            return [op_bits | (mode.value << 8) | (operand.address & 0xFF)]
        return [op_bits | (mode.value << 8) | 0xFF, operand.address & 0xFFFF]
    if isinstance(operand, PortRef):
        if operand.address <= 0xFF:
            return [op_bits | (Mode.DIRECT.value << 8) | operand.address]
        return [op_bits | (Mode.DIRECT.value << 8) | 0xFF, operand.address]
    if isinstance(operand, SignalRef):
        return [op_bits | (Mode.DIRECT.value << 8) | (operand.index & 0xFF)]
    if isinstance(operand, LabelRef):
        if operand.address is None:
            raise IsaError(f"unresolved label {operand.name!r}")
        if operand.address <= 0xFF:
            return [op_bits | (Mode.DIRECT.value << 8) | operand.address]
        return [op_bits | (Mode.DIRECT.value << 8) | 0xFF,
                operand.address & 0xFFFF]
    raise IsaError(f"cannot encode operand {operand!r}")


def encoded_length(instruction: Instruction) -> int:
    """Number of 16-bit program-memory words the instruction occupies."""
    operand = instruction.operand
    words = 1
    if isinstance(operand, Imm) and not 0 <= operand.value <= 0xFF:
        words += 1
    elif isinstance(operand, Mem):
        limit = 0xFF if operand.space is StorageClass.EXTERNAL else 0xBF
        if operand.address > limit:
            words += 1
    elif isinstance(operand, (PortRef, LabelRef)):
        address = (operand.address if isinstance(operand, PortRef)
                   else operand.address or 0)
        if address > 0xFF:
            words += 1
    if instruction.op in BRANCH_FUSED_OPS:
        words += 1
    return words


def program_size_words(instructions: List[Instruction]) -> int:
    """Total program-memory footprint in 16-bit words."""
    return sum(encoded_length(i) for i in instructions)
