"""Two-pass assembler and disassembler for TEP programs.

The assembler-level representation "is mostly used to analyze the data-path
requirements of an application, and to compute timing estimates" (section
1), but a complete flow needs the real thing: this module resolves labels to
program-memory addresses, emits binary images (16-bit words, Harvard program
memory) and parses the textual syntax back, so program images can be stored,
diffed and loaded into the TEP simulator.

Textual syntax, one instruction per line::

    routine:  LDA   int[4]      ; comment
              ADD   #1
              STA   ext[260]
              JNZ   routine
              CBEQ  R2, equal_case
              TRET
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.isa.arch import StorageClass
from repro.isa.isa import (
    BRANCH_FUSED_OPS,
    Imm,
    Instruction,
    LabelRef,
    Mem,
    Op,
    Operand,
    PortRef,
    Reg,
    SignalRef,
    encode,
    encoded_length,
)


class AsmError(Exception):
    """Raised on assembly problems (duplicate/undefined labels, syntax)."""


@dataclass
class AssembledProgram:
    """A program with resolved label addresses and its binary image."""

    instructions: List[Instruction]
    labels: Dict[str, int]
    #: word address of each instruction in program memory
    addresses: List[int]
    words: List[int]

    @property
    def size_words(self) -> int:
        return len(self.words)


def resolve_labels(instructions: List[Instruction]) -> Tuple[Dict[str, int], List[int]]:
    """First pass: map labels to word addresses."""
    labels: Dict[str, int] = {}
    addresses: List[int] = []
    address = 0
    for instruction in instructions:
        if instruction.label is not None:
            if instruction.label in labels:
                raise AsmError(f"duplicate label {instruction.label!r}")
            labels[instruction.label] = address
        addresses.append(address)
        address += encoded_length(instruction)
    return labels, addresses


def assemble(instructions: List[Instruction]) -> AssembledProgram:
    """Resolve labels and produce the binary image."""
    labels, addresses = resolve_labels(instructions)

    def resolve(operand: Operand) -> Operand:
        if isinstance(operand, LabelRef):
            if operand.name not in labels:
                raise AsmError(f"undefined label {operand.name!r}")
            return LabelRef(operand.name, labels[operand.name])
        return operand

    resolved: List[Instruction] = []
    for instruction in instructions:
        target = instruction.target
        if target is not None:
            if target.name not in labels:
                raise AsmError(f"undefined label {target.name!r}")
            target = LabelRef(target.name, labels[target.name])
        resolved.append(replace(instruction,
                                operand=resolve(instruction.operand),
                                target=target))

    words: List[int] = []
    for instruction in resolved:
        words.extend(encode(instruction))
    return AssembledProgram(resolved, labels, addresses, words)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def emit_text(instructions: List[Instruction]) -> str:
    """Render a program in assembler syntax."""
    lines = []
    for instruction in instructions:
        label = f"{instruction.label}:" if instruction.label else ""
        operands = []
        if instruction.operand is not None:
            operands.append(str(instruction.operand))
        if instruction.target is not None:
            operands.append(str(instruction.target))
        text = f"{label:12s}{instruction.op.name:6s}{', '.join(operands)}"
        if instruction.comment:
            text = f"{text:40s}; {instruction.comment}"
        lines.append(text.rstrip())
    return "\n".join(lines) + "\n"


_LINE_RE = re.compile(
    r"""^\s*
    (?:(?P<label>[A-Za-z_.$][\w.$]*):)?\s*
    (?:(?P<op>[A-Za-z]+)
       (?:\s+(?P<operand>[^,;]+?))?
       (?:\s*,\s*(?P<target>[^;]+?))?
    )?\s*
    (?:;(?P<comment>.*))?$
    """,
    re.VERBOSE,
)

_OPERAND_PATTERNS = [
    (re.compile(r"^#(-?\d+)$"), lambda m: Imm(int(m.group(1)))),
    (re.compile(r"^R(\d+)$"), lambda m: Reg(int(m.group(1)))),
    (re.compile(r"^int\[(\d+)\]$"),
     lambda m: Mem(int(m.group(1)), StorageClass.INTERNAL)),
    (re.compile(r"^ext\[(\d+)\]$"),
     lambda m: Mem(int(m.group(1)), StorageClass.EXTERNAL)),
    (re.compile(r"^port\[(\d+)\]$"), lambda m: PortRef(int(m.group(1)))),
    (re.compile(r"^sig\[(\d+)\]$"), lambda m: SignalRef(int(m.group(1)))),
]


def _parse_operand(text: str) -> Operand:
    text = text.strip()
    for pattern, build in _OPERAND_PATTERNS:
        match = pattern.match(text)
        if match:
            return build(match)
    if re.match(r"^[A-Za-z_.$][\w.$]*$", text):
        return LabelRef(text)
    raise AsmError(f"bad operand {text!r}")


def parse_text(text: str) -> List[Instruction]:
    """Parse assembler syntax back into instruction objects."""
    instructions: List[Instruction] = []
    pending_label: Optional[str] = None
    for line_number, line in enumerate(text.splitlines(), start=1):
        match = _LINE_RE.match(line)
        if match is None:
            raise AsmError(f"line {line_number}: bad syntax {line!r}")
        label = match.group("label")
        if label is not None:
            if pending_label is not None:
                raise AsmError(f"line {line_number}: two labels in a row")
            pending_label = label
        op_text = match.group("op")
        if op_text is None:
            continue
        try:
            op = Op[op_text.upper()]
        except KeyError:
            raise AsmError(f"line {line_number}: unknown opcode {op_text!r}")
        operand = None
        target = None
        if match.group("operand"):
            operand = _parse_operand(match.group("operand"))
        if match.group("target"):
            parsed = _parse_operand(match.group("target"))
            if not isinstance(parsed, LabelRef):
                raise AsmError(f"line {line_number}: branch target must be a label")
            target = parsed
        comment = (match.group("comment") or "").strip()
        # jump-family operands that parsed as labels are fine; signal ops
        # keep their numeric form
        instructions.append(Instruction(op, operand, target,
                                        pending_label, comment))
        pending_label = None
    if pending_label is not None:
        raise AsmError(f"dangling label {pending_label!r} at end of program")
    return instructions


def disassemble_words(words: List[int]) -> List[str]:
    """Best-effort disassembly of a binary image (for debugging dumps).

    Multi-word instructions cannot always be re-segmented without the
    original instruction list; this walks greedily and flags unknown
    opcodes.
    """
    lines = []
    index = 0
    known = {op.value: op for op in Op}
    while index < len(words):
        word = words[index]
        opcode = (word >> 10) & 0x3F
        mode = (word >> 8) & 0x3
        payload = word & 0xFF
        op = known.get(opcode)
        if op is None:
            lines.append(f"{index:04x}: .word {word:04x}")
            index += 1
            continue
        text = f"{index:04x}: {op.name} mode={mode} payload=0x{payload:02x}"
        consumed = 1
        if mode == 1 and payload == 0xFF and index + 1 < len(words):
            text += f" ext=0x{words[index + 1]:04x}"
            consumed += 1
        if op in BRANCH_FUSED_OPS and index + consumed < len(words):
            text += f" target=0x{words[index + consumed]:04x}"
            consumed += 1
        lines.append(text)
        index += consumed
    return lines
