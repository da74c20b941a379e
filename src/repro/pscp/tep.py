"""Cycle-counting TEP simulator.

Executes assembler-level TEP programs (lists of
:class:`~repro.isa.isa.Instruction`) with exact architectural state:
accumulator, operand register, flags (Z/C/N), register file, internal and
external RAM, data ports, the per-TEP condition cache, and the event lines
into the Configuration Register.  Every executed instruction is charged the
length of its microprogram (:func:`repro.isa.microcode.cycle_cost`, priced
once per program slot when the program is linked), so the simulator's cycle
counts are *exactly* the quantities the static WCET analysis bounds — the
property the closed-loop benchmarks check.

Flag conventions (documented here once, relied on by the code generator):

* loads (``LDA``/``LDI``/``CTST``/``INP``) set Z and N, preserve C;
* ALU operations set Z, N and C (C = carry out for ``ADD``/``ADC``,
  borrow for ``SUB``/``SBC``/``CMP``);
* shifts move the outgoing bit into C (``RCL``/``RCR`` rotate through it);
* stores and jumps change no flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.isa.arch import ArchConfig, StorageClass
from repro.isa.isa import (
    Imm,
    Instruction,
    LabelRef,
    Mem,
    Op,
    Operand,
    PortRef,
    Reg,
    SignalRef,
)
from repro.isa.microcode import cycle_cost
from repro.isa.patterns import evaluate_signature


class TepError(Exception):
    """Raised on execution faults (bad operands, stack problems, runaway)."""


class TepBudgetExceeded(TepError):
    """Raised when a run exceeds its cycle budget (``max_cycles``).

    The machine's watchdog catches this to abort the dispatch at the budget;
    without a watchdog it surfaces as the runaway-execution guard."""


class SimplePorts:
    """Dict-backed port bus for standalone tests."""

    def __init__(self, initial: Optional[Dict[int, int]] = None) -> None:
        self.values: Dict[int, int] = dict(initial or {})
        self.writes: List[Tuple[int, int]] = []

    def read(self, address: int) -> int:
        return self.values.get(address, 0)

    def write(self, address: int, value: int) -> None:
        self.values[address] = value
        self.writes.append((address, value))


@dataclass(frozen=True)
class ProgramImage:
    """A linked TEP program memory: read-only, shared by every TEP that
    runs it.  Build one with :meth:`link`."""

    arch: ArchConfig
    instructions: Tuple[Instruction, ...]
    #: label -> program slot
    labels: Mapping[str, int]
    #: cycle price of each program slot, charged when it executes
    prices: Tuple[int, ...]

    @classmethod
    def link(cls, arch: ArchConfig,
             program: Iterable[Instruction]) -> "ProgramImage":
        """Resolve *program*'s labels and price each slot once."""
        program = tuple(program)
        labels: Dict[str, int] = {}
        for index, instruction in enumerate(program):
            if instruction.label is not None:
                if instruction.label in labels:
                    raise TepError(f"duplicate label {instruction.label!r}")
                labels[instruction.label] = index
        return cls(arch, program, MappingProxyType(labels),
                   tuple(cycle_cost(instruction, arch)
                         for instruction in program))


@dataclass
class TepState:
    """Architectural state snapshot (for assertions in tests)."""

    acc: int
    op: int
    z: bool
    c: bool
    n: bool
    cycles: int


class Tep:
    """One Transition Execution Processor running a linked
    :class:`ProgramImage`; it allocates only its run state."""

    def __init__(self, image: ProgramImage, ports=None,
                 name: str = "tep0") -> None:
        arch = self.arch = image.arch
        self.name = name
        self.program = image.instructions
        self.labels = image.labels
        self.prices = image.prices
        self.ports = ports if ports is not None else SimplePorts()
        self.mask = (1 << arch.data_width) - 1
        self.sign_bit = 1 << (arch.data_width - 1)
        # architectural state
        self.acc = 0
        self.op = 0
        self.z = False
        self.c = False
        self.n = False
        self.registers: List[int] = [0] * max(1, arch.register_file_size)
        self.internal: Dict[int, int] = {}
        self.external: Dict[int, int] = {}
        self.condition_cache: List[bool] = [False] * 64
        self.events_raised: Set[int] = set()
        self.call_stack: List[int] = []
        self.cycles = 0
        self.instructions_executed = 0

    # -- state access -----------------------------------------------------
    def load_memory(self, values) -> None:
        """Install initial memory contents ((operand, word) pairs from the
        allocator, or a plain dict keyed by Mem/Reg operands)."""
        pairs = values.items() if hasattr(values, "items") else values
        for operand, word in pairs:
            self._write_location(operand, word)

    def read_location(self, operand: Operand) -> int:
        if isinstance(operand, Reg):
            return self.registers[operand.index]
        if isinstance(operand, Mem):
            store = (self.internal if operand.space is StorageClass.INTERNAL
                     else self.external)
            return store.get(operand.address, 0)
        raise TepError(f"cannot read location {operand!r}")

    def _write_location(self, operand: Operand, value: int) -> None:
        value &= self.mask
        if isinstance(operand, Reg):
            while operand.index >= len(self.registers):
                self.registers.append(0)
            self.registers[operand.index] = value
            return
        if isinstance(operand, Mem):
            store = (self.internal if operand.space is StorageClass.INTERNAL
                     else self.external)
            store[operand.address] = value
            return
        raise TepError(f"cannot write location {operand!r}")

    def flip_memory_bit(self, operand: Operand, bit: int) -> int:
        """Fault-injection hook: XOR one bit of a RAM/register word.

        Returns the word's new value."""
        value = self.read_location(operand) ^ (1 << bit)
        self._write_location(operand, value)
        return value & self.mask

    def read_variable(self, loc) -> int:
        """Read a (possibly multi-word) :class:`VarLoc` as a Python int."""
        value = 0
        for index, operand in enumerate(loc.words):
            value |= self.read_location(operand) << (index * self.arch.data_width)
        if loc.signed and value >> (loc.n_words * self.arch.data_width - 1):
            value -= 1 << (loc.n_words * self.arch.data_width)
        return value

    def write_variable(self, loc, value: int) -> None:
        for index, operand in enumerate(loc.words):
            self._write_location(
                operand, (value >> (index * self.arch.data_width)) & self.mask)

    def state(self) -> TepState:
        return TepState(self.acc, self.op, self.z, self.c, self.n, self.cycles)

    # -- operand evaluation ---------------------------------------------------
    def _value(self, operand: Operand) -> int:
        if isinstance(operand, Imm):
            return operand.value & self.mask
        if isinstance(operand, (Reg, Mem)):
            return self.read_location(operand)
        raise TepError(f"cannot evaluate operand {operand!r}")

    def _set_zn(self, value: int) -> None:
        self.z = value == 0
        self.n = bool(value & self.sign_bit)

    # -- execution ---------------------------------------------------------------
    def run(self, entry: str, max_cycles: int = 1_000_000) -> int:
        """Execute from *entry* until the matching RET/TRET; returns cycles
        consumed by this run."""
        if entry not in self.labels:
            raise TepError(f"unknown entry label {entry!r}")
        start_cycles = self.cycles
        pc = self.labels[entry]
        depth = len(self.call_stack)
        prices = self.prices
        while True:
            if pc < 0 or pc >= len(self.program):
                raise TepError(f"PC out of range: {pc}")
            instruction = self.program[pc]
            self.cycles += prices[pc]
            self.instructions_executed += 1
            if self.cycles - start_cycles > max_cycles:
                raise TepBudgetExceeded(
                    f"runaway execution in {entry!r} (> {max_cycles} cycles)")
            if instruction.op is Op.TRET:
                return self.cycles - start_cycles
            if instruction.op is Op.RET and len(self.call_stack) == depth:
                # the return matching this run()'s entry
                return self.cycles - start_cycles
            next_pc = self._execute(instruction, pc)
            if next_pc is None:
                raise TepError("unbalanced return")
            pc = next_pc

    def _branch_target(self, instruction: Instruction) -> int:
        operand = instruction.operand
        if isinstance(operand, LabelRef):
            if operand.name not in self.labels:
                raise TepError(f"undefined label {operand.name!r}")
            return self.labels[operand.name]
        raise TepError(f"bad jump operand {operand!r}")

    def _execute(self, instruction: Instruction, pc: int) -> Optional[int]:
        op = instruction.op
        operand = instruction.operand
        mask = self.mask

        if op is Op.NOP:
            return pc + 1
        if op is Op.LDA:
            self.acc = self._value(operand)
            self._set_zn(self.acc)
            return pc + 1
        if op is Op.LDO:
            self.op = self._value(operand)
            return pc + 1
        if op is Op.TAO:
            self.op = self.acc
            return pc + 1
        if op is Op.STA:
            self._write_location(operand, self.acc)
            return pc + 1
        if op is Op.LDI:
            if not isinstance(operand, Mem):
                raise TepError("LDI needs a memory base")
            self.acc = self.read_location(
                Mem(operand.address + self.op, operand.space))
            self._set_zn(self.acc)
            return pc + 1
        if op is Op.STI:
            if not isinstance(operand, Mem):
                raise TepError("STI needs a memory base")
            self._write_location(
                Mem(operand.address + self.op, operand.space), self.acc)
            return pc + 1

        if op in (Op.ADD, Op.ADC):
            source = self._value(operand)
            total = self.acc + source + (1 if op is Op.ADC and self.c else 0)
            self.c = total > mask
            self.acc = total & mask
            self._set_zn(self.acc)
            return pc + 1
        if op in (Op.SUB, Op.SBC, Op.CMP):
            source = self._value(operand)
            borrow = 1 if op is Op.SBC and self.c else 0
            total = self.acc - source - borrow
            self.c = total < 0
            result = total & mask
            if op is not Op.CMP:
                self.acc = result
            self.z = result == 0
            self.n = bool(result & self.sign_bit)
            return pc + 1
        if op in (Op.AND, Op.ORR, Op.XOR):
            source = self._value(operand)
            fn = {Op.AND: lambda a, b: a & b,
                  Op.ORR: lambda a, b: a | b,
                  Op.XOR: lambda a, b: a ^ b}[op]
            self.acc = fn(self.acc, source) & mask
            self._set_zn(self.acc)
            return pc + 1
        if op is Op.NOT:
            self.acc = (~self.acc) & mask
            self._set_zn(self.acc)
            return pc + 1
        if op is Op.NEG:
            if not self.arch.has_negator:
                raise TepError("NEG executed without a negator ALU")
            self.acc = (-self.acc) & mask
            self._set_zn(self.acc)
            return pc + 1
        if op is Op.INC:
            self.acc = (self.acc + 1) & mask
            self._set_zn(self.acc)
            return pc + 1
        if op is Op.DEC:
            self.acc = (self.acc - 1) & mask
            self._set_zn(self.acc)
            return pc + 1

        if op is Op.SHL:
            self.c = bool(self.acc & self.sign_bit)
            self.acc = (self.acc << 1) & mask
            self._set_zn(self.acc)
            return pc + 1
        if op is Op.SHR:
            self.c = bool(self.acc & 1)
            self.acc >>= 1
            self._set_zn(self.acc)
            return pc + 1
        if op is Op.RCL:
            carry_in = 1 if self.c else 0
            self.c = bool(self.acc & self.sign_bit)
            self.acc = ((self.acc << 1) | carry_in) & mask
            self._set_zn(self.acc)
            return pc + 1
        if op is Op.RCR:
            carry_in = self.sign_bit if self.c else 0
            self.c = bool(self.acc & 1)
            self.acc = (self.acc >> 1) | carry_in
            self._set_zn(self.acc)
            return pc + 1
        if op in (Op.SHLN, Op.SHRN):
            if not self.arch.has_barrel_shifter:
                raise TepError(f"{op.name} executed without a barrel shifter")
            amount = self._value(operand)
            if op is Op.SHLN:
                self.acc = (self.acc << amount) & mask
            else:
                self.acc >>= amount
            self._set_zn(self.acc)
            return pc + 1

        if op in (Op.MUL, Op.DIV, Op.MOD):
            if not self.arch.has_muldiv:
                raise TepError(f"{op.name} executed without an M/D unit")
            source = self._value(operand)
            if op is Op.MUL:
                self.acc = (self.acc * source) & mask
            elif source == 0:
                self.acc = mask  # division by zero saturates
            elif op is Op.DIV:
                self.acc = (self.acc // source) & mask
            else:
                self.acc = (self.acc % source) & mask
            self._set_zn(self.acc)
            return pc + 1

        if op is Op.JMP:
            return self._branch_target(instruction)
        if op in (Op.JZ, Op.JNZ, Op.JC, Op.JNC, Op.JN, Op.JP):
            taken = {Op.JZ: self.z, Op.JNZ: not self.z,
                     Op.JC: self.c, Op.JNC: not self.c,
                     Op.JN: self.n, Op.JP: not self.n}[op]
            return self._branch_target(instruction) if taken else pc + 1
        if op in (Op.CBEQ, Op.CBNE):
            if not self.arch.has_comparator:
                raise TepError(f"{op.name} executed without a comparator")
            source = self._value(operand)
            equal = (self.acc & mask) == source
            taken = equal if op is Op.CBEQ else not equal
            if instruction.target is None:
                raise TepError(f"{op.name} without branch target")
            if taken:
                name = instruction.target.name
                if name not in self.labels:
                    raise TepError(f"undefined label {name!r}")
                return self.labels[name]
            return pc + 1
        if op is Op.CALL:
            self.call_stack.append(pc + 1)
            if len(self.call_stack) > 64:
                raise TepError("call stack overflow (recursion?)")
            return self._branch_target(instruction)
        if op is Op.RET:
            if not self.call_stack:
                return None
            return self.call_stack.pop()
        if op is Op.TRET:
            return None

        if op is Op.INP:
            if not isinstance(operand, PortRef):
                raise TepError("INP needs a port operand")
            self.acc = self.ports.read(operand.address) & mask
            self._set_zn(self.acc)
            return pc + 1
        if op is Op.OUTP:
            if not isinstance(operand, PortRef):
                raise TepError("OUTP needs a port operand")
            self.ports.write(operand.address, self.acc)
            return pc + 1

        if op in (Op.EVSET, Op.CSET, Op.CCLR, Op.CTST):
            if not isinstance(operand, SignalRef):
                raise TepError(f"{op.name} needs a signal operand")
            index = operand.index
            if op is Op.EVSET:
                self.events_raised.add(index)
            elif op is Op.CSET:
                self.condition_cache[index] = True
            elif op is Op.CCLR:
                self.condition_cache[index] = False
            else:
                self.acc = 1 if self.condition_cache[index] else 0
                self._set_zn(self.acc)
            return pc + 1

        if op is Op.CUSTOM:
            index = operand.value if isinstance(operand, Imm) else -1
            if not 0 <= index < len(self.arch.custom_instructions):
                raise TepError(f"undefined CUSTOM #{index}")
            custom = self.arch.custom_instructions[index]
            operands = [self.acc, self.op] + list(self.registers)
            self.acc = evaluate_signature(custom.signature, operands, mask)
            self._set_zn(self.acc)
            return pc + 1

        raise TepError(f"unimplemented opcode {op}")
