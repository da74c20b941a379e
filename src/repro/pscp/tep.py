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

"Once a particular PSCP version has been fixed" (section 3.2) its
microprograms are fixed too, so each slot of a linked
:class:`ProgramImage` is decoded once, the first time any TEP executes it,
into a handler with its operand resolved: the masked immediate, the memory
space and address, the branch target's slot, the signal index, the port
address, the custom instruction.  A link decodes nothing, and every TEP on
the image shares the decoded slots.  A handler reaches the TEP's state only
through the TEP it is given, which a restore may have refilled.  A slot's
error (an undefined label, an operand its instruction cannot take,
hardware the architecture lacks) is raised each time the slot executes,
never when it is linked or decoded.

Flag conventions (documented here once, relied on by the code generator):

* loads (``LDA``/``LDI``/``CTST``/``INP``) set Z and N, preserve C;
* ALU operations set Z, N and C (C = carry out for ``ADD``/``ADC``,
  borrow for ``SUB``/``SBC``/``CMP``);
* shifts move the outgoing bit into C (``RCL``/``RCR`` rotate through it);
* stores and jumps change no flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (Callable, Dict, Iterable, List, Mapping, Optional, Set,
                    Tuple)

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

    def __init__(self, entry: str, max_cycles: int) -> None:
        super().__init__(
            f"runaway execution in {entry!r} (> {max_cycles} cycles)")
        #: the entry label of the run that overran
        self.entry = entry


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


#: a decoded slot: executes on the TEP it is given at program slot ``pc``
#: and returns the next slot, or :data:`_END` to end the run
Handler = Callable[["Tep", int], int]

#: what a handler returns to end the run: ``TRET``, or the ``RET`` that
#: finds the call stack at the run's entry depth
_END = -1


def _undecoded(tep: "Tep", pc: int) -> int:
    """The handler of every slot no TEP has executed yet: decode the slot
    for every TEP of the image, then execute it."""
    handler = tep.handlers[pc] = _decode(tep.image, pc)
    return handler(tep, pc)


@dataclass(frozen=True)
class ProgramImage:
    """A linked TEP program memory: read-only, shared by every TEP that
    runs it; only its table of decoded slots fills in as they first
    execute.  Build one with :meth:`link`."""

    arch: ArchConfig
    instructions: Tuple[Instruction, ...]
    #: label -> program slot
    labels: Mapping[str, int]
    #: cycle price of each program slot, charged when it executes
    prices: Tuple[int, ...]
    #: each slot's handler: :func:`_undecoded` until a TEP first executes
    #: the slot, then its decoded handler
    handlers: List[Handler] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "handlers",
                           [_undecoded] * len(self.instructions))

    @classmethod
    def link(cls, arch: ArchConfig,
             program: Iterable[Instruction]) -> "ProgramImage":
        """Resolve *program*'s labels and price each slot once; a slot is
        decoded only when it first executes."""
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
        self.image = image
        self.program = image.instructions
        self.labels = image.labels
        self.prices = image.prices
        self.handlers = image.handlers
        self.ports = ports if ports is not None else SimplePorts()
        self.mask = (1 << arch.data_width) - 1
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
        #: the call-stack depth at which a ``RET`` ends the current run
        self.return_depth = 0

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

    # -- execution ---------------------------------------------------------------
    def run(self, entry: str, max_cycles: int = 1_000_000) -> int:
        """Execute from *entry* until the matching RET/TRET; returns cycles
        consumed by this run.  ``cycles`` and ``instructions_executed``
        count every slot that started executing, however the run ends."""
        if entry not in self.labels:
            raise TepError(f"unknown entry label {entry!r}")
        handlers = self.handlers
        prices = self.prices
        size = len(prices)
        start_cycles = cycles = self.cycles
        limit = start_cycles + max_cycles
        executed = self.instructions_executed
        self.return_depth = len(self.call_stack)
        pc = self.labels[entry]
        try:
            while 0 <= pc < size:
                cycles += prices[pc]
                executed += 1
                if cycles > limit:
                    raise TepBudgetExceeded(entry, max_cycles)
                pc = handlers[pc](self, pc)
        finally:
            self.cycles = cycles
            self.instructions_executed = executed
        if pc != _END:
            raise TepError(f"PC out of range: {pc}")
        return cycles - start_cycles


# ---------------------------------------------------------------------------
# decoding: one handler per slot, its operand resolved
# ---------------------------------------------------------------------------
#
# Each decoder takes the slot's instruction, the image's architecture and
# labels and returns the slot's handler.  Checks run in the order the
# instruction's semantics read them: the hardware first, then the operand,
# then (for branches) the target, which only a taken branch resolves.

def _decode(image: ProgramImage, pc: int) -> Handler:
    """Slot *pc* of *image* as a handler."""
    instruction = image.instructions[pc]
    return _DECODERS[instruction.op](instruction, image.arch, image.labels)


def _fault(message: str) -> Handler:
    """A slot that raises *message* each time it executes."""
    def fault(tep: Tep, pc: int) -> int:
        raise TepError(message)
    return fault


def _widths(arch: ArchConfig) -> Tuple[int, int]:
    """(word mask, sign bit) of *arch*'s data bus."""
    return (1 << arch.data_width) - 1, 1 << (arch.data_width - 1)


def _reader(operand: Operand, mask: int) -> Optional[Callable[[Tep], int]]:
    """The operand's value on a TEP, or ``None`` when it has none."""
    if isinstance(operand, Imm):
        value = operand.value & mask
        return lambda tep: value
    if isinstance(operand, Reg):
        index = operand.index
        return lambda tep: tep.registers[index]
    if isinstance(operand, Mem):
        address = operand.address
        if operand.space is StorageClass.INTERNAL:
            return lambda tep: tep.internal.get(address, 0)
        return lambda tep: tep.external.get(address, 0)
    return None


def _target(operand: Operand, labels: Mapping[str, int]
            ) -> Tuple[Optional[int], str]:
    """(slot, '') of a resolved branch target, else (None, the error)."""
    if isinstance(operand, LabelRef):
        if operand.name not in labels:
            return None, f"undefined label {operand.name!r}"
        return labels[operand.name], ""
    return None, f"bad jump operand {operand!r}"


# -- control -------------------------------------------------------------------

def _nop(tep: Tep, pc: int) -> int:
    return pc + 1


def _tret(tep: Tep, pc: int) -> int:
    return _END


def _ret(tep: Tep, pc: int) -> int:
    # only CALL grows the stack during a run, so it never falls below the
    # run's entry depth
    stack = tep.call_stack
    if len(stack) == tep.return_depth:
        return _END
    return stack.pop()


def _decode_shared(handler: Handler):
    return lambda instruction, arch, labels: handler


def _decode_jmp(instruction, arch, labels) -> Handler:
    target, error = _target(instruction.operand, labels)
    if target is None:
        return _fault(error)
    return lambda tep, pc: target


#: conditional jump -> (flag, the flag's value that takes the branch)
_CONDITIONS = {Op.JZ: ("z", True), Op.JNZ: ("z", False),
               Op.JC: ("c", True), Op.JNC: ("c", False),
               Op.JN: ("n", True), Op.JP: ("n", False)}


def _decode_conditional(instruction, arch, labels) -> Handler:
    target, error = _target(instruction.operand, labels)
    flag, taken = _CONDITIONS[instruction.op]

    def conditional(tep: Tep, pc: int) -> int:
        if bool(getattr(tep, flag)) is not taken:
            return pc + 1
        if target is None:
            raise TepError(error)
        return target
    return conditional


def _decode_call(instruction, arch, labels) -> Handler:
    target, error = _target(instruction.operand, labels)

    def call(tep: Tep, pc: int) -> int:
        stack = tep.call_stack
        stack.append(pc + 1)
        if len(stack) > 64:
            raise TepError("call stack overflow (recursion?)")
        if target is None:
            raise TepError(error)
        return target
    return call


def _decode_compare_branch(instruction, arch, labels) -> Handler:
    op = instruction.op
    if not arch.has_comparator:
        return _fault(f"{op.name} executed without a comparator")
    mask, _ = _widths(arch)
    read = _reader(instruction.operand, mask)
    if read is None:
        return _fault(f"cannot evaluate operand {instruction.operand!r}")
    if instruction.target is None:
        message = f"{op.name} without branch target"

        def untargeted(tep: Tep, pc: int) -> int:
            read(tep)
            raise TepError(message)
        return untargeted
    target, error = _target(instruction.target, labels)
    on_equal = op is Op.CBEQ

    def compare_branch(tep: Tep, pc: int) -> int:
        if ((tep.acc & mask) == read(tep)) is not on_equal:
            return pc + 1
        if target is None:
            raise TepError(error)
        return target
    return compare_branch


# -- loads and stores ----------------------------------------------------------

def _decode_lda(instruction, arch, labels) -> Handler:
    mask, sign = _widths(arch)
    operand = instruction.operand
    if isinstance(operand, Imm):
        # a fifth of the elevator's instructions: flags resolved too
        value = operand.value & mask
        z, n = value == 0, (value & sign) != 0

        def load_immediate(tep: Tep, pc: int) -> int:
            tep.acc = value
            tep.z = z
            tep.n = n
            return pc + 1
        return load_immediate
    read = _reader(operand, mask)
    if read is None:
        return _fault(f"cannot evaluate operand {operand!r}")

    def load(tep: Tep, pc: int) -> int:
        acc = tep.acc = read(tep)
        tep.z = acc == 0
        tep.n = (acc & sign) != 0
        return pc + 1
    return load


def _decode_ldo(instruction, arch, labels) -> Handler:
    mask, _ = _widths(arch)
    read = _reader(instruction.operand, mask)
    if read is None:
        return _fault(f"cannot evaluate operand {instruction.operand!r}")

    def load_op(tep: Tep, pc: int) -> int:
        tep.op = read(tep)
        return pc + 1
    return load_op


def _tao(tep: Tep, pc: int) -> int:
    tep.op = tep.acc
    return pc + 1


def _decode_sta(instruction, arch, labels) -> Handler:
    mask, _ = _widths(arch)
    operand = instruction.operand
    if isinstance(operand, Reg):
        index = operand.index

        def store_register(tep: Tep, pc: int) -> int:
            registers = tep.registers
            while index >= len(registers):
                registers.append(0)
            registers[index] = tep.acc & mask
            return pc + 1
        return store_register
    if isinstance(operand, Mem):
        address = operand.address
        if operand.space is StorageClass.INTERNAL:
            def store_internal(tep: Tep, pc: int) -> int:
                tep.internal[address] = tep.acc & mask
                return pc + 1
            return store_internal

        def store_external(tep: Tep, pc: int) -> int:
            tep.external[address] = tep.acc & mask
            return pc + 1
        return store_external
    return _fault(f"cannot write location {operand!r}")


def _decode_indexed(instruction, arch, labels) -> Handler:
    """``LDI``/``STI``: the word at the base address plus ``OP``."""
    op = instruction.op
    operand = instruction.operand
    if not isinstance(operand, Mem):
        return _fault(f"{op.name} needs a memory base")
    mask, sign = _widths(arch)
    base = operand.address
    internal = operand.space is StorageClass.INTERNAL
    if op is Op.LDI:
        def load_indexed(tep: Tep, pc: int) -> int:
            store = tep.internal if internal else tep.external
            acc = tep.acc = store.get(base + tep.op, 0)
            tep.z = acc == 0
            tep.n = (acc & sign) != 0
            return pc + 1
        return load_indexed

    def store_indexed(tep: Tep, pc: int) -> int:
        store = tep.internal if internal else tep.external
        store[base + tep.op] = tep.acc & mask
        return pc + 1
    return store_indexed


# -- arithmetic and logic ------------------------------------------------------

def _decode_add(instruction, arch, labels) -> Handler:
    """``ADD``/``ADC``: C is the carry out."""
    mask, sign = _widths(arch)
    read = _reader(instruction.operand, mask)
    if read is None:
        return _fault(f"cannot evaluate operand {instruction.operand!r}")
    with_carry = instruction.op is Op.ADC

    def add(tep: Tep, pc: int) -> int:
        total = tep.acc + read(tep)
        if with_carry and tep.c:
            total += 1
        tep.c = total > mask
        acc = tep.acc = total & mask
        tep.z = acc == 0
        tep.n = (acc & sign) != 0
        return pc + 1
    return add


def _decode_subtract(instruction, arch, labels) -> Handler:
    """``SUB``/``SBC``/``CMP``: C is the borrow; ``CMP`` keeps ACC."""
    mask, sign = _widths(arch)
    read = _reader(instruction.operand, mask)
    if read is None:
        return _fault(f"cannot evaluate operand {instruction.operand!r}")
    with_borrow = instruction.op is Op.SBC
    keep = instruction.op is not Op.CMP

    def subtract(tep: Tep, pc: int) -> int:
        total = tep.acc - read(tep)
        if with_borrow and tep.c:
            total -= 1
        tep.c = total < 0
        result = total & mask
        if keep:
            tep.acc = result
        tep.z = result == 0
        tep.n = (result & sign) != 0
        return pc + 1
    return subtract


#: ACC <- f(ACC, source, mask), setting Z and N; C is kept
_COMBINE = {
    Op.AND: lambda acc, source, mask: acc & source & mask,
    Op.ORR: lambda acc, source, mask: (acc | source) & mask,
    Op.XOR: lambda acc, source, mask: (acc ^ source) & mask,
    Op.SHLN: lambda acc, amount, mask: (acc << amount) & mask,
    Op.SHRN: lambda acc, amount, mask: acc >> amount,
    Op.MUL: lambda acc, source, mask: (acc * source) & mask,
    # division by zero saturates
    Op.DIV: lambda acc, source, mask: ((acc // source) & mask if source
                                       else mask),
    Op.MOD: lambda acc, source, mask: ((acc % source) & mask if source
                                       else mask),
}

#: the hardware an operation needs: (ArchConfig flag, what it is called)
_NEEDS = {Op.SHLN: ("has_barrel_shifter", "a barrel shifter"),
          Op.SHRN: ("has_barrel_shifter", "a barrel shifter"),
          Op.MUL: ("has_muldiv", "an M/D unit"),
          Op.DIV: ("has_muldiv", "an M/D unit"),
          Op.MOD: ("has_muldiv", "an M/D unit"),
          Op.NEG: ("has_negator", "a negator ALU")}


def _missing_unit(op: Op, arch: ArchConfig) -> Optional[Handler]:
    """The fault of *op* on *arch* without the unit it needs, else None."""
    if op in _NEEDS and not getattr(arch, _NEEDS[op][0]):
        return _fault(f"{op.name} executed without {_NEEDS[op][1]}")
    return None


def _decode_combine(instruction, arch, labels) -> Handler:
    fault = _missing_unit(instruction.op, arch)
    if fault is not None:
        return fault
    mask, sign = _widths(arch)
    read = _reader(instruction.operand, mask)
    if read is None:
        return _fault(f"cannot evaluate operand {instruction.operand!r}")
    combine = _COMBINE[instruction.op]

    def combined(tep: Tep, pc: int) -> int:
        acc = tep.acc = combine(tep.acc, read(tep), mask)
        tep.z = acc == 0
        tep.n = (acc & sign) != 0
        return pc + 1
    return combined


#: ACC <- f(ACC, mask), setting Z and N; C is kept
_UNARY = {
    Op.NOT: lambda acc, mask: ~acc & mask,
    Op.NEG: lambda acc, mask: -acc & mask,
    Op.INC: lambda acc, mask: (acc + 1) & mask,
    Op.DEC: lambda acc, mask: (acc - 1) & mask,
}


def _decode_unary(instruction, arch, labels) -> Handler:
    fault = _missing_unit(instruction.op, arch)
    if fault is not None:
        return fault
    mask, sign = _widths(arch)
    apply = _UNARY[instruction.op]

    def unary(tep: Tep, pc: int) -> int:
        acc = tep.acc = apply(tep.acc, mask)
        tep.z = acc == 0
        tep.n = (acc & sign) != 0
        return pc + 1
    return unary


#: one-bit shifts: (ACC, C) <- f(ACC, C, mask, sign), setting Z and N;
#: the outgoing bit goes to C, and RCL/RCR rotate the old C in
_SHIFTS = {
    Op.SHL: lambda acc, c, mask, sign: ((acc << 1) & mask,
                                        (acc & sign) != 0),
    Op.SHR: lambda acc, c, mask, sign: (acc >> 1, (acc & 1) != 0),
    Op.RCL: lambda acc, c, mask, sign: (((acc << 1) | (1 if c else 0))
                                        & mask, (acc & sign) != 0),
    Op.RCR: lambda acc, c, mask, sign: ((acc >> 1) | (sign if c else 0),
                                        (acc & 1) != 0),
}


def _decode_shift(instruction, arch, labels) -> Handler:
    mask, sign = _widths(arch)
    apply = _SHIFTS[instruction.op]

    def shift(tep: Tep, pc: int) -> int:
        acc, tep.c = apply(tep.acc, tep.c, mask, sign)
        tep.acc = acc
        tep.z = acc == 0
        tep.n = (acc & sign) != 0
        return pc + 1
    return shift


def _decode_custom(instruction, arch, labels) -> Handler:
    operand = instruction.operand
    index = operand.value if isinstance(operand, Imm) else -1
    if not 0 <= index < len(arch.custom_instructions):
        return _fault(f"undefined CUSTOM #{index}")
    signature = arch.custom_instructions[index].signature
    mask, sign = _widths(arch)

    def custom(tep: Tep, pc: int) -> int:
        acc = tep.acc = evaluate_signature(
            signature, [tep.acc, tep.op] + tep.registers, mask)
        tep.z = acc == 0
        tep.n = (acc & sign) != 0
        return pc + 1
    return custom


# -- ports and the CR ----------------------------------------------------------

def _decode_port(instruction, arch, labels) -> Handler:
    op = instruction.op
    operand = instruction.operand
    if not isinstance(operand, PortRef):
        return _fault(f"{op.name} needs a port operand")
    address = operand.address
    if op is Op.OUTP:
        def output(tep: Tep, pc: int) -> int:
            tep.ports.write(address, tep.acc)
            return pc + 1
        return output
    mask, sign = _widths(arch)

    def input_(tep: Tep, pc: int) -> int:
        acc = tep.acc = tep.ports.read(address) & mask
        tep.z = acc == 0
        tep.n = (acc & sign) != 0
        return pc + 1
    return input_


def _decode_signal(instruction, arch, labels) -> Handler:
    op = instruction.op
    operand = instruction.operand
    if not isinstance(operand, SignalRef):
        return _fault(f"{op.name} needs a signal operand")
    index = operand.index
    if op is Op.EVSET:
        def raise_event(tep: Tep, pc: int) -> int:
            tep.events_raised.add(index)
            return pc + 1
        return raise_event
    if op is Op.CSET or op is Op.CCLR:
        value = op is Op.CSET

        def set_condition(tep: Tep, pc: int) -> int:
            tep.condition_cache[index] = value
            return pc + 1
        return set_condition
    _, sign = _widths(arch)

    def test_condition(tep: Tep, pc: int) -> int:
        acc = tep.acc = 1 if tep.condition_cache[index] else 0
        tep.z = acc == 0
        tep.n = (acc & sign) != 0
        return pc + 1
    return test_condition


_DECODERS: Dict[Op, Callable[..., Handler]] = {
    Op.NOP: _decode_shared(_nop),
    Op.TRET: _decode_shared(_tret),
    Op.RET: _decode_shared(_ret),
    Op.TAO: _decode_shared(_tao),
    Op.JMP: _decode_jmp,
    **{op: _decode_conditional for op in _CONDITIONS},
    Op.CALL: _decode_call,
    Op.CBEQ: _decode_compare_branch,
    Op.CBNE: _decode_compare_branch,
    Op.LDA: _decode_lda,
    Op.LDO: _decode_ldo,
    Op.STA: _decode_sta,
    Op.LDI: _decode_indexed,
    Op.STI: _decode_indexed,
    Op.ADD: _decode_add,
    Op.ADC: _decode_add,
    Op.SUB: _decode_subtract,
    Op.SBC: _decode_subtract,
    Op.CMP: _decode_subtract,
    **{op: _decode_combine for op in _COMBINE},
    **{op: _decode_unary for op in _UNARY},
    **{op: _decode_shift for op in _SHIFTS},
    Op.CUSTOM: _decode_custom,
    Op.INP: _decode_port,
    Op.OUTP: _decode_port,
    **{op: _decode_signal for op in (Op.EVSET, Op.CSET, Op.CCLR, Op.CTST)},
}
