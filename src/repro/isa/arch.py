"""Architecture configuration of a TEP / PSCP instance.

Section 3.3: "The TEP of an application is derived from a library of elements
consisting of hardware building blocks and associated microinstruction
sequences" — calculation units of varying size and functionality, with or
without register files and shifting capability, several ALU styles, and three
storage tiers (registers, internal RAM, external RAM).  TEPs can be
replicated into MIMD-style PSCP versions.

:class:`ArchConfig` is the single value object describing one such PSCP
version.  Everything downstream is a function of it:

* each instruction's microprogram (and therefore its cycle cost) —
  :mod:`repro.isa.microcode`;
* the code the compiler may emit (M/D instructions, fused compare-branch,
  two's-complement, barrel shifts, custom instructions) —
  :mod:`repro.isa.codegen`;
* the CLB area — :mod:`repro.hw.area`;
* the timing validator's parallel-sibling bounds (number of TEPs) —
  :mod:`repro.flow.timing`.

The iterative improvement loop (:mod:`repro.flow.improve`) walks through a
sequence of ``ArchConfig`` values, fixing timing violations in increasing
order of hardware cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import FrozenSet, Optional, Tuple


class StorageClass(enum.Enum):
    """Where a variable lives (section 3.3's storage alternatives).

    "Fast, but more expensive registers, moderately fast and moderately
    expensive internal RAM, and slower, but cheaper external RAM."
    """

    REGISTER = "register"
    INTERNAL = "internal"
    EXTERNAL = "external"


@dataclass(frozen=True)
class CustomInstruction:
    """A fused single-cycle operation generated from an expression pattern.

    "Simple components such as shifters and registers can be combined to
    custom operations, which are derived from the assembler code.  These
    instructions execute within one clock cycle.  Care must be taken that
    such instructions do not become the critical paths inside the TEP."

    ``signature`` is the canonical serialization of the expression tree (see
    :func:`repro.isa.patterns.expression_signature`); ``operands`` is the
    number of distinct leaf variables; ``depth`` the operator depth, which is
    limited so the fused logic does not set the TEP's critical path.
    """

    name: str
    signature: str
    operands: int
    depth: int

    def __post_init__(self) -> None:
        if self.operands < 1:
            raise ValueError("custom instruction needs at least one operand")
        if self.depth < 1:
            raise ValueError("custom instruction needs at least one operator")


#: operator depth above which a fused expression would become the critical
#: path of the TEP ("complex expressions are broken up into smaller ones").
MAX_CUSTOM_DEPTH = 4

#: the basic TEP described in section 3.2
BASIC_DATA_WIDTH = 8
BASIC_INSTRUCTION_WIDTH = 16
BASIC_MICROINSTRUCTION_WIDTH = 16


@dataclass(frozen=True)
class ArchConfig:
    """One point in the PSCP architecture space."""

    name: str = "basic"
    #: data bus width in bits — 8 in the basic TEP, widened to 16 for the
    #: SMD example's final architecture
    data_width: int = BASIC_DATA_WIDTH
    #: instruction format width (constant in the paper)
    instruction_width: int = BASIC_INSTRUCTION_WIDTH
    #: calculation unit with multiply/divide capability (Table 4's "M/D")
    has_muldiv: bool = False
    #: ALU style with an additional comparator — enables the fused
    #: compare-and-branch the pattern matcher inserts for ``if (a == b)``
    has_comparator: bool = False
    #: ALU capable of two's complement in one operation (for ``x = -x``)
    has_negator: bool = False
    #: shifter capable of multi-bit shifts in one operation
    has_barrel_shifter: bool = False
    #: general-purpose registers beyond ACC and the operand register
    register_file_size: int = 0
    #: words of on-chip RAM
    internal_ram_words: int = 32
    #: extra wait-state cycles for each external-RAM access
    external_ram_wait_states: int = 2
    #: microprograms run through the peephole optimizer (redundant-jump
    #: removal) — Table 4's "optimized code"
    microcode_optimized: bool = False
    #: pipelined TEP ("future work", section 6): instruction fetch overlaps
    #: the previous instruction's execution, hiding the two fetch states;
    #: taken control transfers pay a flush penalty instead
    pipelined: bool = False
    #: number of Transition Execution Processors
    n_teps: int = 1
    #: fused expression instructions selected for this application
    custom_instructions: Tuple[CustomInstruction, ...] = ()
    #: designer-declared mutually-exclusive routine pairs; needed when
    #: n_teps > 1 so the scheduler's decode logic never runs them in parallel
    mutual_exclusions: FrozenSet[FrozenSet[str]] = frozenset()

    def __post_init__(self) -> None:
        if self.data_width not in (8, 16, 32):
            raise ValueError(f"unsupported data width {self.data_width}")
        if self.n_teps < 1:
            raise ValueError("need at least one TEP")
        if self.register_file_size < 0 or self.internal_ram_words < 0:
            raise ValueError("storage sizes must be non-negative")
        if self.external_ram_wait_states < 0:
            raise ValueError("wait states must be non-negative")
        for custom in self.custom_instructions:
            if custom.depth > MAX_CUSTOM_DEPTH:
                raise ValueError(
                    f"custom instruction {custom.name} exceeds the critical-"
                    f"path depth limit ({custom.depth} > {MAX_CUSTOM_DEPTH})")

    # -- derived quantities -------------------------------------------------
    def words_for(self, bit_width: int) -> int:
        """Data-bus words needed to hold a value of *bit_width* bits."""
        return max(1, -(-bit_width // self.data_width))

    def custom_by_signature(self, signature: str) -> Optional[CustomInstruction]:
        for custom in self.custom_instructions:
            if custom.signature == signature:
                return custom
        return None

    def mutually_exclusive(self, routine_a: str, routine_b: str) -> bool:
        return frozenset((routine_a, routine_b)) in self.mutual_exclusions

    def with_(self, **changes) -> "ArchConfig":
        """A copy with the given fields replaced (convenience wrapper)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line summary in the style of Table 4's architecture column."""
        parts = []
        if self.n_teps > 1:
            parts.append(f"{self.n_teps}x")
        parts.append(f"{self.data_width}bit")
        if self.has_muldiv:
            parts.append("M/D")
        parts.append("TEP")
        if self.pipelined:
            parts.append("pipelined")
        parts.append("optimized" if self.microcode_optimized else "unoptimized")
        if self.register_file_size:
            parts.append(f"+{self.register_file_size}reg")
        if self.custom_instructions:
            parts.append(f"+{len(self.custom_instructions)}custom")
        return " ".join(parts)


#: the minimal functional microcontroller of section 3.2
MINIMAL_TEP = ArchConfig(name="minimal")

#: the architecture the SMD example converges to before code optimization
#: (Table 4 row 2): one TEP, 16-bit bus, M/D calculation unit
MD16_TEP = ArchConfig(
    name="16bit-md",
    data_width=16,
    has_muldiv=True,
    internal_ram_words=64,
)
