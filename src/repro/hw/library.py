"""The hardware component library (section 3.3).

"The TEP of an application is derived from a library of elements consisting
of hardware building blocks and associated microinstruction sequences.  The
main library elements are calculation units of varying size and
functionality.  There are units with or without associated register files,
and units with or without shifting capabilities.  Several styles of ALUs …
are available.  The library also contains several storage alternatives:
Fast, but more expensive registers, moderately fast and moderately expensive
internal RAM, and slower, but cheaper external RAM."

Every component carries a CLB cost (XC4000 CLBs) and a combinational delay
estimate in nanoseconds.  The per-component coefficients are calibrated once
against Table 4's area column (224 / 421 / 773 CLBs) and kept fixed; they
are plain module constants so the calibration is visible and testable.

Delays matter for two things: the reference clock the timing constraints are
quoted against (15 MHz in the example = 66 ns), and the rule that custom
instructions "do not become the critical paths inside the TEP" — a fused
expression's delay must stay below the base clock period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.isa.arch import ArchConfig, CustomInstruction


@dataclass(frozen=True)
class Component:
    """One library element instance with its cost and delay."""

    name: str
    clbs: int
    delay_ns: float
    kind: str = "logic"

    def __post_init__(self) -> None:
        if self.clbs < 0:
            raise ValueError(f"{self.name}: negative area")


# -- calibrated per-bit / per-unit coefficients (XC4000 CLBs) ----------------
ALU_CLB_PER_BIT = 2.5          # basic add/sub/logic ALU slice
SHIFTER_CLB_PER_BIT = 0.5      # single-bit shifter
BARREL_CLB_PER_BIT = 2.5       # full barrel shifter
MULDIV_CLB_PER_BIT = 8.5       # sequential multiplier/divider + control
COMPARATOR_CLB_PER_BIT = 0.5   # extra comparator for fused compare-branch
NEGATOR_CLB_PER_BIT = 0.5      # two's-complement path
REGISTER_CLB_PER_BIT = 0.75    # one register bit pair per CLB flop pair
RAM_BITS_PER_CLB = 32          # XC4000 CLB-as-RAM
CONTROL_BASE_CLBS = 40         # microprogram sequencer + IR + PC
CONTROL_CLB_PER_ROM_WORD = 0.10  # decoder ROM (16-bit microinstructions)
ADDRESS_LOGIC_CLBS = 14        # address bus mux/drivers
PORT_LOGIC_CLBS = 26           # event/condition/data port interface per TEP
CONDITION_CACHE_CLBS = 8       # per-TEP condition cache + copy logic
SLA_INTERFACE_CLBS = 12        # per-TEP transition registers + SLA handshake
PIPELINE_CLBS = 18             # pipeline registers + hazard/flush control
CUSTOM_CLB_PER_OP_BIT = 0.6    # fused-unit logic per operator per bit

# -- delay coefficients (ns) -------------------------------------------------
LUT_LEVEL_DELAY_NS = 7.0       # one XC4000 logic level incl. routing
CARRY_DELAY_NS_PER_BIT = 1.2   # dedicated carry chain
CONTROL_OVERHEAD_NS = 18.0     # clock-to-out + setup + microcode decode

#: default decoder-ROM size estimate when no application is bound yet
DEFAULT_ROM_WORDS = 120


def alu_delay_ns(width: int) -> float:
    """Adder-dominated ALU delay: one level plus the carry chain."""
    return LUT_LEVEL_DELAY_NS + CARRY_DELAY_NS_PER_BIT * width


def custom_delay_ns(custom: CustomInstruction, width: int) -> float:
    """Delay of a fused unit: one carry chain per depth level."""
    return custom.depth * (LUT_LEVEL_DELAY_NS + CARRY_DELAY_NS_PER_BIT * width)


def clock_period_ns(arch: ArchConfig) -> float:
    """Achievable clock period of a TEP configuration.

    The critical path is the slowest of: the base ALU, the M/D unit's
    iteration step, and any custom instruction's fused logic.
    """
    candidates = [alu_delay_ns(arch.data_width) + CONTROL_OVERHEAD_NS]
    if arch.has_muldiv:
        candidates.append(alu_delay_ns(arch.data_width) + CONTROL_OVERHEAD_NS
                          + LUT_LEVEL_DELAY_NS)
    for custom in arch.custom_instructions:
        candidates.append(custom_delay_ns(custom, arch.data_width)
                          + CONTROL_OVERHEAD_NS)
    return max(candidates)


def max_clock_mhz(arch: ArchConfig) -> float:
    return 1000.0 / clock_period_ns(arch)


def custom_instruction_is_safe(custom: CustomInstruction,
                               arch: ArchConfig) -> bool:
    """Would this fused unit become the TEP's critical path?

    "Care must be taken that such instructions do not become the critical
    paths inside the TEP.  This puts a limit on the size of the expressions
    for which custom instructions may be generated."
    """
    base = alu_delay_ns(arch.data_width) + CONTROL_OVERHEAD_NS
    # tolerate the M/D-style one-extra-level slack
    budget = base + LUT_LEVEL_DELAY_NS
    return custom_delay_ns(custom, arch.data_width) + CONTROL_OVERHEAD_NS <= budget


def tep_components(arch: ArchConfig,
                   rom_words: int = DEFAULT_ROM_WORDS) -> List[Component]:
    """The library elements making up one TEP under *arch*."""
    width = arch.data_width
    parts: List[Component] = []

    def add(name: str, clbs: float, delay: float, kind: str = "logic") -> None:
        parts.append(Component(name, max(1, round(clbs)), delay, kind))

    add("calculation-unit", ALU_CLB_PER_BIT * width, alu_delay_ns(width))
    add("acc-op-registers", REGISTER_CLB_PER_BIT * 2 * width, 2.0, "register")
    add("shifter",
        (BARREL_CLB_PER_BIT if arch.has_barrel_shifter
         else SHIFTER_CLB_PER_BIT) * width,
        LUT_LEVEL_DELAY_NS)
    if arch.has_muldiv:
        add("muldiv-unit", MULDIV_CLB_PER_BIT * width,
            alu_delay_ns(width) + LUT_LEVEL_DELAY_NS)
    if arch.has_comparator:
        add("comparator", COMPARATOR_CLB_PER_BIT * width, LUT_LEVEL_DELAY_NS)
    if arch.has_negator:
        add("negator", NEGATOR_CLB_PER_BIT * width, LUT_LEVEL_DELAY_NS)
    if arch.register_file_size:
        add("register-file",
            REGISTER_CLB_PER_BIT * width * arch.register_file_size,
            2.0, "register")
    for index, custom in enumerate(arch.custom_instructions):
        operators = max(1, custom.depth)
        add(f"custom-unit-{index}",
            CUSTOM_CLB_PER_OP_BIT * operators * width,
            custom_delay_ns(custom, width))
    add("internal-ram",
        arch.internal_ram_words * width / RAM_BITS_PER_CLB,
        6.0, "memory")
    add("microcontrol",
        CONTROL_BASE_CLBS + CONTROL_CLB_PER_ROM_WORD * rom_words,
        LUT_LEVEL_DELAY_NS, "control")
    add("address-logic", ADDRESS_LOGIC_CLBS, LUT_LEVEL_DELAY_NS)
    add("port-interface", PORT_LOGIC_CLBS, LUT_LEVEL_DELAY_NS, "io")
    add("condition-cache", CONDITION_CACHE_CLBS, 2.0, "memory")
    add("sla-interface", SLA_INTERFACE_CLBS, LUT_LEVEL_DELAY_NS)
    if arch.pipelined:
        add("pipeline-registers", PIPELINE_CLBS, 2.0, "register")
    return parts


def tep_area_clbs(arch: ArchConfig,
                  rom_words: int = DEFAULT_ROM_WORDS) -> int:
    """Total CLBs of one TEP under *arch*."""
    return sum(part.clbs for part in tep_components(arch, rom_words))
