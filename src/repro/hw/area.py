"""Whole-PSCP area estimation.

A PSCP version is one or more TEPs plus the statechart-specific shared
blocks: the SLA, the Configuration Register, the Transition Address Table,
the overall scheduler and the event/condition bus architecture (Fig. 1).
The shared blocks scale with the *application* (number of product terms, CR
bits, transitions, ports), not with the architecture knobs — exactly why the
paper reports 224 → 421 → 773 CLBs as TEPs grow while the rest stays put.

Calibration targets (Table 4, the SMD pickup-head controller):

=====================================  =====
architecture                           CLBs
=====================================  =====
1 minimal TEP                          224
1 × 16-bit M/D TEP                     421
2 × 16-bit M/D TEPs                    773
=====================================  =====
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.hw.device import Device, XC4025, smallest_fitting
from repro.hw.library import DEFAULT_ROM_WORDS, Component, tep_components
from repro.isa.arch import ArchConfig

# shared-block coefficients (XC4000 CLBs), calibrated with the SMD example
SCHEDULER_CLBS = 12            # configuration-cycle FSM + round-robin dispatch
SLA_CLB_PER_PRODUCT_TERM = 0.7
CR_CLB_PER_BIT = 0.45           # configuration register + sampling logic
TAT_CLB_PER_TRANSITION = 0.5   # transition address table entries
BUS_CLB_PER_PORT = 0.35         # event/condition/data bus drivers per port
MUTEX_DECODE_CLB_PER_PAIR = 2  # extra decode logic per mutual exclusion


@dataclass(frozen=True)
class AppStats:
    """The application-dependent quantities the shared blocks scale with."""

    product_terms: int
    cr_bits: int
    transitions: int
    ports: int

    def __post_init__(self) -> None:
        for name in ("product_terms", "cr_bits", "transitions", "ports"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


#: the SMD pickup-head controller's statistics (used when estimating without
#: a synthesized SLA at hand)
SMD_APP_STATS = AppStats(product_terms=36, cr_bits=30, transitions=26, ports=14)


@dataclass
class AreaEstimate:
    """A full breakdown, suitable for reports and the floorplanner."""

    arch: ArchConfig
    shared: List[Component]
    per_tep: List[Component]
    n_teps: int

    @property
    def shared_clbs(self) -> int:
        return sum(c.clbs for c in self.shared)

    @property
    def tep_clbs(self) -> int:
        return sum(c.clbs for c in self.per_tep)

    @property
    def total_clbs(self) -> int:
        return self.shared_clbs + self.n_teps * self.tep_clbs

    def blocks(self) -> List[Tuple[str, int]]:
        """(name, clbs) pairs for every placed block (TEPs replicated)."""
        result = [(c.name, c.clbs) for c in self.shared]
        for tep in range(self.n_teps):
            result.extend((f"tep{tep}.{c.name}", c.clbs) for c in self.per_tep)
        return result

    def fits(self, device: Device = XC4025) -> bool:
        return device.fits(self.total_clbs)

    def device(self) -> Device:
        return smallest_fitting(self.total_clbs)

    def report(self) -> str:
        lines = [f"PSCP area estimate — {self.arch.describe()}"]
        lines.append(f"  shared blocks: {self.shared_clbs} CLBs")
        for component in self.shared:
            lines.append(f"    {component.name:24s} {component.clbs:4d}")
        lines.append(f"  per TEP: {self.tep_clbs} CLBs x {self.n_teps}")
        for component in self.per_tep:
            lines.append(f"    {component.name:24s} {component.clbs:4d}")
        lines.append(f"  total: {self.total_clbs} CLBs "
                     f"({self.device().name})")
        return "\n".join(lines)


def shared_components(stats: AppStats, arch: ArchConfig) -> List[Component]:
    """The statechart-specific blocks shared by all TEPs."""
    parts = [
        Component("scheduler", SCHEDULER_CLBS, 9.0, "control"),
        Component("sla",
                  max(1, round(SLA_CLB_PER_PRODUCT_TERM * stats.product_terms)),
                  12.0, "logic"),
        Component("configuration-register",
                  max(1, round(CR_CLB_PER_BIT * stats.cr_bits)),
                  3.0, "register"),
        Component("transition-address-table",
                  max(1, round(TAT_CLB_PER_TRANSITION * stats.transitions)),
                  5.0, "memory"),
        Component("bus-architecture",
                  max(1, round(BUS_CLB_PER_PORT * stats.ports)),
                  4.0, "io"),
    ]
    if arch.mutual_exclusions:
        parts.append(Component(
            "mutex-decode",
            MUTEX_DECODE_CLB_PER_PAIR * len(arch.mutual_exclusions),
            5.0, "control"))
    return parts


def estimate_area(arch: ArchConfig, stats: AppStats = SMD_APP_STATS,
                  rom_words: int = DEFAULT_ROM_WORDS) -> AreaEstimate:
    """Estimate the full PSCP area for *arch* running the *stats* app."""
    return AreaEstimate(
        arch=arch,
        shared=shared_components(stats, arch),
        per_tep=tep_components(arch, rom_words),
        n_teps=arch.n_teps,
    )
