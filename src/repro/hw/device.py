"""FPGA device model (Xilinx XC4000 family, per [12] of the paper).

The paper's target platform is FPGA-based; the example fits "on a single
Xilinx XC4025 FPGA, which contains 1024 CLBs" arranged as a 32x32 grid
(Fig. 8).  An XC4000 CLB holds two 4-input LUTs, one 3-input LUT and two
flip-flops, and can alternatively serve as 32x1 bits of RAM — which is how
the area model prices on-chip memories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class Device:
    """One FPGA part."""

    name: str
    rows: int
    cols: int

    @property
    def clbs(self) -> int:
        return self.rows * self.cols

    def fits(self, clbs: int) -> bool:
        return clbs <= self.clbs

    def utilization(self, clbs: int) -> float:
        return clbs / self.clbs


#: the XC4000 family of the 1994 Programmable Logic Data Book
XC4003 = Device("XC4003", 10, 10)
XC4005 = Device("XC4005", 14, 14)
XC4010 = Device("XC4010", 20, 20)
XC4013 = Device("XC4013", 24, 24)
XC4020 = Device("XC4020", 28, 28)
XC4025 = Device("XC4025", 32, 32)

DEVICES: Dict[str, Device] = {
    d.name: d for d in (XC4003, XC4005, XC4010, XC4013, XC4020, XC4025)
}


def smallest_fitting(clbs: int) -> Device:
    """The smallest family member that fits a design of *clbs* CLBs."""
    for device in sorted(DEVICES.values(), key=lambda d: d.clbs):
        if device.fits(clbs):
            return device
    raise ValueError(
        f"design of {clbs} CLBs exceeds the largest XC4000 device "
        f"({XC4025.name}, {XC4025.clbs} CLBs)")
