"""Floorplanning on the CLB grid (Fig. 8).

Fig. 8 of the paper shows the placed PSCP on the XC4025's 32x32 CLB array.
We reproduce the *structure* of that result with a deterministic shelf
(strip-packing) floorplanner: blocks are sorted by size and placed left to
right on horizontal shelves, each block as a near-square rectangle of CLBs.
The output is the block placement plus an ASCII rendering of the occupancy
map — the closest textual equivalent of the figure.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.hw.area import AreaEstimate
from repro.hw.device import Device, XC4025


class FloorplanError(Exception):
    """Raised when a design does not fit on the device."""


@dataclass(frozen=True)
class Placement:
    """One placed block: an axis-aligned rectangle of CLBs."""

    name: str
    col: int
    row: int
    width: int
    height: int

    @property
    def clbs(self) -> int:
        return self.width * self.height

    def cells(self):
        for r in range(self.row, self.row + self.height):
            for c in range(self.col, self.col + self.width):
                yield r, c


def _rectangle_for(clbs: int, max_width: int) -> Tuple[int, int]:
    """A near-square width x height covering at least *clbs* cells."""
    width = min(max_width, max(1, math.isqrt(clbs)))
    height = math.ceil(clbs / width)
    return width, height


@dataclass
class Floorplan:
    device: Device
    placements: List[Placement] = field(default_factory=list)

    @property
    def used_clbs(self) -> int:
        return sum(p.clbs for p in self.placements)

    @property
    def utilization(self) -> float:
        return self.used_clbs / self.device.clbs

    def overlaps(self) -> List[Tuple[str, str]]:
        """Pairs of blocks whose rectangles overlap (must be empty)."""
        occupied: Dict[Tuple[int, int], str] = {}
        clashes = []
        for placement in self.placements:
            for cell in placement.cells():
                if cell in occupied:
                    clashes.append((occupied[cell], placement.name))
                else:
                    occupied[cell] = placement.name
        return sorted(set(clashes))

    def in_bounds(self) -> bool:
        return all(p.col >= 0 and p.row >= 0
                   and p.col + p.width <= self.device.cols
                   and p.row + p.height <= self.device.rows
                   for p in self.placements)

    def ascii_map(self) -> str:
        """Fig. 8 as ASCII: one character per CLB, '.' for unused."""
        symbols = string.ascii_uppercase + string.ascii_lowercase + string.digits
        grid = [["." for _ in range(self.device.cols)]
                for _ in range(self.device.rows)]
        legend = []
        for index, placement in enumerate(self.placements):
            symbol = symbols[index % len(symbols)]
            legend.append(f"  {symbol} = {placement.name} "
                          f"({placement.clbs} CLBs)")
            for row, col in placement.cells():
                grid[row][col] = symbol
        header = (f"{self.device.name} floorplan — "
                  f"{self.used_clbs}/{self.device.clbs} CLBs "
                  f"({self.utilization:.0%})")
        body = "\n".join("".join(row) for row in grid)
        return header + "\n" + body + "\n" + "\n".join(legend)


def floorplan(estimate: AreaEstimate,
              device: Device = XC4025) -> Floorplan:
    """Place every block of *estimate* on *device* with shelf packing.

    Blocks are placed largest-first; each shelf is as tall as its tallest
    block.  Raises :class:`FloorplanError` when the design does not fit
    (more faithful than silently overflowing — the paper's flow would fail
    P&R the same way).
    """
    if not estimate.fits(device):
        raise FloorplanError(
            f"{estimate.total_clbs} CLBs exceed {device.name} "
            f"({device.clbs} CLBs)")
    blocks = sorted(estimate.blocks(), key=lambda b: b[1], reverse=True)
    plan = Floorplan(device)
    shelf_row = 0
    shelf_height = 0
    cursor_col = 0
    for name, clbs in blocks:
        width, height = _rectangle_for(clbs, device.cols)
        if cursor_col + width > device.cols:
            shelf_row += shelf_height
            shelf_height = 0
            cursor_col = 0
        if shelf_row + height > device.rows:
            # try a fresh shelf with reduced width to squeeze the tail
            raise FloorplanError(
                f"shelf packing overflowed placing {name!r} "
                f"({clbs} CLBs) on {device.name}")
        plan.placements.append(Placement(name, cursor_col, shelf_row,
                                         width, height))
        cursor_col += width
        shelf_height = max(shelf_height, height)
    return plan
