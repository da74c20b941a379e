"""The iterative improvement loop (section 4).

"If a violation for an event cycle is detected, improvements are applied in
increasing order of difficulty to the transitions in question":

1. **peephole** — remove redundant jumps from the microprogram sequences;
2. **storage promotion** — "the type of storage elements and their
   associated Load/Store instructions are changed from external to internal
   to registers, recomputing the timing values for each step";
3. **pattern matching** — insert a comparator ALU style for ``if (a == b)``
   patterns, a two's-complement ALU for ``x = -x``;
4. **custom instructions** — fuse arithmetic expressions (bounded so they
   don't become the TEP's critical path);
5. **wider data bus** — the data-path analysis step normally picks this up
   front, but the ladder can still widen an 8-bit machine;
6. **more TEPs** — "the last resort …, but this has repercussions on the
   design of the SLA …  Therefore, designers must indicate which transition
   routines should be mutually exclusive."

:meth:`Improver.rungs` is the only copy of the ladder: it builds every rung
in order and never stops.  :meth:`Improver.run` evaluates the rungs (timing
validator, area) and stops at the first that meets the constraints; the
resulting trajectory is exactly the kind of data Table 4 reports (area vs.
the two critical paths at each point).  The differential fuzz oracle walks
the same rungs without evaluating them.  The rungs change only the
architecture, so they share one :class:`~repro.flow.build.Frontend`: the
chart is parsed, checked and synthesized once.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.hw.library import custom_instruction_is_safe
from repro.isa.arch import ArchConfig, StorageClass
from repro.isa.isa import Mem, Reg
from repro.isa.patterns import (
    find_comparator_sites,
    find_custom_candidates,
    find_negation_sites,
)
from repro.flow.build import BuiltSystem, Frontend
from repro.statechart.model import Chart

#: registers the ``promote-register`` rung adds, and globals it promotes
REGISTER_FILE_SIZE = 4
#: expressions the ``custom-instructions`` rung fuses at most
MAX_CUSTOM_INSTRUCTIONS = 2


@dataclass
class Rung:
    """One built ladder point: its name, the knobs, and the built system."""

    name: str
    description: str
    arch: ArchConfig
    storage_map: Dict[str, StorageClass]
    system: BuiltSystem


@dataclass
class LadderStep:
    """One evaluated point of the improvement trajectory."""

    rung: str
    description: str
    arch: ArchConfig
    storage_map: Dict[str, StorageClass]
    critical_paths: Dict[str, int]
    n_violations: int
    area_clbs: int
    #: wall-clock cost of building and evaluating the rung
    wall_seconds: float

    @property
    def meets_constraints(self) -> bool:
        return self.n_violations == 0


@dataclass
class ImprovementResult:
    steps: List[LadderStep]
    final: BuiltSystem

    @property
    def success(self) -> bool:
        return bool(self.steps) and self.steps[-1].meets_constraints

    def trajectory_table(self) -> List[Tuple[str, int, Dict[str, int]]]:
        return [(step.rung, step.area_clbs, step.critical_paths)
                for step in self.steps]


def hot_globals(system: BuiltSystem) -> List[str]:
    """Globals ranked by static reference count in the compiled code.

    "Load/Store instructions are changed from external to internal to
    registers" — this picks which variables to move first.
    """
    location_to_name: Dict[Tuple, str] = {}
    for name, loc in system.compiled.allocator.locations.items():
        if "." in name:
            continue  # locals/params/temps: already internal
        for operand in loc.words:
            if isinstance(operand, Mem):
                location_to_name[(operand.space, operand.address)] = name
            elif isinstance(operand, Reg):
                location_to_name[("reg", operand.index)] = name
    counts: Counter = Counter()
    for instruction in system.compiled.flat_instructions():
        operand = instruction.operand
        key = None
        if isinstance(operand, Mem):
            key = (operand.space, operand.address)
        elif isinstance(operand, Reg):
            key = ("reg", operand.index)
        if key is not None and key in location_to_name:
            counts[location_to_name[key]] += 1
    return [name for name, _ in counts.most_common()]


class Improver:
    """Walks the optimization ladder until the constraints hold."""

    def __init__(
        self,
        chart: Chart,
        source: str,
        initial_arch: Optional[ArchConfig] = None,
        mutual_exclusions: FrozenSet[FrozenSet[str]] = frozenset(),
        max_teps: int = 2,
        allow_pipelining: bool = False,
    ) -> None:
        #: parsed, checked and synthesized once; every rung only compiles
        self.frontend = Frontend(chart, source)
        self.initial_arch = (initial_arch if initial_arch is not None
                             else self.frontend.initial_architecture())
        self.mutual_exclusions = mutual_exclusions
        self.max_teps = max_teps
        self.allow_pipelining = allow_pipelining

    def rungs(self) -> Iterator[Rung]:
        """Every rung of the ladder in order, each built when it is reached.

        Each rung keeps the previous rungs' knobs.  A rung with nothing to
        apply (no pattern sites, no safe custom instruction, pipelining not
        allowed, bus already wide, ``max_teps`` reached) is skipped.
        """
        arch = self.initial_arch
        storage_map: Dict[str, StorageClass] = {}

        def build(name: str, description: str) -> Rung:
            storage = dict(storage_map)
            return Rung(name, description, arch, storage,
                        self.frontend.build(arch, storage_map=storage))

        rung = build("baseline", f"initial architecture {arch.describe()}")
        yield rung

        # 1. microcode peephole
        arch = arch.with_(microcode_optimized=True)
        rung = build("peephole", "remove redundant jumps from microprograms")
        yield rung

        # 2a. storage promotion: externals -> internal RAM
        promoted = hot_globals(rung.system)
        storage_map = {name: StorageClass.INTERNAL for name in promoted}
        rung = build("promote-internal", f"promote {len(promoted)} globals "
                     "from external to internal RAM")
        yield rung

        # 2b. storage promotion: hottest variables -> registers
        arch = arch.with_(register_file_size=REGISTER_FILE_SIZE)
        hottest = hot_globals(rung.system)[:REGISTER_FILE_SIZE]
        for name in hottest:
            storage_map[name] = StorageClass.REGISTER
        rung = build("promote-register",
                     f"promote {len(hottest)} hottest globals to registers")
        yield rung

        # 3. pattern-matched hardware
        pattern_flags = {}
        if find_comparator_sites(rung.system.checked.program):
            pattern_flags["has_comparator"] = True
        if find_negation_sites(rung.system.checked.program):
            pattern_flags["has_negator"] = True
        if pattern_flags:
            arch = arch.with_(**pattern_flags)
            rung = build("patterns",
                         "insert " + " and ".join(sorted(pattern_flags)))
            yield rung

        # 4. custom instructions
        candidates = find_custom_candidates(
            rung.system.checked.program,
            max_operands=2 + arch.register_file_size)
        selected = []
        for candidate in candidates:
            custom = candidate.to_instruction(len(selected))
            if custom_instruction_is_safe(custom, arch):
                selected.append(custom)
            if len(selected) >= MAX_CUSTOM_INSTRUCTIONS:
                break
        if selected:
            arch = arch.with_(custom_instructions=tuple(selected))
            yield build("custom-instructions", f"fuse {len(selected)} "
                        "expression(s) into single-cycle units")

        # 4b. pipelined TEP (the paper's "future work", opt-in)
        if self.allow_pipelining and not arch.pipelined:
            arch = arch.with_(pipelined=True)
            yield build("pipeline", "pipeline the TEP (fetch overlapped, "
                        "flush on control transfers)")

        # 5. wider data bus
        if arch.data_width < 16:
            arch = arch.with_(data_width=16, internal_ram_words=max(
                64, arch.internal_ram_words))
            yield build("widen-bus", "widen the data bus to 16 bits")

        # 6. more TEPs (the last resort)
        while arch.n_teps < self.max_teps:
            arch = arch.with_(n_teps=arch.n_teps + 1,
                              mutual_exclusions=self.mutual_exclusions)
            yield build("add-tep",
                        f"replicate to {arch.n_teps} TEPs "
                        f"({len(self.mutual_exclusions)} declared exclusions)")

    def run(self) -> ImprovementResult:
        """Evaluate :meth:`rungs` in order, stopping at the first rung that
        meets the constraints (or after the last rung)."""
        steps: List[LadderStep] = []
        started = time.perf_counter()
        for rung in self.rungs():
            system = rung.system
            step = LadderStep(
                rung=rung.name,
                description=rung.description,
                arch=rung.arch,
                storage_map=rung.storage_map,
                critical_paths=system.critical_paths(),
                n_violations=len(system.violations()),
                area_clbs=system.area().total_clbs,
                wall_seconds=time.perf_counter() - started,
            )
            steps.append(step)
            if step.meets_constraints:
                break
            started = time.perf_counter()
        return ImprovementResult(steps, system)
