"""The end-to-end codesign flow.

Ties the front end (textual statechart + intermediate-C routines) to every
backend artifact: checked program, compiled routines, synthesized SLA, the
linked machine image with its transition costs, the timing validator, the
area estimate, and — on demand — executable machines
(:class:`~repro.pscp.machine.PscpMachine`) that share the image.

This is the module a user calls first::

    system = build_system(chart, routines_source, arch)
    system.validator.validate()      # static timing
    machine = system.make_machine()  # executable model

Several architecture points of one chart share a :class:`Frontend`: it
parses, checks and synthesizes once, and each :meth:`Frontend.build` only
compiles and links.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.action.check import CheckedProgram, Checker, Externals
from repro.analysis.diag import Diagnostic
from repro.hw.area import AppStats, AreaEstimate, estimate_area
from repro.isa.arch import ArchConfig, StorageClass
from repro.isa.codegen import (
    CodeGenerator,
    CompiledProgram,
    NameMaps,
    RoutineFrontend,
)
from repro.isa.microcode import DecoderRom
from repro.pscp.machine import LinkedCall, MachineImage, PscpMachine, link_call
from repro.pscp.ports import PortBus
from repro.pscp.scheduler import DISPATCH_OVERHEAD_CYCLES
from repro.sla.synth import Pla, synthesize
from repro.statechart.labels import ActionCall
from repro.statechart.model import Chart
from repro.flow.timing import TimingValidator


@dataclass
class BuiltSystem:
    """Everything the flow produces for one (chart, source, arch) triple."""

    chart: Chart
    #: the parsed and checked routines this system was built from
    frontend: Frontend
    arch: ArchConfig
    checked: CheckedProgram
    compiled: CompiledProgram
    pla: Pla
    param_names: Dict[str, List[str]]
    #: the linked program memory every machine of this system shares
    image: MachineImage
    #: per transition: the image's static cost plus the dispatch overhead
    transition_costs: Dict[int, int]
    validator: TimingValidator
    storage_map: Dict[str, StorageClass] = field(default_factory=dict)

    # -- derived artifacts -------------------------------------------------
    def make_machine(self, port_bus: Optional[PortBus] = None) -> PscpMachine:
        return PscpMachine(self.image, pla=self.pla, port_bus=port_bus)

    def app_stats(self) -> AppStats:
        return AppStats(
            product_terms=self.pla.product_terms,
            cr_bits=self.pla.layout.width,
            transitions=len(self.chart.transitions),
            ports=max(1, len(self.chart.ports)
                      + len([e for e in self.chart.events.values() if e.port])
                      + len([c for c in self.chart.conditions.values() if c.port])),
        )

    def decoder_rom(self) -> DecoderRom:
        rom = DecoderRom(self.arch)
        rom.add_program(self.compiled.flat_instructions())
        return rom

    def area(self) -> AreaEstimate:
        return estimate_area(self.arch, self.app_stats(),
                             rom_words=min(self.decoder_rom().size_words, 256))

    def critical_paths(self) -> Dict[str, int]:
        """Worst event-cycle length per constrained event (Table 4 columns)."""
        return {event.name: self.validator.critical_path(event.name)
                for event in self.chart.constrained_events()}

    def violations(self):
        return self.validator.validate()

    def routine_wcets(self) -> Mapping[str, int]:
        return self.compiled.wcets()


def specialize_routines(chart: Chart, checked: CheckedProgram,
                        calls: Mapping[int, LinkedCall]
                        ) -> Tuple[Chart, CheckedProgram]:
    """Clone constant-argument routines per call site and fold the constants.

    ``DeltaT(MX)`` becomes a call to the parameterless ``DeltaT_0`` whose
    body indexes the motor arrays statically — the code-generation
    refinement the flow applies when violations persist.  *calls* are the
    chart's calls linked to *checked* (:attr:`Frontend.calls`).  Returns a
    copied chart with rewritten calls and the extended program, in which
    only the clones are checked (:meth:`Checker.extend`).
    """
    import copy as _copy

    from repro.action.transform import TransformError, specialize_call

    chart = _copy.deepcopy(chart)
    # the clones extend a copy of the function list: *checked* may be
    # shared by other builds (see :class:`Frontend`)
    program = replace(checked.program,
                      functions=list(checked.program.functions))
    made: Dict[Tuple[str, Tuple[int, ...]], str] = {}
    taken = {function.name for function in program.functions}
    for transition in chart.transitions:
        linked = calls.get(transition.index)
        if linked is None or not linked.bindings:
            continue
        values = tuple(value for _, value in linked.bindings)
        key = (linked.routine, values)
        if key not in made:
            clone_name = f"{linked.routine}_" + "_".join(map(str, values))
            # a routine may already carry the clone's name: take the
            # first free one, the same on every build
            while clone_name in taken:
                clone_name += "_"
            try:
                clone = specialize_call(program.function(linked.routine),
                                        list(values), clone_name)
            except TransformError:
                continue
            program.functions.append(clone)
            taken.add(clone_name)
            made[key] = clone_name
        transition.call = ActionCall(f"{made[key]}()", made[key])
    if made:
        checked = Checker(program, checked.externals).extend(checked)
    return chart, checked


class LinkError(Exception):
    """Raised by :meth:`Frontend.build` when a label's call does not link;
    :attr:`diagnostics` are the front end's :attr:`Frontend.unlinked`."""

    def __init__(self, diagnostics: List[Diagnostic]) -> None:
        super().__init__(diagnostics[0].message)
        self.diagnostics = diagnostics


class Frontend(RoutineFrontend):
    """What the flow computes once per (chart, routine source).

    The section 4 ladder changes only the architecture, so a chart's
    routines are parsed and checked once (and once more per distinct
    runtime-helper set, :meth:`checked`) and its SLA is synthesized once
    (:attr:`pla`, on first use).  :meth:`build` is the back end, run once
    per architecture point: code generation, linking and the timing
    validator; every built system records its front end.  Nothing here
    writes to the shared ASTs or ``Pla``; a specialized build rewrites
    copies.

    When the routines check, each label's call is linked to them once
    (:func:`~repro.pscp.machine.link_call`), into :attr:`calls` or else
    :attr:`unlinked`, and then :meth:`build` raises :class:`LinkError`.
    """

    def __init__(self, chart: Chart, source: str) -> None:
        super().__init__(source, Externals.from_chart(chart))
        self.chart = chart
        self._pla: Optional[Pla] = None
        #: transition index -> its call bound to the checked routines
        self.calls: Dict[int, LinkedCall] = {}
        #: per call that does not link, why, at its transition's line (the
        #: file left to the caller, as for :attr:`diagnostics`)
        self.unlinked: List[Diagnostic] = []
        if self.diagnostics:
            return
        functions = self.typed.program.functions
        params = {f.name: [p.name for p in f.params] for f in functions}
        enum_values = self.typed.enum_values()
        for transition in chart.transitions:
            if transition.call is None:
                continue
            linked = link_call(transition, params, enum_values,
                               self.externals.conditions,
                               self.externals.events)
            if isinstance(linked, LinkedCall):
                self.calls[transition.index] = linked
            else:
                self.unlinked.append(linked)

    @property
    def pla(self) -> Pla:
        if self._pla is None:
            self._pla = synthesize(self.chart)
        return self._pla

    def build(self, arch: ArchConfig,
              storage_map: Optional[Dict[str, StorageClass]] = None,
              specialize: bool = False) -> BuiltSystem:
        """The system for one architecture point, linked once
        (:meth:`MachineImage.link`).  A specialized build rewrites a copy
        of the chart and synthesizes that copy's SLA."""
        chart, checked = self.chart, self.checked(arch)
        if self.unlinked:
            raise LinkError(self.unlinked)
        if specialize:
            chart, checked = specialize_routines(chart, checked, self.calls)
        maps = NameMaps.from_chart(chart)
        compiled = CodeGenerator(checked, arch, maps=maps,
                                 storage_map=storage_map).compile()
        param_names = {f.name: [p.name for p in f.params]
                       for f in checked.program.functions}
        pla = synthesize(chart) if specialize else self.pla
        image = MachineImage.link(chart, compiled, param_names)
        costs = {transition.index:
                 image.wcet(transition.index) + DISPATCH_OVERHEAD_CYCLES
                 for transition in chart.transitions}
        validator = TimingValidator(
            chart, lambda t: costs[t.index], arch=arch)
        return BuiltSystem(
            chart=chart,
            frontend=self,
            arch=arch,
            checked=checked,
            compiled=compiled,
            pla=pla,
            param_names=param_names,
            image=image,
            transition_costs=costs,
            validator=validator,
            storage_map=dict(storage_map or {}),
        )

    def initial_architecture(self, name: str = "selected") -> ArchConfig:
        """Derive the starting architecture from the application's
        data-path requirements (section 1: "The assembler-level instruction
        set is mostly used to analyze the data-path requirements of an
        application").

        * the data-bus width is the widest scalar the routines manipulate
          (rounded to 8/16/32);
        * an M/D calculation unit is selected iff the routines multiply or
          divide.
        """
        from repro.action.ast import (
            ArrayType,
            Binary,
            BinOp,
            StructType,
            type_width,
            walk_expr,
            walk_stmts,
        )

        max_width = 8
        needs_muldiv = False
        for function in self.typed.program.functions:
            for stmt in walk_stmts(function.body):
                for attr in ("value", "init", "cond", "expr", "target"):
                    root = getattr(stmt, attr, None)
                    if root is None or not hasattr(root, "typ"):
                        continue
                    for node in walk_expr(root):
                        if (node.typ is not None and not isinstance(
                                node.typ, (ArrayType, StructType))):
                            max_width = max(max_width, type_width(node.typ))
                        if isinstance(node, Binary) and node.op in (
                                BinOp.MUL, BinOp.DIV, BinOp.MOD):
                            needs_muldiv = True
        width = 8 if max_width <= 8 else (16 if max_width <= 16 else 32)
        return ArchConfig(
            name=name,
            data_width=width,
            has_muldiv=needs_muldiv,
            internal_ram_words=64 if width >= 16 else 32,
        )


def build_system(
    chart: Chart,
    source: str,
    arch: ArchConfig,
    storage_map: Optional[Dict[str, StorageClass]] = None,
    specialize: bool = False,
) -> BuiltSystem:
    """Run the flow front-to-back for one architecture point."""
    return Frontend(chart, source).build(arch, storage_map=storage_map,
                                         specialize=specialize)


def select_initial_architecture(chart: Chart, source: str,
                                name: str = "selected") -> ArchConfig:
    """The starting architecture :meth:`Frontend.initial_architecture`
    derives from the routines' data-path requirements."""
    return Frontend(chart, source).initial_architecture(name)
