"""The end-to-end codesign flow.

Ties the front end (textual statechart + intermediate-C routines) to every
backend artifact: checked program, compiled routines, synthesized SLA,
transition costs, the timing validator, the area estimate, and — on demand —
an executable :class:`~repro.pscp.machine.PscpMachine`.

This is the module a user calls first::

    system = build_system(chart, routines_source, arch)
    system.validator.validate()      # static timing
    machine = system.make_machine()  # executable model
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.action.check import CheckedProgram, Externals
from repro.hw.area import AppStats, AreaEstimate, estimate_area
from repro.isa.arch import ArchConfig, StorageClass
from repro.isa.codegen import CodeGenerator, CompiledProgram, NameMaps, prepare_program
from repro.isa.microcode import DecoderRom
from repro.pscp.machine import PscpMachine, stub_wcet
from repro.pscp.ports import PortBus
from repro.pscp.scheduler import DISPATCH_OVERHEAD_CYCLES
from repro.sla.synth import Pla, synthesize
from repro.statechart.model import Chart, Transition
from repro.flow.timing import TimingValidator


@dataclass
class BuiltSystem:
    """Everything the flow produces for one (chart, source, arch) triple."""

    chart: Chart
    source: str
    arch: ArchConfig
    checked: CheckedProgram
    compiled: CompiledProgram
    pla: Pla
    param_names: Dict[str, List[str]]
    transition_costs: Dict[int, int]
    validator: TimingValidator
    storage_map: Dict[str, StorageClass] = field(default_factory=dict)

    # -- derived artifacts -------------------------------------------------
    def make_machine(self, port_bus: Optional[PortBus] = None) -> PscpMachine:
        return PscpMachine(self.chart, self.compiled, pla=self.pla,
                           port_bus=port_bus, param_names=self.param_names)

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


def transition_cost_map(chart: Chart, compiled: CompiledProgram,
                        param_names: Dict[str, List[str]]) -> Dict[int, int]:
    """Static per-transition cost: stub + routine + dispatch overhead."""
    return {
        transition.index:
            stub_wcet(transition, compiled, param_names)
            + DISPATCH_OVERHEAD_CYCLES
        for transition in chart.transitions
    }


def _enum_value_map(program) -> Dict[str, int]:
    from repro.action.ast import EnumType

    values: Dict[str, int] = {}
    for enum_type in program.enums:
        for member in enum_type.members:
            values[member] = enum_type.value_of(member)
    for _, typ in program.typedefs:
        if isinstance(typ, EnumType):
            for member in typ.members:
                values.setdefault(member, typ.value_of(member))
    return values


def specialize_routines(chart: Chart, checked: CheckedProgram,
                        externals: Externals) -> Tuple[Chart, CheckedProgram]:
    """Clone constant-argument routines per call site and fold the constants.

    ``DeltaT(MX)`` becomes a call to the parameterless ``DeltaT_0`` whose
    body indexes the motor arrays statically — the code-generation
    refinement the flow applies when violations persist.  Returns a copied
    chart with rewritten action texts and the re-checked extended program.
    """
    import copy as _copy

    from repro.action.check import check_program
    from repro.action.transform import TransformError, specialize_call
    from repro.statechart.labels import action_arguments, action_routine_name

    chart = _copy.deepcopy(chart)
    program = checked.program
    enum_values = _enum_value_map(program)
    existing = {f.name for f in program.functions}
    made: Dict[Tuple[str, Tuple[int, ...]], str] = {}

    def resolve(argument: str) -> Optional[int]:
        argument = argument.strip()
        if argument in enum_values:
            return enum_values[argument]
        try:
            return int(argument)
        except ValueError:
            return None

    changed = False
    for transition in chart.transitions:
        if not transition.action:
            continue
        routine = action_routine_name(transition.action)
        if routine not in existing:
            continue
        arguments = action_arguments(transition.action)
        if not arguments:
            continue
        values = [resolve(a) for a in arguments]
        if any(v is None for v in values):
            continue
        key = (routine, tuple(values))
        if key not in made:
            clone_name = f"{routine}_" + "_".join(str(v) for v in values)
            try:
                clone = specialize_call(program.function(routine),
                                        [v for v in values if v is not None],
                                        clone_name)
            except TransformError:
                continue
            program.functions.append(clone)
            existing.add(clone_name)
            made[key] = clone_name
        transition.action = f"{made[key]}()"
        changed = True
    if changed:
        checked = check_program(program, externals)
    return chart, checked


def build_system(
    chart: Chart,
    source: str,
    arch: ArchConfig,
    storage_map: Optional[Dict[str, StorageClass]] = None,
    specialize: bool = False,
) -> BuiltSystem:
    """Run the flow front-to-back for one architecture point."""
    externals = Externals.from_chart(chart)
    checked = prepare_program(source, arch, externals)
    if specialize:
        chart, checked = specialize_routines(chart, checked, externals)
    maps = NameMaps.from_chart(chart)
    compiled = CodeGenerator(checked, arch, maps=maps,
                             storage_map=storage_map).compile()
    param_names = {f.name: [p.name for p in f.params]
                   for f in checked.program.functions}
    pla = synthesize(chart)
    costs = transition_cost_map(chart, compiled, param_names)
    validator = TimingValidator(
        chart, lambda t: costs[t.index], arch=arch)
    return BuiltSystem(
        chart=chart,
        source=source,
        arch=arch,
        checked=checked,
        compiled=compiled,
        pla=pla,
        param_names=param_names,
        transition_costs=costs,
        validator=validator,
        storage_map=dict(storage_map or {}),
    )


def select_initial_architecture(chart: Chart, source: str,
                                name: str = "selected") -> ArchConfig:
    """Derive the starting architecture from the application's data-path
    requirements (section 1: "The assembler-level instruction set is mostly
    used to analyze the data-path requirements of an application").

    * the data-bus width is the widest scalar the routines manipulate
      (rounded to 8/16/32);
    * an M/D calculation unit is selected iff the routines multiply or
      divide.
    """
    from repro.action.ast import Binary, BinOp, type_width, walk_expr, walk_stmts
    from repro.action.parser import parse_with_preamble
    from repro.action.check import check_program

    externals = Externals.from_chart(chart)
    program = parse_with_preamble(source)
    check_program(program, externals)

    max_width = 8
    needs_muldiv = False
    for function in program.functions:
        for stmt in walk_stmts(function.body):
            for attr in ("value", "init", "cond", "expr", "target"):
                root = getattr(stmt, attr, None)
                if root is None or not hasattr(root, "typ"):
                    continue
                for node in walk_expr(root):
                    if node.typ is not None:
                        from repro.action.ast import ArrayType, StructType
                        if not isinstance(node.typ, (ArrayType, StructType)):
                            try:
                                max_width = max(max_width,
                                                type_width(node.typ))
                            except TypeError:
                                pass
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
