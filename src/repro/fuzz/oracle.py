"""Differential oracle: reference interpreter vs. every ladder rung.

The oracle takes one generated :class:`~repro.fuzz.generator.ChartSpec`
and a seeded event trace and runs it through a *stack* of independent
implementations:

1. the reference :class:`~repro.statechart.semantics.Interpreter` with the
   :class:`~repro.fuzz.reference.SpecEvaluator` executing routine bodies in
   exact Python integers (ground truth),
2. the full :class:`~repro.pscp.machine.PscpMachine` at **every** rung of
   the improvement ladder (section 4) — baseline, peephole, storage
   promotion (internal then registers), pattern hardware, custom
   instructions, wider bus, replicated TEPs — taken from
   :meth:`~repro.flow.improve.Improver.rungs`, the generator
   :meth:`~repro.flow.improve.Improver.run` evaluates, walked to the end
   so every rung is exercised even when the baseline already meets
   timing,
3. a mid-run ``snapshot_machine``/``restore_machine`` continuation on the
   final rung,
4. a delta-chain reconstruction (``diff_snapshots``/``apply_delta``) whose
   reconstructed snapshot must be fingerprint-identical and must continue
   the run bit-for-bit.

Per cycle the oracle compares five observable fields — configuration,
fired transition indices, the condition vector, port latches and global
variable values — and reports the *first* divergence as a
``(stage, cycle, field, expected, actual)`` tuple.  The stages run in
ladder order and the sweep stops there, so that stage is the guilty one:
every earlier stage ran clean.  A sixth field, ``wcet``, is the timing leg:
every machine the oracle steps carries a :class:`WcetWatch`, and a dispatch
that runs longer than its transition's static cost is a divergence too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.flow.build import BuiltSystem, Frontend
from repro.flow.improve import Improver, Rung
from repro.fuzz.generator import (
    ChartSpec,
    TransitionSpec,
    event_trace,
    render_chart,
    render_source,
    spec_from_json,
    spec_to_json,
)
from repro.fuzz.reference import SpecEvaluator
from repro.pscp.machine import MachineObserver
from repro.resil.delta import apply_delta, diff_snapshots, snapshot_fingerprint
from repro.resil.snapshot import restore_machine, snapshot_machine
from repro.statechart.labels import Label
from repro.statechart.model import Chart
from repro.statechart.parser import emit_chart, parse_chart
from repro.statechart.semantics import Interpreter

#: non-rung stages appended after the ladder, in order.
EXTRA_STAGES: Tuple[str, ...] = ("snapshot-restore", "delta-chain")


class RoundTripError(Exception):
    """``parse(emit(chart))`` was not structurally identical."""


@dataclass(frozen=True)
class Divergence:
    """First observable disagreement between a stage and the reference."""

    stage: str
    cycle: int
    field: str
    expected: object
    actual: object

    def describe(self) -> str:
        return (f"stage {self.stage!r} diverged at cycle {self.cycle} "
                f"on {self.field}: expected {self.expected!r}, "
                f"got {self.actual!r}")

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "cycle": self.cycle,
            "field": self.field,
            "expected": _jsonable(self.expected),
            "actual": _jsonable(self.actual),
        }


def _jsonable(value: object) -> object:
    if isinstance(value, (tuple, list, frozenset, set)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_jsonable(item) for item in items]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


@dataclass(frozen=True)
class CycleState:
    """The per-cycle observable state every stage must agree on."""

    configuration: Tuple[str, ...]
    fired: Tuple[int, ...]
    conditions: Tuple[Tuple[str, bool], ...]
    ports: Tuple[Tuple[str, int], ...]
    variables: Tuple[Tuple[str, int], ...]

    FIELDS = ("configuration", "fired", "conditions", "ports", "variables")


def _compare(stage: str, cycle: int, expected: CycleState,
             actual: CycleState) -> Optional[Divergence]:
    for field in CycleState.FIELDS:
        want = getattr(expected, field)
        got = getattr(actual, field)
        if want != got:
            return Divergence(stage, cycle, field, want, got)
    return None


class WcetWatch(MachineObserver):
    """Checks every dispatch against its transition's static cost: the
    stub-plus-routine WCET the timing validator sums
    (:meth:`~repro.pscp.machine.MachineImage.wcet`).  Generated charts
    declare no ``wcet`` overrides, so every bound is derived from the
    emitted code."""

    __slots__ = ("bounds", "breach")

    def __init__(self, system: BuiltSystem) -> None:
        self.bounds = {index: system.image.wcet(index)
                       for index in system.image.costs}
        #: ``(transition index, cost)`` of the first dispatch over its bound
        self.breach: Optional[Tuple[int, int]] = None

    def on_dispatch(self, cycle, index, completed, cost, raised,
                    port_accesses) -> None:
        if cost > self.bounds[index] and self.breach is None:
            self.breach = (index, cost)

    def divergence(self, stage: str, cycle: int) -> Divergence:
        index, cost = self.breach
        return Divergence(stage, cycle, "wcet",
                          {"transition": index, "at_most": self.bounds[index]},
                          {"transition": index, "cycles": cost})


# ---------------------------------------------------------------------------
# round-trip structural identity (satellite: textual round-trip hardening)
# ---------------------------------------------------------------------------

def _chart_signature(chart: Chart) -> Dict[str, object]:
    """Order-independent structural digest used for round-trip checks."""
    return {
        "name": chart.name,
        "root": chart.root,
        "events": sorted((e.name, e.period, e.port)
                         for e in chart.events.values()),
        "conditions": sorted((c.name, bool(c.initial), c.port)
                             for c in chart.conditions.values()),
        "ports": sorted((p.name, p.kind.name, p.width, p.direction.name,
                         p.address) for p in chart.ports.values()),
        "states": sorted((s.name, s.kind.name, tuple(s.children), s.default)
                         for s in chart.states.values()),
        "transitions": sorted(
            (t.source, t.target, t.index,
             str(Label(t.trigger, t.guard, t.call)),
             t.wcet_override)
            for t in chart.transitions),
    }


def check_roundtrip(chart: Chart) -> None:
    """Assert ``parse(emit_chart(chart))`` is structurally identical.

    Raises :class:`RoundTripError` naming the first differing section.
    """
    text = emit_chart(chart)
    reparsed = parse_chart(text, name=chart.name)
    want = _chart_signature(chart)
    got = _chart_signature(reparsed)
    for section in want:
        if want[section] != got[section]:
            raise RoundTripError(
                f"round-trip mismatch in {section}: "
                f"emitted {want[section]!r} but reparsed {got[section]!r}")


# ---------------------------------------------------------------------------
# canary mutations (for the attribution tests and the CI canary job)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanaryMutation:
    """A deliberate semantic bug introduced at one stage of the ladder.

    The mutation retargets the transition identified by ``(source,
    trigger)`` — a key that survives shrinking, unlike a positional index —
    and applies to the named stage *and every later stage*, modelling a
    rung bug whose effect persists down the ladder.
    """

    stage: str
    source: str
    trigger: str
    new_target: str
    kind: str = "retarget"

    def to_json(self) -> dict:
        return {"stage": self.stage, "source": self.source,
                "trigger": self.trigger, "new_target": self.new_target,
                "kind": self.kind}

    @classmethod
    def from_json(cls, doc: dict) -> "CanaryMutation":
        return cls(stage=doc["stage"], source=doc["source"],
                   trigger=doc["trigger"], new_target=doc["new_target"],
                   kind=doc.get("kind", "retarget"))


def ordered_transitions(spec: ChartSpec) -> List[TransitionSpec]:
    """Spec transitions in chart-index order (the renderer's emit order)."""
    order = {name: i for i, name in enumerate(spec.state_names())}
    return sorted(spec.transitions, key=lambda t: order.get(t.source, 0))


def apply_mutation(spec: ChartSpec,
                   mutation: CanaryMutation) -> Optional[ChartSpec]:
    """A deep copy of *spec* with the mutation applied, or ``None`` if the
    identified transition (or the new target) no longer exists."""
    mutated = spec_from_json(spec_to_json(spec))
    matches = [i for i, t in enumerate(mutated.transitions)
               if t.source == mutation.source
               and t.trigger == mutation.trigger]
    if len(matches) != 1:
        return None
    index = matches[0]
    names = set(mutated.state_names())
    if (mutation.new_target not in names
            or mutated.transitions[index].target == mutation.new_target):
        return None
    mutated.transitions[index] = replace(
        mutated.transitions[index], target=mutation.new_target)
    return mutated


def plant_canary(spec: ChartSpec, stage: str, cycles: int = 40,
                 trace_seed: Optional[int] = None
                 ) -> Optional[CanaryMutation]:
    """Find a mutation guaranteed to diverge when applied at *stage*.

    Runs the reference interpreter over the harness trace, takes the
    transitions that actually fired, and retargets the first one whose
    target has a sibling to point at instead — so the mutated machine
    demonstrably reaches a different configuration at the firing cycle.
    """
    if trace_seed is None:
        trace_seed = (spec.seed or 0) * 7919 + 1
    trace = event_trace(trace_seed, spec.events, cycles)
    chart = render_chart(spec)
    evaluator = SpecEvaluator(spec)
    interp = Interpreter(chart, actions=evaluator.handlers())
    fired_indices: List[int] = []
    for events in trace:
        step = interp.step(events)
        for transition in step.fired:
            if transition.index not in fired_indices:
                fired_indices.append(transition.index)

    ordered = ordered_transitions(spec)
    parents = spec.parent_map()
    by_name = {s.name: s for s in spec.states()}
    for index in fired_indices:
        candidate = ordered[index]
        matches = [t for t in spec.transitions
                   if t.source == candidate.source
                   and t.trigger == candidate.trigger]
        if len(matches) != 1:
            continue
        parent_name = parents.get(candidate.target)
        container = (spec.root if parent_name is None
                     else by_name[parent_name])
        siblings = [child.name for child in container.children
                    if child.name != candidate.target]
        if not siblings:
            continue
        return CanaryMutation(stage=stage, source=candidate.source,
                              trigger=candidate.trigger,
                              new_target=siblings[0])
    return None


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

@dataclass
class OracleResult:
    """Outcome of one ordered sweep: the stage list and the first
    divergence, ``None`` when every stage ran clean."""

    stages: List[str]
    divergence: Optional[Divergence]

    @property
    def clean(self) -> bool:
        return self.divergence is None

    @property
    def stages_run(self) -> int:
        """How many stages the sweep ran before it stopped."""
        if self.divergence is None:
            return len(self.stages)
        return self.stages.index(self.divergence.stage) + 1


class OracleHarness:
    """Binds one spec + trace to the full differential stage stack."""

    def __init__(self, spec: ChartSpec, cycles: int = 40,
                 trace_seed: Optional[int] = None,
                 max_rungs: Optional[int] = None,
                 mutation: Optional[CanaryMutation] = None) -> None:
        self.spec = spec
        self.cycles = cycles
        self.trace_seed = ((spec.seed or 0) * 7919 + 1
                           if trace_seed is None else trace_seed)
        self.trace = event_trace(self.trace_seed, spec.events, cycles)
        #: the canary; may be set until the first mutated stage is built
        self.mutation = mutation
        self.max_rungs = max_rungs
        self.source = render_source(spec)
        self.chart = render_chart(spec)
        self._rungs: Optional[List[Rung]] = None
        self._reference: Optional[List[CycleState]] = None
        self._mutated_systems: Dict[int, BuiltSystem] = {}
        #: the mutated chart's front end, made on the first mutated stage
        self._mutated: Optional[Frontend] = None

    # -- stage inventory ----------------------------------------------------
    def rungs(self) -> List[Rung]:
        """The ladder's first ``max_rungs`` rungs (all of them by default),
        built once; the opt-in pipeline rung is off."""
        if self._rungs is None:
            self._rungs = list(islice(
                Improver(self.chart, self.source).rungs(), self.max_rungs))
        return self._rungs

    def stage_names(self) -> List[str]:
        return [rung.name for rung in self.rungs()] + list(EXTRA_STAGES)

    def _mutation_index(self) -> int:
        names = self.stage_names()
        if self.mutation is None:
            return len(names)
        if self.mutation.stage not in names:
            raise ValueError(
                f"mutation stage {self.mutation.stage!r} not in {names}")
        return names.index(self.mutation.stage)

    def _system_for(self, index: int) -> BuiltSystem:
        rungs = self.rungs()
        rung = rungs[min(index, len(rungs) - 1)]
        if self.mutation is None or index < self._mutation_index():
            return rung.system
        rung_index = min(index, len(rungs) - 1)
        if rung_index not in self._mutated_systems:
            if self._mutated is None:
                mutated_spec = apply_mutation(self.spec, self.mutation)
                if mutated_spec is None:
                    raise ValueError(
                        f"mutation {self.mutation} no longer applies")
                self._mutated = Frontend(render_chart(mutated_spec),
                                         self.source)
            self._mutated_systems[rung_index] = self._mutated.build(
                rung.arch, storage_map=dict(rung.storage_map))
        return self._mutated_systems[rung_index]

    # -- reference run ------------------------------------------------------
    def reference_states(self) -> List[CycleState]:
        if self._reference is None:
            evaluator = SpecEvaluator(self.spec)
            interp = Interpreter(self.chart, actions=evaluator.handlers())
            states: List[CycleState] = []
            for events in self.trace:
                step = interp.step(events)
                states.append(CycleState(
                    configuration=tuple(sorted(interp.configuration)),
                    fired=tuple(t.index for t in step.fired),
                    conditions=tuple(sorted(
                        interp.condition_values.items())),
                    ports=tuple(sorted(evaluator.ports.items())),
                    variables=tuple(sorted(evaluator.globals.items())),
                ))
            self._reference = states
        return self._reference

    # -- machine-side capture ----------------------------------------------
    def _capture(self, machine, system: BuiltSystem, step) -> CycleState:
        maps = system.compiled.maps
        locations = system.compiled.allocator.locations
        return CycleState(
            configuration=tuple(sorted(machine.cr.configuration)),
            fired=tuple(t.index for t in step.fired),
            conditions=tuple(sorted(
                machine.cr.condition_vector().items())),
            ports=tuple(sorted(
                (name, machine.ports.latch_value(address))
                for name, address in maps.ports.items())),
            variables=tuple(sorted(
                (v.name, machine.executor.read_variable(locations[v.name]))
                for v in self.spec.variables if v.name in locations)),
        )

    @staticmethod
    def _machine(system: BuiltSystem):
        """A fresh machine for *system* with its :class:`WcetWatch`."""
        machine = system.make_machine()
        machine.attach(WcetWatch(system))
        return machine

    def _run_machine(self, stage: str, system: BuiltSystem,
                     machine, start: int, stop: int
                     ) -> Optional[Divergence]:
        reference = self.reference_states()
        watch = machine.observer(WcetWatch)
        for cycle in range(start, stop):
            step = machine.step(self.trace[cycle])
            divergence = _compare(stage, cycle, reference[cycle],
                                  self._capture(machine, system, step))
            if divergence is None and watch.breach is not None:
                divergence = watch.divergence(stage, cycle)
            if divergence is not None:
                return divergence
        return None

    # -- stages -------------------------------------------------------------
    def _run_rung_stage(self, stage: str,
                        system: BuiltSystem) -> Optional[Divergence]:
        return self._run_machine(stage, system, self._machine(system),
                                 0, self.cycles)

    def _run_snapshot_stage(self, stage: str,
                            system: BuiltSystem) -> Optional[Divergence]:
        machine = self._machine(system)
        mid = max(1, self.cycles // 2)
        divergence = self._run_machine(stage, system, machine, 0, mid)
        if divergence is not None:
            return divergence
        snapshot = snapshot_machine(machine)
        fresh = self._machine(system)
        restore_machine(fresh, snapshot)
        return self._run_machine(stage, system, fresh, mid, self.cycles)

    def _run_delta_stage(self, stage: str,
                         system: BuiltSystem) -> Optional[Divergence]:
        machine = self._machine(system)
        first = max(1, self.cycles // 3)
        mid = max(first + 1, (2 * self.cycles) // 3)
        divergence = self._run_machine(stage, system, machine, 0, first)
        if divergence is not None:
            return divergence
        base = snapshot_machine(machine)
        divergence = self._run_machine(stage, system, machine, first, mid)
        if divergence is not None:
            return divergence
        target = snapshot_machine(machine)
        delta = diff_snapshots(base, target)
        reconstructed = apply_delta(base, delta)
        want = snapshot_fingerprint(target)
        got = snapshot_fingerprint(reconstructed)
        if want != got:
            return Divergence(stage, mid, "snapshot-fingerprint", want, got)
        fresh = self._machine(system)
        restore_machine(fresh, reconstructed)
        return self._run_machine(stage, system, fresh, mid, self.cycles)

    def run_stage(self, index: int) -> Optional[Divergence]:
        """Run stage *index* against the reference; first divergence or
        ``None``.  A mutated stage's build failure is reported as
        ``field="build"``; the unmutated rungs are built by
        :meth:`stage_names`, so their build failures raise."""
        name = self.stage_names()[index]
        try:
            system = self._system_for(index)
        except Exception as exc:  # noqa: BLE001 — any build crash is data
            return Divergence(name, -1, "build", "system builds",
                              f"{type(exc).__name__}: {exc}")
        if name == "snapshot-restore":
            return self._run_snapshot_stage(name, system)
        if name == "delta-chain":
            return self._run_delta_stage(name, system)
        return self._run_rung_stage(name, system)

    def run_all(self) -> OracleResult:
        """Round-trip assert, then the stages in ladder order up to the
        first divergence: its stage is the guilty one, because every
        earlier stage ran clean in this sweep."""
        check_roundtrip(self.chart)
        names = self.stage_names()
        for index in range(len(names)):
            divergence = self.run_stage(index)
            if divergence is not None:
                return OracleResult(stages=names, divergence=divergence)
        return OracleResult(stages=names, divergence=None)
