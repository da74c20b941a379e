"""The complete PSCP machine (Fig. 1).

Assembles the synthesized SLA, the Configuration Register, the Transition
Address Table, the scheduler and the TEP(s) executing compiled transition
routines into one steppable machine:

1. at the start of a configuration cycle, external events (plus events the
   TEPs raised last cycle) are sampled into the CR;
2. the SLA (the synthesized PLA, guard signals applied) produces the enabled
   transition addresses into the TAT;
3. the scheduler copies the CR's condition part into the condition caches
   and dispatches the transitions round-robin to the TEPs; each transition
   stub marshals its action's constant arguments and calls the compiled
   routine; at the end the cache is copied back to the CR;
4. state updates are applied, the event part of the CR is reset, and the
   cycle's length (in reference-clock cycles) is the scheduler overhead plus
   the makespan of the TEP queues.

Execution of routines is sequential and deterministic (index order);
parallelism across TEPs is a timing model — see
:mod:`repro.pscp.scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (Collection, Dict, FrozenSet, Iterable, List, Mapping,
                    NamedTuple, Optional, Sequence, Set, Tuple, Union)

from repro.analysis.diag import Diagnostic, Severity, SourceLocation
from repro.isa.codegen import CompiledProgram
from repro.isa.isa import Imm, Instruction, LabelRef, Op, SignalRef
from repro.pscp.condcache import ConditionCacheBridge
from repro.pscp.cr import ConfigurationRegister
from repro.pscp.ports import PortBus
from repro.pscp.scheduler import (
    SLA_OVERHEAD_CYCLES,
    DispatchPlan,
    round_robin_dispatch,
)
from repro.pscp.tep import ProgramImage, Tep
from repro.sla.synth import Pla, synthesize
from repro.sla.table import TransitionAddressTable
from repro.statechart.labels import constant_argument
from repro.statechart.model import Chart, Transition


class MachineError(Exception):
    """Raised for construction or stepping problems."""


# ---------------------------------------------------------------------------
# linking and transition stubs
# ---------------------------------------------------------------------------

#: the CR/cache instruction each label builtin (``SetTrue(XFINISH)`` —
#: Fig. 5) compiles to in its stub, no routine call needed
_BUILTIN_OPS = {"SetTrue": Op.CSET, "SetFalse": Op.CCLR, "Raise": Op.EVSET}


@dataclass(frozen=True)
class LinkedCall:
    """A label's call bound to the routines: what its stub runs."""

    routine: str
    #: a routine call's (parameter name, constant value) per argument
    bindings: Tuple[Tuple[str, int], ...] = ()
    #: the declared condition or event a label builtin names
    signal: Optional[str] = None


def link_call(transition: Transition,
              params: Mapping[str, Optional[Sequence[str]]],
              enum_values: Mapping[str, int],
              conditions: Collection[str],
              events: Collection[str]) -> Union[LinkedCall, Diagnostic]:
    """Bind *transition*'s parsed call to the routines, or say why it does
    not link, at the transition's line: the one link decision.

    *params* maps each callable routine to its parameter names in order
    (``None`` when they are not known, so only a call without arguments
    links).  A label builtin must name exactly one declared condition
    (``SetTrue``/``SetFalse``) or event (``Raise``) of *conditions* and
    *events*, else PSC106 for an undeclared one; a routine call must name
    a routine of *params* and pass one constant per parameter
    (:func:`constant_argument` over *enum_values*); every other reason is
    PSC304."""
    call = transition.call

    def unlinked(reason: str, code: str = "PSC304",
                 where: bool = True) -> Diagnostic:
        if where:  # described only when it does not link
            reason = f"transition {transition.describe()}: {reason}"
        return Diagnostic(code, Severity.ERROR, reason, SourceLocation(
            line=transition.line, obj=f"transition {transition.index}"))

    if call.routine in _BUILTIN_OPS:
        if len(call.arguments) != 1:
            return unlinked(f"{call.routine} takes one name")
        name = call.arguments[0]
        kind = "event" if call.routine == "Raise" else "condition"
        if name not in (events if kind == "event" else conditions):
            return unlinked(f"unknown {kind} {name!r}", "PSC106")
        return LinkedCall(call.routine, signal=name)
    if call.routine not in params:
        return unlinked(f"routine {call.routine!r} was not compiled")
    names = params[call.routine]
    if names is None and call.arguments:
        return unlinked(f"parameter names for {call.routine!r} are "
                        "required to marshal arguments")
    if len(call.arguments) != len(names or ()):
        return unlinked(f"{call.routine} takes {len(names)} "
                        f"argument(s), label passes {len(call.arguments)}")
    bindings = []
    for argument, name in zip(call.arguments, names or ()):
        value = constant_argument(argument, enum_values)
        if value is None:
            return unlinked(f"cannot resolve action argument {argument!r}: "
                            "transition label arguments must be integers or "
                            "enum members", where=False)
        bindings.append((name, value))
    return LinkedCall(call.routine, tuple(bindings))


def _transition_stub(transition: Transition, linked: Optional[LinkedCall],
                     compiled: CompiledProgram) -> List[Instruction]:
    """The unlabelled stub one transition dispatches to: a builtin's single
    CR/cache instruction, or the routine's argument marshalling and call;
    then ``TRET``.  *linked* is the transition's call as
    :func:`link_call` bound it (``None`` without
    an action)."""
    body: List[Instruction] = []
    if linked is not None and linked.signal is not None:
        pool = (compiled.maps.events if linked.routine == "Raise"
                else compiled.maps.conditions)
        body.append(Instruction(_BUILTIN_OPS[linked.routine],
                                SignalRef(pool[linked.signal], linked.signal),
                                comment=transition.action))
    elif linked is not None:
        arch = compiled.arch
        mask = (1 << arch.data_width) - 1
        for param_name, value in linked.bindings:
            loc = compiled.allocator.locations[
                f"{linked.routine}.{param_name}"]
            for word_index, operand in enumerate(loc.words):
                word = (value >> (word_index * arch.data_width)) & mask
                body.append(Instruction(Op.LDA, Imm(word)))
                body.append(Instruction(Op.STA, operand))
        body.append(Instruction(Op.CALL, LabelRef(linked.routine),
                                comment=transition.action))
    return body + [Instruction(Op.TRET, comment=transition.describe())]


@dataclass(frozen=True)
class MachineImage:
    """One PSCP version's program memory (section 3.2): the compiled
    routines plus every transition's stub, linked once per build and shared,
    read-only, by every machine of that build; only its SLA memos
    (:meth:`sla_memo`) fill in as CR words first occur.  A run changes only
    a machine's CR, TAT queue, caches and RAM.  Build one with
    :meth:`link`."""

    chart: Chart
    compiled: CompiledProgram
    #: routines then stubs, each label resolved and each slot priced once
    program: ProgramImage
    #: the Transition Address Table's static side: transition index ->
    #: the label of its stub
    entries: Mapping[int, str]
    #: transition index -> the priced slots of its stub plus the called
    #: routine's compiled WCET (declared ``wcet`` overrides not applied)
    costs: Mapping[int, int]
    #: per transition index, the routine (or label builtin) its call names,
    #: ``None`` without an action: what the scheduler's exclusions read
    routines: Tuple[Optional[str], ...]
    #: ``id`` of each PLA the build's machines step under -> that PLA and
    #: its SLA memo (:meth:`sla_memo`); holding the PLA keeps the id its own
    _sla_memos: Dict[int, Tuple[Pla, Dict[int, "SlaOutputs"]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_sla_memos", {})

    @classmethod
    def link(cls, chart: Chart, compiled: CompiledProgram,
             param_names: Optional[Dict[str, List[str]]]) -> "MachineImage":
        """Link each transition's call to *compiled*'s routines
        (:func:`link_call`; :class:`MachineError` when one does not link),
        emit its stub once, labelled ``__t<index>``, after the routines,
        link and price the whole program once, and derive each
        transition's cost from its stub's prices.  Without *param_names*
        (routine -> parameter names in order; ``None`` or empty) only calls
        without arguments link."""
        params = {name: (param_names.get(name, ()) if param_names else None)
                  for name in compiled.objects}
        program = compiled.flat_instructions()
        entries: Dict[int, str] = {}
        stubs: Dict[int, range] = {}
        for transition in chart.transitions:
            bound = None
            if transition.call is not None:
                bound = link_call(transition, params, compiled.enum_values,
                                  compiled.maps.conditions,
                                  compiled.maps.events)
                if isinstance(bound, Diagnostic):
                    raise MachineError(bound.message)
            body = _transition_stub(transition, bound, compiled)
            entries[transition.index] = label = f"__t{transition.index}"
            stubs[transition.index] = range(len(program),
                                            len(program) + len(body))
            program += [body[0].with_label(label)] + body[1:]
        linked = ProgramImage.link(compiled.arch, program)
        wcets = compiled.wcets()
        costs = {index: sum(linked.prices[slot] for slot in slots)
                 + sum(wcets[program[slot].operand.name] for slot in slots
                       if program[slot].op is Op.CALL)
                 for index, slots in stubs.items()}
        return cls(chart, compiled, linked, MappingProxyType(entries),
                   MappingProxyType(costs),
                   tuple(t.call and t.call.routine for t in chart.transitions))

    def wcet(self, index: int) -> int:
        """Static worst-case cycles of transition *index*'s stub and
        routine, the quantity the timing validator sums along event cycles:
        its declared ``wcet`` override ("otherwise explicit timing
        constraints must be specified") or else :attr:`costs`."""
        override = self.chart.transitions[index].wcet_override
        return self.costs[index] if override is None else override

    def sla_memo(self, pla: Pla) -> Dict[int, "SlaOutputs"]:
        """CR word -> :class:`SlaOutputs` under *pla*: one memo per
        (image, PLA), shared by every machine that steps this image under
        *pla* and filled as each word first occurs.  Two PLAs of one chart
        (a binary and a one-hot state code) read the same word
        differently, so each gets its own."""
        return self._sla_memos.setdefault(id(pla), (pla, {}))[1]


# ---------------------------------------------------------------------------
# the machine
# ---------------------------------------------------------------------------

#: CR words one SLA memo holds at most; a cycle whose word is new past the
#: cap computes its outputs and stores nothing
SLA_MEMO_CAP = 4096


class SlaOutputs(NamedTuple):
    """What the SLA and the scheduler's decode logic make of one CR word —
    combinational, so the same on every cycle that samples the word.  A
    memo entry is shared by every cycle and every machine that reads it:
    nothing may mutate its lists or its plan."""

    #: the enabled transition indices, ascending: what the TAT receives
    enabled: List[int]
    #: their transitions
    fired: List[Transition]
    #: the TEP queues of *enabled*; ``None`` when nothing dispatches
    plan: Optional[DispatchPlan]
    #: the configuration the entry was computed from; *target* (the
    #: configuration after *enabled* fire) and its state field
    #: (:meth:`ConfigurationRegister.state_field`) hold only for it
    source: Optional[FrozenSet[str]]
    target: Optional[FrozenSet[str]]
    target_field: int


#: the outputs of every word that enables nothing
_QUIESCENT = SlaOutputs([], [], None, None, None, 0)


@dataclass
class MachineStep:
    """What one configuration cycle did.  :attr:`fired` and :attr:`plan`
    come from the build's SLA memo, shared with every cycle that sampled
    the same CR word: read them, never mutate them."""

    fired: List[Transition]
    configuration: FrozenSet[str]
    cycle_length: int
    start_time: int
    end_time: int
    plan: Optional[DispatchPlan]
    events_sampled: FrozenSet[str]
    events_raised: FrozenSet[str]
    #: faults that bit this cycle (injector attached) and detections the
    #: guard recorded; both stay ``()`` on the fault-free path so an
    #: empty-plan run is indistinguishable from a no-injector run
    faults: Tuple = ()
    recoveries: Tuple = ()

    @property
    def quiescent(self) -> bool:
        return not self.fired


class MachineObserver:
    """Watches a :class:`PscpMachine`'s configuration cycles, never changes
    them.  :meth:`PscpMachine.attach` calls :meth:`bind`; each stepped
    cycle then calls the first three hooks in order, and each run of
    repeated cycles (:meth:`PscpMachine.repeat`) calls :meth:`on_repeat`
    once.  They are no-ops here, so an observer implements only the hooks
    it needs.  An observer whose class overrides :meth:`on_sla` or
    :meth:`record_step` but not :meth:`on_repeat` makes the machine step
    every cycle of a run instead, so it sees exactly what stepping
    shows."""

    __slots__ = ()

    def bind(self, machine: "PscpMachine") -> None:
        """Called by :meth:`PscpMachine.attach`."""

    def flush(self) -> None:
        """Emit anything buffered; called on detach and after ``run()``."""

    def on_sla(self, cycle: int, sampled: FrozenSet[str],
               enabled: List[int], retries: List[int]) -> None:
        """The TAT holds *enabled* plus the guard's *retries*, undrained.
        *enabled* is shared with every cycle that sampled the same CR
        word: read it, never mutate it."""

    def on_dispatch(self, cycle: int, index: int, completed: bool,
                    cost: int, raised: Set[int],
                    port_accesses: List[Tuple[str, int, int]]) -> None:
        """Transition *index* ran for *cost* cycles (*raised* is dropped
        when not *completed*) and made *port_accesses* on the port bus."""

    def record_step(self, cycle: int, step: MachineStep) -> None:
        """The cycle is done; *step* is what it did."""

    def on_repeat(self, cycle: int, n: int, sampled: FrozenSet[str]) -> None:
        """Cycles *cycle* .. *cycle* + *n* - 1 repeat the last one: each
        samples *sampled*, enables and dispatches nothing and lasts
        ``SLA_OVERHEAD_CYCLES``.  Called before the clock moves, so the
        machine's ``time`` is the first one's start."""


class PscpMachine:
    """SLA + CR + scheduler + TAT + TEP(s) over one build's shared
    :class:`MachineImage`."""

    def __init__(self, image: MachineImage, pla: Optional[Pla] = None,
                 port_bus: Optional[PortBus] = None) -> None:
        #: the build's program memory, shared with its other machines
        self.image = image
        self.chart = image.chart
        self.compiled = image.compiled
        self.arch = self.compiled.arch
        self.pla = pla if pla is not None else synthesize(self.chart)
        self.cr = ConfigurationRegister(self.pla.layout)
        self.ports = port_bus if port_bus is not None else PortBus()
        self.tat = TransitionAddressTable(image.entries)
        self._routine_by_index = image.routines.__getitem__
        #: the build's SLA outputs per CR word under this PLA
        self._sla_memo = image.sla_memo(self.pla)
        #: single executor with shared memory; see scheduler docstring
        self.executor = Tep(image.program, ports=self.ports,
                            name="tep-shared")
        self.executor.load_memory(self.compiled.allocator.initial_values)
        self.cond_cache_bridge = ConditionCacheBridge(
            self.cr.layout.chart.conditions, self.compiled.maps.conditions)
        self._event_index_to_name = {index: name for name, index
                                     in self.compiled.maps.events.items()}
        self._event_names = frozenset(self.chart.events)
        self._pending_internal_events: Set[str] = set()
        self.time = 0
        self.cycle_count = 0
        #: the CR word the last cycle's SLA evaluated if that cycle
        #: dispatched nothing, else ``None``: what :meth:`repeat` repeats
        self._idle_word: Optional[int] = None
        #: attached observers, in attach order; a cycle calls each hook
        #: only on the observers whose class overrides it
        self.observers: Tuple[MachineObserver, ...] = ()
        self._sla_observers = self._dispatch_observers = self.observers
        self._step_observers = self._repeat_observers = self.observers
        #: True when an attached observer watches cycles without taking
        #: runs: :meth:`repeat` then steps each cycle
        self._repeat_by_stepping = False
        #: fault injection / recovery: ``None`` keeps every hook a no-op
        self.injector = None
        self.guard = None
        self.failed_teps: Set[int] = set()
        #: ``None`` until a TEP fails; then the surviving TEP indices the
        #: scheduler round-robins over
        self._available_teps: Optional[List[int]] = None

    # -- observers ---------------------------------------------------------
    def attach(self, observer: MachineObserver) -> None:
        """Start feeding *observer* this machine's configuration cycles."""
        observer.bind(self)
        self._set_observers(self.observers + (observer,))

    def detach(self, observer: MachineObserver) -> None:
        """Stop feeding *observer* and flush it; a detached tracer leaves
        the injector and the guard too."""
        self._set_observers(tuple(attached for attached in self.observers
                                  if attached is not observer))
        observer.flush()

    def _set_observers(self, observers) -> None:
        """Index *observers* by the hooks their class overrides."""
        self.observers = observers
        (self._sla_observers, self._dispatch_observers, self._step_observers,
         self._repeat_observers) = (
            tuple(o for o in observers if getattr(type(o), hook)
                  is not getattr(MachineObserver, hook))
            for hook in ("on_sla", "on_dispatch", "record_step", "on_repeat"))
        self._repeat_by_stepping = any(
            o not in self._repeat_observers
            for o in self._sla_observers + self._step_observers)
        self._share_tracer()

    def observer(self, cls):
        """The attached observer of class *cls*, or ``None``."""
        return next((o for o in self.observers if isinstance(o, cls)), None)

    def _share_tracer(self) -> None:
        """Hand the attached tracer (or ``None``) to the injector, then the
        guard: they write their fault and recovery instants into it."""
        from repro.obs.tracer import Tracer

        tracer = self.observer(Tracer)
        for unit in (self.injector, self.guard):
            if unit is not None:
                unit.attach_tracer(tracer)

    # -- fault injection and recovery --------------------------------------
    def attach_injector(self, injector) -> None:
        """Attach a :class:`repro.fault.FaultInjector` (or ``None`` to
        detach and restore the zero-overhead disabled path).

        An attached injector with an empty plan leaves the machine
        byte-identical to an un-instrumented one — the fault-free parity
        guarantee the tests assert.
        """
        self.injector = injector
        self.cond_cache_bridge.injector = injector
        self.ports.injector = injector
        if injector is not None:
            injector.bind(self)
            self._share_tracer()

    def attach_guard(self, guard) -> None:
        """Attach a :class:`repro.fault.MachineGuard`: arms the
        configuration-cycle watchdog, the exclusivity-set checker and the
        bounded-retry policy.  Pass ``None`` to detach."""
        self.guard = guard
        if guard is not None:
            guard.bind(self)
            self._share_tracer()

    def fail_tep(self, index: int) -> None:
        """Mark a TEP failed mid-run; the scheduler re-plans over the
        survivors (graceful timing degradation instead of a crash).  Raises
        :class:`MachineError` only when *no* TEP survives."""
        if not 0 <= index < self.arch.n_teps:
            raise MachineError(
                f"cannot fail TEP {index}: architecture has "
                f"{self.arch.n_teps} TEP(s)")
        if index in self.failed_teps:
            return
        self.failed_teps.add(index)
        survivors = [i for i in range(self.arch.n_teps)
                     if i not in self.failed_teps]
        if self.guard is not None:
            self.guard.on_tep_failed(self.cycle_count, index, survivors)
        if not survivors:
            if self.guard is not None:
                # may raise MachineEscalation instead (farm mode)
                self.guard.on_all_teps_failed(self.cycle_count)
            raise MachineError("all TEPs failed; no executor survives")
        self._available_teps = survivors

    # -- stepping ----------------------------------------------------------------
    def step(self, external_events: Iterable[str] = ()) -> MachineStep:
        """Run one configuration cycle."""
        external = set(external_events)
        unknown = external - self._event_names
        if unknown:
            raise MachineError(f"unknown external events {sorted(unknown)!r}")
        injector = self.injector
        guard = self.guard
        if injector is not None:
            # bus faults: drop / duplicate / delay external events
            external = injector.filter_events(self.cycle_count, external)
        internal = self._pending_internal_events
        self._pending_internal_events = set()
        self.cr.sample_events(external, internal)
        if injector is not None:
            # CR bit upsets, RAM flips, TEP failures, stuck ports
            injector.apply_cycle_faults(self.cycle_count, self)
            if guard is not None and injector.state_touched:
                # the exclusivity checker monitors the CR state part
                # directly, so a corrupted state word is caught *before*
                # the SLA evaluates it (a fired transition's entry set can
                # mask the corruption by cycle end)
                problems = guard.check_configuration(self.cr.configuration)
                if problems:
                    self.cr.configuration = guard.on_illegal_configuration(
                        self.cycle_count, problems)
        sampled = frozenset(self.cr.events)

        # the SLA's outputs: once per CR word from the build's memo, unless
        # a stuck-at output, a due retry or a failed TEP changes them
        word = self.cr.bits
        retries: List[int] = []
        due = guard.due_retries(self.cycle_count) if guard is not None else ()
        if injector is None and not due and self._available_teps is None:
            sla = self._sla_memo.get(word)
            if sla is None:
                sla = self._evaluate_sla(self.pla.enabled(word), [])
                if len(self._sla_memo) < SLA_MEMO_CAP:
                    self._sla_memo[word] = sla
        else:
            enabled = self.pla.enabled(word)
            if injector is not None:
                # stuck-at faults on the SLA product-term outputs
                enabled = injector.filter_enabled(self.cycle_count, enabled)
            if due:
                # a natural re-firing supersedes the scheduled retry: the
                # dispatch below is the same routine execution either way
                enabled_set = set(enabled)
                retries = [i for i in due if i not in enabled_set]
            sla = self._evaluate_sla(enabled, retries)
        enabled, transitions, plan, source, target, target_field = sla
        self.tat.post(enabled)
        if retries:
            self.tat.post(retries)
        for observer in self._sla_observers:
            observer.on_sla(self.cycle_count, sampled, enabled, retries)
        self._idle_word = None if plan is not None else word

        costs: Dict[int, int] = {}
        raised_names: Set[str] = set()
        event_index_to_name = self._event_index_to_name
        bridge = self.cond_cache_bridge
        cache = self.executor.condition_cache
        observers = self._dispatch_observers
        port_log = self.ports.access_log
        log_before = 0

        while not self.tat.empty:
            index = self.tat.pop()
            assert index is not None
            effect = (injector.dispatch_effect(self.cycle_count, index)
                      if injector is not None else None)
            if observers:
                log_before = len(port_log)
            bridge.copy_in(self.cr, cache)
            self.executor.events_raised = set()
            budget = guard.budgets.get(index) if guard is not None else None
            if effect is None and budget is None:
                cost = self.executor.run(self.tat.entry(index))
                completed = True
            else:
                cost, completed, detected = self._execute_dispatch(
                    index, effect, budget)
                if not completed and detected:
                    guard.on_watchdog_abort(self.cycle_count, index)
            costs[index] = cost
            if observers:
                # observed before the abort branch: an aborted dispatch is
                # still observed, with the raises the abort then drops
                raised = self.executor.events_raised
                accesses = port_log[log_before:]
                for observer in observers:
                    observer.on_dispatch(self.cycle_count, index, completed,
                                         cost, raised, accesses)
            if not completed:
                # aborted or runaway: the routine's condition/event effects
                # are transactional — no copy-back, raised events dropped
                self.executor.events_raised = set()
                continue
            bridge.copy_back(self.cr, cache)
            for event_index in self.executor.events_raised:
                name = event_index_to_name.get(event_index)
                if name is None:
                    raise MachineError(
                        f"routine raised unknown event index {event_index}")
                raised_names.add(name)
            if guard is not None and guard.has_open_abort(index):
                guard.on_retry_success(self.cycle_count, index)

        # state update through the SLA's next-state plane (same
        # per-transition order as the interpreter), computed for the source
        # configuration only: an illegal configuration may share its word;
        # a quiescent cycle keeps its configuration object, so the CR's
        # state field stays cached
        if enabled:
            configuration = self.cr.configuration
            if configuration is source or configuration == source:
                self.cr.load_state(target, target_field)
            else:
                self.cr.configuration = self.pla.next_configuration(
                    configuration, enabled)

        self.cr.reset_events()
        self._pending_internal_events |= raised_names

        if guard is not None and (
                transitions
                or (injector is not None and injector.state_touched)):
            # exclusivity-set check: the natural parity of the Drusinsky
            # encoding — recover to the declared safe state on violation
            problems = guard.check_configuration(self.cr.configuration)
            if problems:
                self.cr.configuration = guard.on_illegal_configuration(
                    self.cycle_count, problems)

        makespan = plan.makespan(lambda i: costs[i]) if plan else 0
        cycle_length = SLA_OVERHEAD_CYCLES + makespan
        step = MachineStep(
            fired=transitions,
            configuration=self.cr.configuration,
            cycle_length=cycle_length,
            start_time=self.time,
            end_time=self.time + cycle_length,
            plan=plan,
            events_sampled=sampled,
            events_raised=frozenset(raised_names),
            faults=() if injector is None else injector.drain_cycle_log(),
            recoveries=() if guard is None else guard.drain_cycle_log(),
        )
        for observer in self._step_observers:
            observer.record_step(self.cycle_count, step)
        self.time += cycle_length
        self.cycle_count += 1
        return step

    def _evaluate_sla(self, enabled: List[int],
                      retries: List[int]) -> SlaOutputs:
        """The outputs of a cycle that enables *enabled* and re-posts
        *retries*, from the CR's configuration: the transitions, the plan
        and the next configuration with its state field."""
        if not enabled and not retries:
            return _QUIESCENT
        source = self.cr.configuration
        target = (self.pla.next_configuration(source, enabled) if enabled
                  else source)
        return SlaOutputs(
            enabled, [self.chart.transitions[i] for i in enabled],
            round_robin_dispatch(enabled + retries, self._routine_by_index,
                                 self.arch, self._available_teps),
            source, target, self.cr.state_field(target))

    def _execute_dispatch(self, index: int, effect, budget: Optional[int]
                          ) -> Tuple[int, bool, bool]:
        """Run one dispatch under an optional injected *effect* (stall or
        runaway fault) and an optional watchdog *budget*.

        Returns ``(cost, completed, detected)``: the cycles charged, whether
        the routine ran to completion (aborted/runaway routines have their
        condition-cache copy-back and raised events suppressed), and whether
        the watchdog caught the overrun.
        """
        from repro.fault.model import DEFAULT_RUNAWAY_CYCLES, TEP_RUNAWAY
        from repro.pscp.tep import TepBudgetExceeded

        executor = self.executor
        entry = self.tat.entry(index)
        if effect is not None and effect.kind == TEP_RUNAWAY:
            # the routine never returns: without a watchdog the TEP is lost
            # for DEFAULT_RUNAWAY_CYCLES; with one, it is aborted at budget
            if budget is not None:
                return budget, False, True
            return (effect.param or DEFAULT_RUNAWAY_CYCLES), False, False
        cycles_before = executor.cycles
        depth = len(executor.call_stack)
        limit = budget if budget is not None else 1_000_000
        try:
            cost = executor.run(entry, max_cycles=limit)
        except TepBudgetExceeded:
            # watchdog abort: charge exactly the budget, unwind the stack
            del executor.call_stack[depth:]
            executor.cycles = cycles_before + limit
            return limit, False, budget is not None
        if effect is not None:  # TEP_STALL: the routine ran, then hung
            cost += effect.param
            executor.cycles += effect.param
            if budget is not None and cost > budget:
                executor.cycles = cycles_before + budget
                return budget, False, True
        return cost, True, False

    def run(self, traces: Iterable[Iterable[str]]) -> List[MachineStep]:
        """Step once per event set in *traces*, then flush the observers."""
        steps = [self.step(events) for events in traces]
        for observer in self.observers:
            observer.flush()
        return steps

    def repeat_refusal(self, external_events: Iterable[str] = ()
                       ) -> Optional[str]:
        """Why :meth:`repeat` with *external_events* is illegal now, or
        ``None`` when it is legal: the last cycle dispatched nothing, no
        injector or guard is attached, no internal event is pending and
        *external_events* give the CR word the last cycle's SLA
        evaluated."""
        if self.injector is not None or self.guard is not None:
            return "an injector or a guard is attached"
        if self._idle_word is None:
            return "the last cycle dispatched transitions"
        if self._pending_internal_events:
            return "internal events are pending"
        external = set(external_events)
        unknown = external - self._event_names
        if unknown:
            return f"unknown external events {sorted(unknown)!r}"
        if self.cr.word(external) != self._idle_word:
            return "the CR word differs from the last cycle's"
        return None

    def repeat(self, n: int, external_events: Iterable[str] = ()) -> None:
        """Advance *n* configuration cycles that each repeat the last one
        exactly: it dispatched nothing, so the same CR word enables nothing
        again, and each cycle only adds ``SLA_OVERHEAD_CYCLES`` to
        :attr:`time`.  Raises :class:`MachineError`, changing nothing, when
        :meth:`repeat_refusal` names a reason.

        Observers that override :meth:`MachineObserver.on_repeat` get the
        run in one call; when an attached observer overrides ``on_sla`` or
        ``record_step`` but not ``on_repeat``, each cycle is stepped."""
        external = frozenset(external_events)
        refusal = self.repeat_refusal(external)
        if refusal is not None:
            raise MachineError(f"cannot repeat the last cycle: {refusal}")
        if n < 1:
            raise MachineError(f"cannot repeat {n} cycles")
        if self._repeat_by_stepping:
            for _ in range(n):
                self.step(external)
            return
        for observer in self._repeat_observers:
            observer.on_repeat(self.cycle_count, n, external)
        self.time += n * SLA_OVERHEAD_CYCLES
        self.cycle_count += n

    # -- convenience ------------------------------------------------------------
    def condition(self, name: str) -> bool:
        return name in self.cr.conditions

    def in_state(self, name: str) -> bool:
        return name in self.cr.configuration

    def read_global(self, name: str) -> int:
        loc = self.compiled.allocator.locations[name]
        return self.executor.read_variable(loc)

    def write_global(self, name: str, value: int) -> None:
        loc = self.compiled.allocator.locations[name]
        self.executor.write_variable(loc, value)
