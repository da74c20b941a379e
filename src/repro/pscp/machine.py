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

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.isa.arch import ArchConfig
from repro.isa.codegen import CompiledProgram
from repro.isa.isa import Imm, Instruction, LabelRef, Op, SignalRef
from repro.isa.microcode import cycle_cost
from repro.pscp.condcache import ConditionCacheBridge
from repro.pscp.cr import ConfigurationRegister
from repro.pscp.ports import PortBus
from repro.pscp.scheduler import (
    SLA_OVERHEAD_CYCLES,
    DispatchPlan,
    round_robin_dispatch,
)
from repro.pscp.tep import Tep
from repro.sla.synth import Pla, synthesize
from repro.sla.table import TransitionAddressTable
from repro.statechart.labels import action_arguments, action_routine_name
from repro.statechart.model import Chart, Transition


class MachineError(Exception):
    """Raised for construction or stepping problems."""


# ---------------------------------------------------------------------------
# transition stubs
# ---------------------------------------------------------------------------

def _resolve_argument(argument: str, compiled: CompiledProgram) -> int:
    argument = argument.strip()
    if argument in compiled.enum_values:
        return compiled.enum_values[argument]
    try:
        if argument.lower().startswith("0x"):
            return int(argument, 16)
        if argument.lower().startswith("b:"):
            return int(argument[2:], 2)
        return int(argument)
    except ValueError:
        raise MachineError(
            f"cannot resolve action argument {argument!r}: transition label "
            "arguments must be integers or enum members") from None


def _builtin_stub_body(routine: str, transition, compiled: CompiledProgram):
    """Builtin actions in labels (``SetTrue(XFINISH)`` — Fig. 5) compile to
    a single CR/cache instruction in the stub, no routine call needed."""
    ops = {"SetTrue": Op.CSET, "SetFalse": Op.CCLR, "Raise": Op.EVSET}
    if routine not in ops:
        return None
    arguments = action_arguments(transition.action)
    if len(arguments) != 1:
        raise MachineError(
            f"transition {transition.describe()}: {routine} takes one name")
    name = arguments[0]
    pool = (compiled.maps.events if routine == "Raise"
            else compiled.maps.conditions)
    if name not in pool:
        raise MachineError(
            f"transition {transition.describe()}: unknown "
            f"{'event' if routine == 'Raise' else 'condition'} {name!r}")
    return [Instruction(ops[routine], SignalRef(pool[name], name),
                        comment=transition.action)]


def _call_stub_body(routine: str, transition: Transition,
                    compiled: CompiledProgram,
                    param_names: Optional[Dict[str, List[str]]]
                    ) -> List[Instruction]:
    if routine not in compiled.objects:
        raise MachineError(
            f"transition {transition.describe()}: routine "
            f"{routine!r} was not compiled")
    arguments = action_arguments(transition.action)
    if param_names:
        params = param_names.get(routine, [])
    elif arguments:
        raise MachineError(
            f"transition {transition.describe()}: parameter names "
            f"for {routine!r} are required to marshal arguments")
    else:
        params = []
    if len(arguments) != len(params):
        raise MachineError(
            f"transition {transition.describe()}: {routine} takes "
            f"{len(params)} argument(s), label passes "
            f"{len(arguments)}")
    arch = compiled.arch
    mask = (1 << arch.data_width) - 1
    body: List[Instruction] = []
    for argument, param_name in zip(arguments, params):
        value = _resolve_argument(argument, compiled)
        loc = compiled.allocator.locations[f"{routine}.{param_name}"]
        for word_index, operand in enumerate(loc.words):
            word = (value >> (word_index * arch.data_width)) & mask
            body.append(Instruction(Op.LDA, Imm(word)))
            body.append(Instruction(Op.STA, operand))
    body.append(Instruction(Op.CALL, LabelRef(routine),
                            comment=transition.action))
    return body


def _transition_stub(
    transition: Transition,
    compiled: CompiledProgram,
    param_names: Optional[Dict[str, List[str]]],
) -> List[Instruction]:
    """The unlabelled stub one transition dispatches to: a builtin's single
    CR/cache instruction, or the routine's argument marshalling and call;
    then ``TRET``.

    ``param_names`` maps routine name to its parameter names in order.  The
    compiled objects do not record them, so without it (``None`` or empty)
    only parameterless routines can be called and a label that passes
    arguments raises :class:`MachineError`.
    """
    body: List[Instruction] = []
    if transition.action:
        routine = action_routine_name(transition.action)
        body = (_builtin_stub_body(routine, transition, compiled)
                or _call_stub_body(routine, transition, compiled,
                                   param_names))
    return body + [Instruction(Op.TRET, comment=transition.describe())]


# ---------------------------------------------------------------------------
# the machine
# ---------------------------------------------------------------------------

@dataclass
class MachineStep:
    """What one configuration cycle did."""

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
    them.  :meth:`PscpMachine.attach` calls :meth:`bind`; each cycle then
    calls the three hooks in order.  They are no-ops here, so an observer
    implements only the hooks it needs."""

    __slots__ = ()

    def bind(self, machine: "PscpMachine") -> None:
        """Called by :meth:`PscpMachine.attach`."""

    def flush(self) -> None:
        """Emit anything buffered; called on detach and after ``run()``."""

    def on_sla(self, cycle: int, sampled: FrozenSet[str],
               enabled: List[int], retries: List[int]) -> None:
        """The TAT holds *enabled* plus the guard's *retries*, undrained."""

    def on_dispatch(self, cycle: int, index: int, completed: bool,
                    cost: int, raised: Set[int],
                    port_accesses: List[Tuple[str, int, int]]) -> None:
        """Transition *index* ran for *cost* cycles (*raised* is dropped
        when not *completed*) and made *port_accesses* on the port bus."""

    def record_step(self, cycle: int, step: MachineStep) -> None:
        """The cycle is done; *step* is what it did."""


class PscpMachine:
    """SLA + CR + scheduler + TAT + TEP(s) + compiled routines."""

    def __init__(
        self,
        chart: Chart,
        compiled: CompiledProgram,
        pla: Optional[Pla] = None,
        port_bus: Optional[PortBus] = None,
        param_names: Optional[Dict[str, List[str]]] = None,
    ) -> None:
        self.chart = chart
        self.compiled = compiled
        self.arch = compiled.arch
        self.pla = pla if pla is not None else synthesize(chart)
        self.cr = ConfigurationRegister(self.pla.layout)
        self.ports = port_bus if port_bus is not None else PortBus()
        self.tat = TransitionAddressTable()
        self._param_names = param_names or {}

        stub_instructions, entries = build_transition_stubs(
            chart, compiled, self._param_names)
        program = compiled.flat_instructions() + stub_instructions
        for index, label in entries.items():
            self.tat.bind(index, label)
        #: single executor with shared memory; see scheduler docstring
        self.executor = Tep(self.arch, program, ports=self.ports,
                            name="tep-shared")
        self.executor.load_memory(compiled.allocator.initial_values)
        self.cond_cache_bridge = ConditionCacheBridge(
            self.compiled.maps.conditions)
        self._event_index_to_name = {index: name for name, index
                                     in self.compiled.maps.events.items()}
        self._event_names = frozenset(chart.events)
        self._pending_internal_events: Set[str] = set()
        self.time = 0
        self.cycle_count = 0
        #: attached observers, in attach order; a cycle calls each hook
        #: only on the observers whose class overrides it
        self.observers: Tuple[MachineObserver, ...] = ()
        self._sla_observers = self._dispatch_observers = self.observers
        self._step_observers = self.observers
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
        self._sla_observers, self._dispatch_observers, self._step_observers = (
            tuple(o for o in observers if getattr(type(o), hook)
                  is not getattr(MachineObserver, hook))
            for hook in ("on_sla", "on_dispatch", "record_step"))
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

    # -- checkpoint/restore -------------------------------------------------
    def snapshot(self, include_attachments: bool = True, timer_bank=None):
        """Capture the complete architectural state as a versioned,
        JSON-serializable :class:`~repro.resil.snapshot.MachineSnapshot`
        (call between steps)."""
        from repro.resil.snapshot import snapshot_machine

        return snapshot_machine(self, include_attachments=include_attachments,
                                timer_bank=timer_bank)

    def restore(self, snapshot, restore_attachments: bool = True,
                timer_bank=None) -> None:
        """Load *snapshot* back into this machine; the continuation is
        step-for-step identical to the original run from that cycle on."""
        from repro.resil.snapshot import restore_machine

        restore_machine(self, snapshot,
                        restore_attachments=restore_attachments,
                        timer_bank=timer_bank)

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

        enabled = self.pla.enabled(self.cr.bits)
        if injector is not None:
            # stuck-at faults on the SLA product-term outputs
            enabled = injector.filter_enabled(self.cycle_count, enabled)
        retries: List[int] = []
        if guard is not None:
            due = guard.due_retries(self.cycle_count)
            if due:
                # a natural re-firing supersedes the scheduled retry: the
                # dispatch below is the same routine execution either way
                enabled_set = set(enabled)
                retries = [i for i in due if i not in enabled_set]
        self.tat.post(enabled)
        if retries:
            self.tat.post(retries)
        for observer in self._sla_observers:
            observer.on_sla(self.cycle_count, sampled, enabled, retries)

        transitions = [self.chart.transitions[i] for i in enabled]
        dispatch = enabled + retries
        plan = round_robin_dispatch(
            dispatch, self._routine_of, self.arch,
            self._available_teps) if dispatch else None

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
        # per-transition order as the interpreter); a quiescent cycle keeps
        # its configuration object, so the CR's state field stays cached
        if enabled:
            self.cr.configuration = self.pla.next_configuration(
                self.cr.configuration, enabled)

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

    def _routine_of(self, transition_index: int) -> Optional[str]:
        transition = self.chart.transitions[transition_index]
        if not transition.action:
            return None
        return action_routine_name(transition.action)

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


def build_transition_stubs(
    chart: Chart,
    compiled: CompiledProgram,
    param_names: Optional[Dict[str, List[str]]],
) -> Tuple[List[Instruction], Dict[int, str]]:
    """Every transition's stub, each labelled ``__t<index>``, and the
    transition-index -> label map the TAT binds."""
    instructions: List[Instruction] = []
    entries: Dict[int, str] = {}
    for transition in chart.transitions:
        label = f"__t{transition.index}"
        entries[transition.index] = label
        body = _transition_stub(transition, compiled, param_names)
        body[0] = body[0].with_label(label)
        instructions.extend(body)
    return instructions, entries


def stub_wcet(transition: Transition, compiled: CompiledProgram,
              param_names: Optional[Dict[str, List[str]]] = None) -> int:
    """Static worst-case cycles of one transition's stub + routine: the
    declared ``wcet`` override if any, else the price of the stub the
    machine emits plus the called routine's compiled WCET.

    This is the per-transition quantity the timing validator sums along
    event cycles (plus the scheduler's dispatch overhead).
    """
    if transition.wcet_override is not None:
        # "otherwise explicit timing constraints must be specified"
        return transition.wcet_override
    arch = compiled.arch
    wcets = compiled.wcets()
    total = 0
    for instruction in _transition_stub(transition, compiled, param_names):
        total += cycle_cost(instruction, arch)
        if instruction.op is Op.CALL:
            total += wcets[instruction.operand.name]
    return total
