"""Closed-loop testbench: PSCP machine ⇄ stepper motors ⇄ central controller.

This is the dynamic counterpart of the static timing validation: the
compiled controller runs on the cycle-counting PSCP machine while the motor
physics of :mod:`repro.workloads.motors` generates the pulse events of
Table 2, and a :class:`~repro.pscp.trace.DeadlineMonitor` records whether
every constrained event was consumed within its period.

Protocol (reconstructed; the paper gives only the constraints):

* the central controller transfers a command byte-by-byte — one byte on the
  ``Buffer`` port per ``DATA_VALID``, every 1500 cycles; move parameters are
  placed in main memory by the controller (era-typical DMA), and
  ``END_DATA`` closes the transfer;
* ``PrepareMove`` raises the ``MOVEMENT`` condition; ``StartMove`` computes
  the profiles; entering the ``Moving`` composite starts the three motors;
* each motor's counter "issues a pulse on zero" — an ``X_PULSE``/
  ``Y_PULSE``/``PHI_PULSE`` event the controller must service within its
  deadline (``DeltaT`` reloads the counter);
* when a motor's steps are exhausted the environment raises ``X_STEPS`` &c.;
  when all three FINISH conditions hold it raises ``END_MOVE``;
* ``BUF_EMPTY`` tells the controller no commands remain.

Between these events the machine mostly waits: a cycle whose input enables
nothing is followed by identical cycles until an event falls due or a motor
pulses.  The loop advances each such run in one
:meth:`~repro.pscp.machine.PscpMachine.repeat` call instead of stepping it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.flow.build import BuiltSystem
from repro.pscp.machine import PscpMachine
from repro.pscp.ports import PortBus
from repro.pscp.scheduler import SLA_OVERHEAD_CYCLES
from repro.pscp.trace import DeadlineMonitor, DeadlineReport
from repro.workloads import motors as motor_models
from repro.workloads.motors import Motor, MotorSpec, PHI_MOTOR, X_MOTOR, Y_MOTOR


@dataclass(frozen=True)
class MoveCommand:
    """One pickup-head move, in motor steps."""

    x_steps: int
    y_steps: int
    phi_steps: int
    opcode: int = 1


@dataclass
class ClosedLoopReport:
    """Outcome of a closed-loop run."""

    commands_completed: int
    commands_issued: int
    final_positions: Dict[str, int]
    deadline_reports: List[DeadlineReport]
    total_cycles: int
    configuration_cycles: int
    worst_latencies: Dict[str, Optional[int]]
    #: True when the run exhausted ``max_configuration_cycles`` before
    #: completing every command and draining the event queue
    truncated: bool = False
    #: restore-from-checkpoint recoveries performed during the run (only
    #: possible when ``run(..., restore_from_checkpoint=True)``)
    restarts: int = 0

    @property
    def all_deadlines_met(self) -> bool:
        return all(report.misses == 0 for report in self.deadline_reports)

    @property
    def all_moves_completed(self) -> bool:
        return (self.commands_completed == self.commands_issued
                and not self.truncated)


class SmdClosedLoop:
    """Drives a built SMD system against the motor physics."""

    COMMAND_PERIOD = motor_models.DATA_VALID_PERIOD_CYCLES
    COMMAND_BYTES = 4

    def __init__(self, system: BuiltSystem,
                 motor_specs: Optional[Dict[str, MotorSpec]] = None,
                 tracer=None, metrics=None, injector=None,
                 guard=None) -> None:
        self.system = system
        self.ports = PortBus()
        self.machine: PscpMachine = system.make_machine(port_bus=self.ports)
        self.monitor = DeadlineMonitor(system.chart)
        #: observability (optional): a repro.obs Tracer / MetricsRegistry
        if tracer is not None:
            self.machine.attach(tracer)
        #: robustness (optional): a FaultInjector / MachineGuard
        if injector is not None:
            self.machine.attach_injector(injector)
        if guard is not None:
            self.machine.attach_guard(guard)
        self.metrics = metrics
        specs = motor_specs or {"X": X_MOTOR, "Y": Y_MOTOR, "Phi": PHI_MOTOR}
        self.motors = {name: Motor(spec) for name, spec in specs.items()}
        self._pulse_event = {"X": "X_PULSE", "Y": "Y_PULSE",
                             "Phi": "PHI_PULSE"}
        self._steps_event = {"X": "X_STEPS", "Y": "Y_STEPS",
                             "Phi": "PHI_STEPS"}
        self._finish_condition = {"X": "XFINISH", "Y": "YFINISH",
                                  "Phi": "PHIFINISH"}
        #: (time, event) heap of scheduled external events
        self._queue: List[Tuple[int, int, str]] = []
        self._sequence = 0
        self._movement_seen = False
        self._move_started = False

    # -- event plumbing -------------------------------------------------------
    def schedule(self, time: int, event: str) -> None:
        heapq.heappush(self._queue, (time, self._sequence, event))
        self._sequence += 1

    def _due_events(self, now: int) -> Set[str]:
        due: Set[str] = set()
        while self._queue and self._queue[0][0] <= now:
            when, _, event = heapq.heappop(self._queue)
            self.monitor.arrival(event, when)
            due.add(event)
        return due

    def _steps_events(self) -> Set[str]:
        """``X_STEPS`` &c. of every motor whose move is done but whose
        FINISH condition the controller has not set yet."""
        return {self._steps_event[name]
                for name, motor in self.motors.items()
                if motor.has_work and not motor.moving
                and not self.machine.condition(self._finish_condition[name])}

    def _move_finished(self) -> bool:
        """A started move's motors all reported finished: ``END_MOVE``."""
        return self._move_started and all(
            self.machine.condition(c)
            for c in self._finish_condition.values())

    def _repeatable_cycles(self, events: Set[str], limit: int) -> int:
        """How many of the next configuration cycles, at most *limit*,
        the machine may repeat with *events*: each would be offered
        *events* again and change nothing in the loop, so none may start
        once an event falls due or a motor pulses."""
        machine = self.machine
        if (machine.repeat_refusal(events) is not None
                or self._move_finished() or events != self._steps_events()):
            return 0
        due = [motor.next_pulse for motor in self.motors.values()
               if motor.moving]
        if self._queue:
            due.append(self._queue[0][0])
        if due:
            # repeated cycles start SLA_OVERHEAD_CYCLES apart; count those
            # starting before the earliest due time (ceiling division)
            limit = min(limit, -(-(min(due) - machine.time)
                                 // SLA_OVERHEAD_CYCLES))
        return max(0, limit)

    # -- command transfer -----------------------------------------------------
    def _issue_command(self, command: MoveCommand, start_time: int) -> int:
        """Schedule the byte transfer for *command*; returns its end time."""
        time = start_time
        for index in range(self.COMMAND_BYTES):
            time += self.COMMAND_PERIOD
            self.schedule(time, "DATA_VALID")
        # parameters land in main memory (controller-side DMA)
        self._pending_params = command
        self._end_data_time = time + self.COMMAND_PERIOD // 4
        self.schedule(self._end_data_time, "END_DATA")
        return self._end_data_time

    def _apply_params(self, command: MoveCommand) -> None:
        target = self.system.compiled.allocator.locations["target"]
        accel = self.system.compiled.allocator.locations["accel"]
        vmax = self.system.compiled.allocator.locations["vmax"]
        executor = self.machine.executor
        width = self.system.arch.data_width
        # arrays are word groups; write per element
        def write_element(loc, index, value):
            words_per = loc.n_words // 3
            for w in range(words_per):
                executor._write_location(
                    loc.words[index * words_per + w],
                    (value >> (w * width)) & ((1 << width) - 1))
        for index, steps in enumerate(
                (command.x_steps, command.y_steps, command.phi_steps)):
            write_element(target, index, abs(steps))
            write_element(accel, index, 2)
            write_element(vmax, index, 50)
        buffer_port = self.system.compiled.maps.ports["Buffer"]
        self.ports.map_latch(buffer_port, command.opcode)

    # -- checkpoint/restore ---------------------------------------------------
    def _loop_checkpoint(self, pending, completed, previous_time):
        """Controller snapshot + deep copy of the plant and loop state.

        The machine snapshot holds no attachment state: after a restore the
        injector's already-bitten faults stay consumed, so the fault that
        forced the escalation does not re-bite forever.
        """
        import copy

        from repro.resil.snapshot import snapshot_machine

        return {
            "machine": snapshot_machine(self.machine),
            "motors": copy.deepcopy(self.motors),
            "queue": list(self._queue),
            "sequence": self._sequence,
            "movement_seen": self._movement_seen,
            "move_started": self._move_started,
            "monitor": copy.deepcopy(self.monitor),
            "pending": list(pending),
            "completed": completed,
            "previous_time": previous_time,
        }

    def _restore_loop(self, checkpoint):
        """Roll controller, plant and loop state back to *checkpoint*."""
        import copy

        from repro.resil.snapshot import restore_machine

        restore_machine(self.machine, checkpoint["machine"])
        self.motors = copy.deepcopy(checkpoint["motors"])
        self._queue = list(checkpoint["queue"])
        self._sequence = checkpoint["sequence"]
        self._movement_seen = checkpoint["movement_seen"]
        self._move_started = checkpoint["move_started"]
        self.monitor = copy.deepcopy(checkpoint["monitor"])
        return (list(checkpoint["pending"]), checkpoint["completed"],
                checkpoint["previous_time"])

    # -- the run loop -----------------------------------------------------------
    def run(self, commands: Sequence[MoveCommand],
            max_configuration_cycles: int = 20000,
            restore_from_checkpoint: bool = False,
            checkpoint_every: int = 50,
            max_restarts: int = 3) -> ClosedLoopReport:
        from repro.fault.guard import MachineEscalation

        machine = self.machine
        pending = list(commands)
        completed = 0
        self.schedule(0, "POWER")
        if pending:
            self._apply_params(pending[0])
            self._issue_command(pending[0], machine.time)
        previous_time = -1
        ran_to_completion = False
        restarts = 0
        checkpoint = None
        last_checkpoint_cycle = machine.cycle_count
        if restore_from_checkpoint:
            checkpoint = self._loop_checkpoint(pending, completed,
                                               previous_time)

        remaining = max_configuration_cycles
        while remaining > 0:
            remaining -= 1
            now = machine.time
            events = self._due_events(now)
            # motor pulses since the previous configuration cycle
            for name, motor in self.motors.items():
                for when in motor.pulses_between(previous_time, now):
                    events.add(self._pulse_event[name])
                    self.monitor.arrival(self._pulse_event[name], when)
            events |= self._steps_events()
            # END_MOVE once every motor reported finished
            if self._move_finished():
                events.add("END_MOVE")
                self._move_started = False
                # under fault injection a spurious completion can arrive
                # after the command list drained; don't credit it
                if pending:
                    completed += 1
                    pending.pop(0)
                    if pending:
                        self._apply_params(pending[0])
                        self._issue_command(pending[0], machine.time)
                    else:
                        self.schedule(machine.time + self.COMMAND_PERIOD,
                                      "BUF_EMPTY")
            previous_time = now

            if (restore_from_checkpoint
                    and machine.cycle_count - last_checkpoint_cycle
                    >= checkpoint_every):
                checkpoint = self._loop_checkpoint(pending, completed,
                                                   previous_time)
                last_checkpoint_cycle = machine.cycle_count
            try:
                step = machine.step(events)
            except MachineEscalation:
                if not restore_from_checkpoint or restarts >= max_restarts:
                    raise
                restarts += 1
                pending, completed, previous_time = \
                    self._restore_loop(checkpoint)
                last_checkpoint_cycle = machine.cycle_count
                continue
            self.monitor.observe(step)

            # a move begins when the machine enters the Moving composite
            if machine.in_state("Moving") and not self._move_started:
                self._move_started = True
                command = None
                if completed < len(commands):
                    command = commands[completed]
                if command is not None:
                    self.motors["X"].command_move(command.x_steps, machine.time)
                    self.motors["Y"].command_move(command.y_steps, machine.time)
                    self.motors["Phi"].command_move(command.phi_steps,
                                                    machine.time)

            if completed == len(commands) and not self._queue:
                if all(not motor.moving for motor in self.motors.values()):
                    ran_to_completion = True
                    break

            # a run of identical input advances in one machine call; with
            # checkpointing on, every cycle is stepped (only a guard
            # escalates, and a guard forbids repeating anyway)
            if not restore_from_checkpoint:
                repeats = self._repeatable_cycles(events, remaining)
                if repeats:
                    machine.repeat(repeats, events)
                    self.monitor.advance(machine.time)
                    previous_time = machine.time - SLA_OVERHEAD_CYCLES
                    remaining -= repeats

        for observer in machine.observers:
            observer.flush()
        if self.metrics is not None:
            self._publish_metrics(completed, len(commands))
        return ClosedLoopReport(
            commands_completed=completed,
            commands_issued=len(commands),
            final_positions={name: motor.position_steps
                             for name, motor in self.motors.items()},
            deadline_reports=self.monitor.reports(),
            total_cycles=machine.time,
            configuration_cycles=machine.cycle_count,
            worst_latencies={report.event: report.worst_latency
                             for report in self.monitor.reports()},
            truncated=not ran_to_completion,
            restarts=restarts,
        )

    def _publish_metrics(self, completed: int, issued: int) -> None:
        metrics = self.metrics
        machine = self.machine
        self.monitor.publish(metrics)
        metrics.counter("machine.configuration_cycles").value = \
            machine.cycle_count
        metrics.counter("machine.reference_cycles",
                        "simulated reference-clock cycles").value = \
            machine.time
        metrics.counter("machine.instructions_retired").value = \
            machine.executor.instructions_executed
        bridge = machine.cond_cache_bridge
        metrics.counter("condcache.words_copied_in").value = \
            bridge.words_copied_in
        metrics.counter("condcache.words_copied_back").value = \
            bridge.words_copied_back
        metrics.counter("condcache.transfers",
                        "routine dispatches with cache copy-in").value = \
            bridge.transfers
        metrics.counter("workload.commands_completed").value = completed
        metrics.counter("workload.commands_issued").value = issued
        if machine.injector is not None:
            machine.injector.publish(metrics)
        if machine.guard is not None:
            machine.guard.publish(metrics)
