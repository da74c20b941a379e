"""Stepper-motor physics for the SMD pickup head (Fig. 7, section 5).

The head carries four stepper motors:

* X and Y: maximum step frequency 50 kHz, 0.025 mm/step, maximum velocity
  1.25 m/s, maximum acceleration 10 m/s²; "the X and Y motors have to be
  accelerated and decelerated in a precise way, because of inertia"
  (trapezoidal velocity profiles);
* Z and φ: 9 kHz, moving uniformly (constant step rate); one φ step is 0.1°.

"The motors are set in motion by counters that issue a pulse on zero."  The
controller must reload the X/Y counters within 300 cycles of a 15 MHz
reference clock, and the φ counter within 1600 cycles (Table 2).

This module is the *environment-side* model: given a commanded move, it
produces the step-pulse event times the controller must service, and tracks
position so closed-loop tests can check the head actually arrives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

#: the reference clock of the example (section 5)
REFERENCE_CLOCK_HZ = 15_000_000

#: Table 2, derived from the motor step rates at the reference clock
XY_DEADLINE_CYCLES = 300
PHI_DEADLINE_CYCLES = 1600
DATA_VALID_PERIOD_CYCLES = 1500


@dataclass(frozen=True)
class MotorSpec:
    """Physical parameters of one stepper motor axis."""

    name: str
    max_step_hz: float
    step_size: float          # metres (or degrees for phi)
    max_velocity: float       # units/s; None-like 0 means rate-limited only
    max_acceleration: float   # units/s^2; 0 => uniform (no ramp)

    @property
    def min_step_interval_cycles(self) -> int:
        return int(REFERENCE_CLOCK_HZ / self.max_step_hz)


#: Fig. 7 / section 5 values
X_MOTOR = MotorSpec("X", 50_000.0, 0.025e-3, 1.25, 10.0)
Y_MOTOR = MotorSpec("Y", 50_000.0, 0.025e-3, 1.25, 10.0)
Z_MOTOR = MotorSpec("Z", 9_000.0, 0.025e-3, 0.225, 0.0)
PHI_MOTOR = MotorSpec("Phi", 9_000.0, 0.1, 900.0, 0.0)

SMD_MOTORS = {m.name: m for m in (X_MOTOR, Y_MOTOR, Z_MOTOR, PHI_MOTOR)}

#: the fast profile ``repro trace``/``stats`` and the fault campaign run the
#: SMD closed loop with: X and Y ramp at 2000 units/s^2 instead of 10, so a
#: move and its pulse deadlines fit a short run
FAST_MOTORS = {
    "X": MotorSpec("X", 50_000.0, 0.025e-3, 1.25, 2000.0),
    "Y": MotorSpec("Y", 50_000.0, 0.025e-3, 1.25, 2000.0),
    "Phi": PHI_MOTOR,
}


class ProfileError(Exception):
    """Raised for physically impossible move requests."""


@dataclass
class TrapezoidalProfile:
    """Velocity profile of one move: accelerate, cruise, decelerate.

    Computed in step units: the profile yields, for each step index, the
    time (seconds) at which that step pulse must occur.  For uniform motors
    (max_acceleration == 0) this degenerates to equally spaced steps.
    """

    spec: MotorSpec
    steps: int

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ProfileError("steps must be non-negative")

    def step_times(self) -> List[float]:
        if self.steps == 0:
            return []
        spec = self.spec
        if spec.max_acceleration <= 0:
            # uniform motor: steps at the maximum step rate
            interval = 1.0 / spec.max_step_hz
            return [(index + 1) * interval for index in range(self.steps)]
        distance = self.steps * spec.step_size
        # distance to reach max velocity
        ramp_distance = spec.max_velocity ** 2 / (2 * spec.max_acceleration)
        if 2 * ramp_distance <= distance:
            peak_velocity = spec.max_velocity
        else:
            peak_velocity = math.sqrt(distance * spec.max_acceleration)
        ramp_time = peak_velocity / spec.max_acceleration
        ramp_distance = peak_velocity ** 2 / (2 * spec.max_acceleration)
        cruise_distance = max(0.0, distance - 2 * ramp_distance)
        cruise_time = (cruise_distance / peak_velocity
                       if peak_velocity > 0 else 0.0)
        total_time = 2 * ramp_time + cruise_time

        times = []
        for index in range(1, self.steps + 1):
            s = index * spec.step_size
            if s <= ramp_distance:
                t = math.sqrt(2 * s / spec.max_acceleration)
            elif s <= ramp_distance + cruise_distance:
                t = ramp_time + (s - ramp_distance) / peak_velocity
            else:
                s_remaining = distance - s
                t_remaining = math.sqrt(
                    max(0.0, 2 * s_remaining / spec.max_acceleration))
                t = total_time - t_remaining
            times.append(t)
        return times

    def duration(self) -> float:
        times = self.step_times()
        return times[-1] if times else 0.0

    def max_step_rate(self) -> float:
        """The peak instantaneous step rate; must respect the spec."""
        times = self.step_times()
        if len(times) < 2:
            return 0.0
        best = 0.0
        for a, b in zip(times, times[1:]):
            if b > a:
                best = max(best, 1.0 / (b - a))
        return best

    def pulse_cycles(self) -> List[int]:
        """Step-pulse times in reference-clock cycles."""
        return [int(round(t * REFERENCE_CLOCK_HZ)) for t in self.step_times()]


@dataclass
class Motor:
    """Position-tracking state of one axis, driven by pulse counters."""

    spec: MotorSpec
    position_steps: int = 0
    _profile: Optional[TrapezoidalProfile] = None
    _pulses: List[int] = field(default_factory=list)
    _pulse_cursor: int = 0
    _direction: int = 1
    _start_cycle: int = 0

    @property
    def moving(self) -> bool:
        return self._pulse_cursor < len(self._pulses)

    @property
    def next_pulse(self) -> Optional[int]:
        """The absolute cycle time of the next pulse, ``None`` when the
        motor is not moving."""
        if not self.moving:
            return None
        return self._start_cycle + self._pulses[self._pulse_cursor]

    @property
    def has_work(self) -> bool:
        """True once a move has been commanded (finished or not)."""
        return bool(self._pulses)

    def command_move(self, steps: int, start_cycle: int) -> None:
        """Start a move of *steps* (sign = direction) at *start_cycle*."""
        if self.moving:
            raise ProfileError(f"motor {self.spec.name} is already moving")
        self._direction = 1 if steps >= 0 else -1
        self._profile = TrapezoidalProfile(self.spec, abs(steps))
        self._pulses = self._profile.pulse_cycles()
        self._pulse_cursor = 0
        self._start_cycle = start_cycle

    def pulses_between(self, start: int, end: int) -> List[int]:
        """Absolute cycle times of pulses in (start, end]; advances state."""
        fired = []
        while self._pulse_cursor < len(self._pulses):
            when = self._start_cycle + self._pulses[self._pulse_cursor]
            if when > end:
                break
            if when > start:
                fired.append(when)
            self.position_steps += self._direction
            self._pulse_cursor += 1
        return fired

    def finish_time(self) -> Optional[int]:
        if self._profile is None or not self._pulses:
            return None
        return self._start_cycle + self._pulses[-1]


def move_duration_cycles(spec: MotorSpec, steps: int) -> int:
    """Convenience: total cycles for a move of *steps* on *spec*."""
    profile = TrapezoidalProfile(spec, abs(steps))
    pulses = profile.pulse_cycles()
    return pulses[-1] if pulses else 0


def steps_for_distance(spec: MotorSpec, distance: float) -> int:
    """Steps needed to travel *distance* (same units as step_size)."""
    return int(round(distance / spec.step_size))
