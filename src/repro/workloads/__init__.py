"""Workloads: the SMD pickup-head case study, motor physics, the closed-loop
testbench and synthetic chart generators.

Public API::

    from repro.workloads import smd_chart, SMD_ROUTINES, SmdClosedLoop
"""

from repro.workloads.environment import (
    ClosedLoopReport,
    MoveCommand,
    SmdClosedLoop,
)
from repro.workloads.generators import (
    parallel_servers,
    pipeline_chart,
    wide_decoder,
)
from repro.workloads.motors import (
    DATA_VALID_PERIOD_CYCLES,
    FAST_MOTORS,
    Motor,
    MotorSpec,
    PHI_DEADLINE_CYCLES,
    PHI_MOTOR,
    ProfileError,
    REFERENCE_CLOCK_HZ,
    SMD_MOTORS,
    TrapezoidalProfile,
    X_MOTOR,
    XY_DEADLINE_CYCLES,
    Y_MOTOR,
    Z_MOTOR,
    move_duration_cycles,
    steps_for_distance,
)
from repro.workloads.smd import (
    SMD_MUTUAL_EXCLUSIONS,
    SMD_PROPERTIES,
    SMD_ROUTINES,
    TABLE2_PAPER,
    TABLE3_PAPER,
    TABLE4_PAPER,
    smd_chart,
)

__all__ = [
    "ClosedLoopReport", "DATA_VALID_PERIOD_CYCLES", "FAST_MOTORS",
    "MotorSpec", "Motor", "MoveCommand", "PHI_DEADLINE_CYCLES", "PHI_MOTOR",
    "ProfileError", "REFERENCE_CLOCK_HZ", "SMD_MOTORS",
    "SMD_MUTUAL_EXCLUSIONS", "SMD_PROPERTIES", "SMD_ROUTINES",
    "SmdClosedLoop",
    "TABLE2_PAPER", "TABLE3_PAPER", "TABLE4_PAPER", "TrapezoidalProfile",
    "X_MOTOR", "XY_DEADLINE_CYCLES", "Y_MOTOR", "Z_MOTOR",
    "move_duration_cycles", "parallel_servers", "pipeline_chart",
    "smd_chart", "steps_for_distance", "wide_decoder",
]
