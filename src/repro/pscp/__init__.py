"""The PSCP machine: TEPs, configuration register, scheduler, ports, timers.

Public API::

    from repro.pscp import PscpMachine, Tep, DeadlineMonitor
"""

from repro.pscp.condcache import ConditionCacheBridge
from repro.pscp.cr import ConfigurationRegister
from repro.pscp.machine import (
    MachineError,
    MachineImage,
    MachineObserver,
    MachineStep,
    PscpMachine,
)
from repro.pscp.ports import PortBus, PortError
from repro.pscp.scheduler import (
    DISPATCH_OVERHEAD_CYCLES,
    SLA_OVERHEAD_CYCLES,
    DispatchPlan,
    round_robin_dispatch,
)
from repro.pscp.tep import ProgramImage, SimplePorts, Tep, TepError, TepState
from repro.pscp.timers import InterruptController, Timer, TimerBank
from repro.pscp.trace import DeadlineMonitor, DeadlineReport, EventRecord

__all__ = [
    "ConditionCacheBridge", "ConfigurationRegister",
    "DISPATCH_OVERHEAD_CYCLES", "DeadlineMonitor",
    "DeadlineReport", "DispatchPlan", "EventRecord", "InterruptController",
    "MachineError", "MachineImage", "MachineObserver", "MachineStep",
    "PortBus", "PortError", "ProgramImage", "PscpMachine",
    "SLA_OVERHEAD_CYCLES", "SimplePorts", "Tep", "TepError", "TepState",
    "Timer", "TimerBank", "round_robin_dispatch",
]
