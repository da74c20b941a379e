"""Fault injection, detection and recovery for the PSCP machine.

Three layers (see docs/ROBUSTNESS.md):

* :mod:`repro.fault.model` — the fault taxonomy, the :class:`FaultSurface`
  of one built system, and seeded :class:`FaultPlan` generation;
* :mod:`repro.fault.injector` + :mod:`repro.fault.guard` — the runtime
  halves: a :class:`FaultInjector` executes a plan through hook points in
  the machine, while a :class:`MachineGuard` arms the watchdog, the
  exclusivity-set checker, bounded retry and TEP-failover accounting;
* :mod:`repro.fault.campaign` — seeded campaigns over the SMD closed loop
  with detected/recovered/missed reporting per fault class.
"""

from repro.fault.campaign import (
    CampaignError,
    CampaignReport,
    ClassStats,
    DEFAULT_CLASSES,
    EXPECTED_DETECTOR,
    FaultCampaign,
    RunResult,
)
from repro.fault.guard import (
    ALL_TEPS_FAILED,
    Detection,
    ILLEGAL_CONFIGURATION,
    MachineEscalation,
    MachineGuard,
    RETRY_EXHAUSTED,
    TEP_FAILOVER,
    WATCHDOG_ABORT,
    configuration_problems,
)
from repro.fault.injector import FaultInjector
from repro.fault.model import (
    ALL_FAULT_KINDS,
    DETECTABLE_KINDS,
    FAILOVER_KINDS,
    Fault,
    FaultError,
    FaultPlan,
    FaultSurface,
    ILLEGAL_CONFIG_KINDS,
    InjectedFault,
    WATCHDOG_KINDS,
)

__all__ = [
    "ALL_FAULT_KINDS",
    "ALL_TEPS_FAILED",
    "CampaignError",
    "CampaignReport",
    "ClassStats",
    "DEFAULT_CLASSES",
    "DETECTABLE_KINDS",
    "Detection",
    "EXPECTED_DETECTOR",
    "FAILOVER_KINDS",
    "Fault",
    "FaultCampaign",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultSurface",
    "ILLEGAL_CONFIGURATION",
    "ILLEGAL_CONFIG_KINDS",
    "InjectedFault",
    "MachineEscalation",
    "MachineGuard",
    "RETRY_EXHAUSTED",
    "RunResult",
    "TEP_FAILOVER",
    "WATCHDOG_ABORT",
    "WATCHDOG_KINDS",
    "configuration_problems",
]
