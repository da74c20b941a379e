"""The codesign flow: build, static timing validation, iterative improvement.

Public API::

    from repro.flow import build_system, TimingValidator, Improver
"""

from repro.flow.build import (
    BuiltSystem,
    Frontend,
    build_system,
    select_initial_architecture,
)
from repro.flow.improve import (
    Improver,
    ImprovementResult,
    LadderStep,
    Rung,
    hot_globals,
)
from repro.flow.report import (
    architecture_figure,
    ascii_table,
    comparison_table,
    improvement_profile_json,
    improvement_profile_report,
    table1_report,
    table2_report,
    table3_report,
    table4_report,
)
from repro.flow.timing import (
    EventCycle,
    TimingValidator,
    TimingViolation,
    lpt_makespan,
)

__all__ = [
    "BuiltSystem", "EventCycle", "Frontend", "ImprovementResult", "Improver",
    "LadderStep", "Rung", "TimingValidator", "TimingViolation",
    "architecture_figure", "ascii_table", "build_system",
    "comparison_table", "hot_globals", "improvement_profile_json",
    "improvement_profile_report",
    "lpt_makespan",
    "select_initial_architecture", "table1_report", "table2_report",
    "table3_report", "table4_report",
]
