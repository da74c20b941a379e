"""WCET / cycle-budget lint (PSC401..PSC403).

Relates the three timing artifacts the flow already computes:

* the per-transition static cost from the ISA cost model (the linked
  image's :attr:`~repro.pscp.machine.MachineImage.costs`),
* explicit ``wcet N`` overrides on transitions — the paper's "explicit
  timing constraints" escape hatch for un-analyzable routines, and
* event arrival periods, which the timing validator turns into cycle
  budgets.

PSC401 catches an override that *understates* the analyzed cost: the
validator would then certify budgets the hardware cannot meet, so the
watchdog fires at runtime with no static warning.  PSC402 surfaces the
validator's own verdict (a chart that can never meet an event period is
rejected statically).  PSC403 notes when no event carries a period at all
— nothing constrains the design, which is usually an oversight in a
reactive system.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.diag import Collector, Diagnostic, SourceLocation
from repro.flow.build import BuiltSystem
from repro.statechart.model import Chart


def budget_lint(system: BuiltSystem,
                original_chart: Optional[Chart] = None,
                path: Optional[str] = None) -> List[Diagnostic]:
    """Budget diagnostics for a fully built system.

    *original_chart* (pre-specialization) supplies source lines for
    transitions; the analysis itself runs on ``system.chart`` so costs
    reflect exactly what the scheduler will execute.
    """
    out = Collector()
    chart = system.chart
    lines = original_chart or chart

    for transition in chart.transitions:
        if transition.wcet_override is None:
            continue
        derived = system.image.costs[transition.index]
        if transition.wcet_override < derived:
            line = None
            if transition.index < len(lines.transitions):
                line = lines.transitions[transition.index].line
            out.emit(
                "PSC401",
                f"transition {transition.describe()}: declared wcet "
                f"{transition.wcet_override} is below the analyzed cost "
                f"{derived} cycles; the timing validator would certify "
                "budgets the hardware cannot meet",
                location=SourceLocation(
                    file=path, line=line,
                    obj=f"transition {transition.index}"),
                hint=f"raise the override to at least {derived} or drop "
                     "it to use the analyzed cost")

    for violation in system.validator.validate():
        out.emit(
            "PSC402",
            f"timing violation: {violation.describe()}",
            location=SourceLocation(
                file=path, line=None,
                obj=f"event {violation.cycle.event!r}"),
            hint="shorten the routines on the cycle, add TEPs, or relax "
                 "the event period")

    if not chart.constrained_events():
        out.emit(
            "PSC403",
            "no event declares an arrival period; the timing validator "
            "has nothing to check",
            location=SourceLocation(file=path, line=None,
                                    obj=f"chart {chart.name!r}"),
            hint="add 'period N' to the external events that drive the "
                 "chart")
    return out.diagnostics
