"""The lint orchestrator: runs every analysis pass in dependency order.

Pass pipeline (each stage only runs when its prerequisites hold):

1. chart well-formedness + design smells — structural errors stop here
   (later passes assume a well-formed chart);
2. determinism (shadowed transitions / priority overlaps);
3. the front end's action parse + semantic check diagnostics (it parsed
   and checked the routines once, recording instead of raising), else its
   label calls that do not link (PSC106/PSC304, in the chart) — they stop
   here (dataflow and effects need typed ASTs and bound calls);
4. action dataflow (use-before-init, dead stores, constants, truncation);
5. effect analysis -> AND-region races + quiescence;
6. full system build from the front end -> WCET/budget + SLA/TAT checks.

Races run on the *original* chart (before routine specialization) so
constant-argument context sensitivity applies; the budget pass runs on the
*built* chart so costs reflect exactly what the scheduler executes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Tuple

from repro.analysis.diag import (
    Diagnostic,
    Severity,
    count_by_severity,
    finalize,
)


@dataclass(frozen=True)
class LintResult:
    """All surviving diagnostics of one lint run, sorted and counted."""

    diagnostics: Tuple[Diagnostic, ...]

    @property
    def errors(self) -> int:
        return count_by_severity(self.diagnostics)["error"]

    @property
    def warnings(self) -> int:
        return count_by_severity(self.diagnostics)["warning"]

    @property
    def has_errors(self) -> bool:
        return self.errors > 0


def lint_system(frontend,
                arch,
                *,
                specialize: bool = False,
                system=None,
                chart_path: Optional[str] = None,
                source_path: Optional[str] = None,
                suppress: Iterable[str] = (),
                enable: Iterable[str] = ()) -> LintResult:
    """Run every applicable pass over one chart and its routines at *arch*.

    *frontend* is the :class:`~repro.flow.build.Frontend` of the chart and
    routines: the routine passes read its diagnostics and typed program.
    *system* may pass in a system already built from *frontend* to avoid
    rebuilding; otherwise the runner builds one from *frontend* once the
    routine passes are clean.
    """
    if system is not None and system.frontend is not frontend:
        raise ValueError("system was not built from this front end")

    from repro.analysis.chart_lint import (
        design_smells,
        determinism,
        quiescence,
        wellformedness,
    )

    def done(diagnostics) -> LintResult:
        return LintResult(finalize(diagnostics, suppress=suppress,
                                   enable=enable))

    chart = frontend.chart
    diagnostics = list(wellformedness(chart, chart_path))
    diagnostics += design_smells(chart, chart_path)
    if any(d.severity is Severity.ERROR for d in diagnostics):
        return done(diagnostics)  # structural errors: stop before analysis

    diagnostics += determinism(chart, chart_path)

    if frontend.diagnostics or frontend.unlinked:
        # untyped ASTs or unbound calls: dataflow and effects would misfire
        return done(diagnostics + [
            replace(d, location=replace(d.location, file=source_path))
            for d in frontend.diagnostics] + [
            replace(d, location=replace(d.location, file=chart_path))
            for d in frontend.unlinked])

    from repro.action.parser import PREAMBLE_LINES
    from repro.analysis.dataflow import action_dataflow
    from repro.analysis.effects import transition_effects
    from repro.analysis.races import and_region_races

    checked = frontend.typed
    diagnostics += action_dataflow(checked, source_path,
                                   line_offset=PREAMBLE_LINES)

    effects = transition_effects(chart, checked)
    mutual_exclusions = getattr(arch, "mutual_exclusions", frozenset())
    diagnostics += and_region_races(chart, effects, mutual_exclusions,
                                    chart_path)
    raised_by = {index: summary.raises
                 for index, summary in effects.items()}
    diagnostics += quiescence(chart, raised_by, chart_path)

    if system is None:
        system = frontend.build(arch, specialize=specialize)

    from repro.analysis.budget import budget_lint
    from repro.analysis.sla_lint import sla_lint

    diagnostics += budget_lint(system, original_chart=chart,
                               path=chart_path)
    diagnostics += sla_lint(chart, path=chart_path)
    return done(diagnostics)
