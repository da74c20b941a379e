"""Well-formedness checks for charts.

These run before any synthesis or analysis step; each violation is collected
so a designer sees every problem at once (the paper's frontend, the Statechart
Structural Analyzer, plays this role).
"""

from __future__ import annotations

from typing import List

from repro.statechart.model import Chart, ChartError, StateKind


def chart_problems(chart: Chart) -> List[str]:
    """Return a list of human-readable well-formedness violations.

    Thin wrapper over the diagnostic framework
    (:func:`repro.analysis.chart_lint.wellformedness`) keeping the
    historical list-of-strings API; the diagnostics carry stable codes
    (PSC101..PSC110), locations and fix hints on top of these messages.
    """
    from repro.analysis.chart_lint import wellformedness

    return [diagnostic.message for diagnostic in wellformedness(chart)]


def chart_warnings(chart: Chart) -> List[str]:
    """Non-fatal design smells: unreachable states, unused signals.

    The paper's frontend (the Statechart Structural Analyzer) reports these
    rather than rejecting the chart — an unreachable state still synthesizes,
    it just wastes SLA terms and CR bits.  Wraps
    :func:`repro.analysis.chart_lint.design_smells` (codes PSC150..PSC152).
    """
    from repro.analysis.chart_lint import design_smells

    return [diagnostic.message for diagnostic in design_smells(chart)]


def validate_chart(chart: Chart) -> None:
    """Raise :class:`ChartError` listing all problems, if any."""
    problems = chart_problems(chart)
    if problems:
        raise ChartError(
            f"chart {chart.name!r} is not well-formed:\n  " +
            "\n  ".join(problems))


def resolve_references(chart: Chart, library: dict) -> Chart:
    """Inline every REF state from *library* (chart name -> Chart).

    The referenced chart's top-level structure is copied under the REF
    state's parent position: the REF state becomes an OR state whose children
    are fresh copies of the referenced chart's top-level states.  Name clashes
    are disambiguated by prefixing with the REF state's name.
    """
    from repro.statechart.model import State

    refs = [s for s in chart.states.values() if s.kind is StateKind.REF]
    for ref_state in refs:
        if ref_state.ref is None or ref_state.ref not in library:
            raise ChartError(
                f"cannot resolve reference {ref_state.name!r} -> {ref_state.ref!r}")
        sub = library[ref_state.ref]

        def local(name: str) -> str:
            return name if name not in chart.states else f"{ref_state.name}.{name}"

        rename = {sub.root: ref_state.name}
        for name in sub.descendants(sub.root):
            rename[name] = local(name)

        ref_state.kind = StateKind.OR
        ref_state.ref = None
        sub_root = sub.states[sub.root]
        ref_state.default = rename[sub_root.default or sub_root.children[0]]

        for name in sub.descendants(sub.root):
            original = sub.states[name]
            copy = State(
                rename[name], original.kind,
                children=[rename[c] for c in original.children],
                default=rename[original.default] if original.default else None,
                parent=rename[original.parent] if original.parent else None,
                ref=original.ref)
            chart.states[copy.name] = copy
        ref_state.children = [rename[c] for c in sub_root.children]

        for transition in sub.transitions:
            chart.add_transition(
                rename[transition.source], rename[transition.target],
                trigger=transition.trigger, guard=transition.guard,
                call=transition.call, label=transition.label,
                wcet_override=transition.wcet_override)
        for event in sub.events.values():
            if event.name not in chart.events and event.name not in chart.conditions:
                chart.add_event(event.name, width=event.width, port=event.port,
                                period=event.period)
        for condition in sub.conditions.values():
            if (condition.name not in chart.conditions
                    and condition.name not in chart.events):
                chart.add_condition(condition.name, width=condition.width,
                                    port=condition.port, initial=condition.initial)
    return chart
