"""Renderers for the paper's tables and figures.

Every benchmark regenerates its table/figure through these helpers so the
output format is uniform: plain ASCII tables with the same rows/columns the
paper prints, plus DOT for the graph figures.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple


def ascii_table(headers: Sequence[str],
                rows: Iterable[Sequence[object]],
                title: str = "") -> str:
    """A boxed, column-aligned table."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(
            cell.ljust(width) for cell, width in zip(cells, widths)) + " |"

    separator = "+-" + "-+-".join("-" * width for width in widths) + "-+"
    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(separator)
    parts.append(line(list(headers)))
    parts.append(separator)
    for row in rendered_rows:
        parts.append(line(row))
    parts.append(separator)
    return "\n".join(parts)


def table1_report() -> str:
    """Table 1: microcode format."""
    from repro.isa.microcode import format_table1

    rows = [(symbolic, f"{bits} {pattern}")
            for symbolic, bits, pattern in format_table1()]
    return ascii_table(["Symbolic", "Encoding"], rows,
                       title="Table 1: Microcode format")


def table2_report(chart) -> str:
    """Table 2: timing constraints of the application chart."""
    rows = [(event.name, event.period)
            for event in chart.constrained_events()]
    return ascii_table(["Event", "Cycles"], rows,
                       title="Table 2: Timing Constraints")


def table3_report(cycles) -> str:
    """Table 3: detected event cycles."""
    rows = [("{" + ", ".join(c.states) + "}", c.length) for c in cycles]
    return ascii_table(["Cycle", "Length"], rows,
                       title="Table 3: Event Cycles")


def table4_report(rows: Sequence[Tuple[str, int, int, int]]) -> str:
    """Table 4: area and timing results.

    ``rows``: (architecture description, area CLBs, X/Y critical path,
    DATA_VALID critical path).
    """
    return ascii_table(
        ["Architecture", "Area", "Crit. Path X, Y", "Crit. Path DATA_VALID"],
        rows, title="Table 4: Area and Timing Results")


def _with_deltas(steps) -> Iterator[Tuple[Any, int, Dict[str, int]]]:
    """Each ladder step with its area and critical-path deltas against the
    previous step; the first step's deltas are zero, and so is the delta of
    an event the previous step had no path for."""
    for step, previous in zip(steps, steps[:1] + steps[:-1]):
        yield step, step.area_clbs - previous.area_clbs, {
            event: length - previous.critical_paths.get(event, length)
            for event, length in step.critical_paths.items()}


def improvement_profile_report(result) -> str:
    """The improvement ladder's trajectory
    (:class:`repro.flow.ImprovementResult`) as a table: area, area delta,
    remaining violations and the wall-clock cost of each rung."""
    rows = [(step.rung, step.area_clbs, f"{area_delta:+d}" if index else "",
             step.n_violations, f"{step.wall_seconds * 1e3:.1f}")
            for index, (step, area_delta, _) in enumerate(
                _with_deltas(result.steps))]
    table = ascii_table(
        ["Rung", "Area", "ΔArea", "Violations", "Wall ms"], rows,
        title="Improvement ladder profile")
    total = sum(step.wall_seconds for step in result.steps)
    return (f"{table}\n"
            f"total rebuild time {total * 1e3:.1f} ms "
            f"over {len(result.steps)} rung(s)")


def improvement_profile_json(result) -> Dict[str, Any]:
    """``--improve --json``'s ``improvement_profile``: every step of the
    trajectory with its wall time (6 dp) and deltas."""
    return {
        "total_wall_seconds": round(
            sum(step.wall_seconds for step in result.steps), 6),
        "rungs": [{
            "rung": step.rung,
            "description": step.description,
            "wall_seconds": round(step.wall_seconds, 6),
            "area_clbs": step.area_clbs,
            "n_violations": step.n_violations,
            "critical_paths": dict(step.critical_paths),
            "area_delta": area_delta,
            "critical_path_deltas": path_deltas,
        } for step, area_delta, path_deltas in _with_deltas(result.steps)],
    }


def comparison_table(title: str,
                     rows: Sequence[Tuple[str, object, object]],
                     value_names: Tuple[str, str] = ("paper", "measured")
                     ) -> str:
    """paper-vs-measured tables for EXPERIMENTS.md."""
    return ascii_table(["Quantity", value_names[0], value_names[1]],
                       rows, title=title)


def architecture_figure(system) -> str:
    """Fig. 1/Fig. 3: the generated machine structure, as indented text."""
    arch = system.arch
    est = system.area()
    lines = [f"PSCP architecture ({arch.describe()})", "shared:"]
    for component in est.shared:
        lines.append(f"  {component.name:28s} {component.clbs:4d} CLBs")
    for tep in range(arch.n_teps):
        lines.append(f"TEP {tep}:")
        for component in est.per_tep:
            lines.append(f"  {component.name:28s} {component.clbs:4d} CLBs")
    lines.append(f"total: {est.total_clbs} CLBs on {est.device().name}")
    return "\n".join(lines)
