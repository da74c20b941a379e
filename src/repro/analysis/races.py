"""AND-region write-write race detection (PSC203).

Transitions whose sources sit in different regions of one AND state fire in
the *same* configuration cycle when both are enabled; if their actions write
overlapping storage, the post-step value depends on TEP scheduling order —
the classic statechart race.  This pass combines:

* structural orthogonality (:func:`repro.analysis.chart_lint.orthogonal`),
* joint satisfiability of the enabling conditions (a pair whose triggers
  contradict — e.g. ``X_PULSE`` vs ``not X_PULSE`` — cannot co-fire), and
* the context-sensitive effect summaries from
  :mod:`repro.analysis.effects`.

A pair is *not* reported when the architecture declares the two routines
mutually exclusive (``Arch.mutual_exclusions``): the hardware serializes
them, so the designer has already acknowledged and resolved the conflict.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.analysis.chart_lint import (
    _transition_loc,
    enable_products,
    jointly_satisfiable,
    orthogonal,
)
from repro.analysis.diag import Collector, Diagnostic
from repro.analysis.effects import Effects, write_conflicts
from repro.statechart.model import Chart


def and_region_races(chart: Chart,
                     effects: Dict[int, Effects],
                     mutual_exclusions: FrozenSet[FrozenSet[str]]
                     = frozenset(),
                     path: Optional[str] = None) -> List[Diagnostic]:
    """One PSC203 warning per racing transition pair."""
    out = Collector()
    transitions = [t for t in chart.transitions
                   if t.index in effects and t.call is not None]
    products = {t.index: enable_products(t) for t in transitions}
    scopes = {t.index: chart.transition_scope(t) for t in transitions}

    for i, first in enumerate(transitions):
        for second in transitions[i + 1:]:
            if not orthogonal(chart, first.source, second.source):
                continue
            if (scopes[first.index] == scopes[second.index]
                    or chart.is_ancestor(scopes[first.index],
                                         scopes[second.index])
                    or chart.is_ancestor(scopes[second.index],
                                         scopes[first.index])):
                # ancestrally-related scopes conflict instead of co-firing;
                # the determinism pass owns that pair
                continue
            if not jointly_satisfiable(products[first.index],
                                       products[second.index]):
                continue
            clashes = write_conflicts(effects[first.index],
                                      effects[second.index])
            if not clashes:
                continue
            if frozenset({first.call.routine,
                          second.call.routine}) in mutual_exclusions:
                continue
            out.emit(
                "PSC203",
                f"transitions {first.describe()} and {second.describe()} "
                "fire in the same cycle from parallel regions and both "
                f"write {', '.join(clashes)}; the result depends on TEP "
                "scheduling order",
                location=_transition_loc(chart, path, second),
                hint="serialize via Arch.mutual_exclusions, split the "
                     "storage per region, or make the triggers disjoint")
    return out.diagnostics
