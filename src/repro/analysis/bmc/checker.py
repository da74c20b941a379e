"""Property verdicts over the explored space, as PSC6xx diagnostics.

Verdict semantics (docs/CHECKING.md):

* **proved** — the property holds on every node of a *completely* explored
  space.  The explored space over-approximates the concrete machine (may
  effects fork both ways), so a proof here is a proof for the machine.
* **violated** — an abstract counterexample was found *and* its event trace
  replayed on the real :class:`~repro.pscp.machine.PscpMachine` to the
  violating configuration.  PSC602 (safety) / PSC611 (deadline), with the
  witness + forensics artifacts written when a directory is given.
* **unconfirmed** — the abstraction found a violation but the machine's
  concrete routine data refused to follow the path: PSC605, honest warning.
* **bound exhausted** — neither, because exploration was truncated (depth,
  state budget, input-alphabet or fork caps): PSC604, never silently clean.

Deadline properties upgrade the timing validator's PSC402 story: each
heuristic event cycle is *realized* against the explored graph (the exact
transition sequence must fire, in order, with only quiescent cycles in
between).  An over-budget cycle that realizes is a proven violation with a
replayable witness; one that cannot realize in a complete space is refuted
(PSC612) — the heuristic was pessimistic — and the longest realizable cycle
becomes the proven worst case (PSC610).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.bmc.explorer import (
    BmcNode,
    Edge,
    ExploredSpace,
    Explorer,
    abstract_actions,
)
from repro.analysis.bmc.props import (
    AlwaysReach,
    Deadline,
    NeverIn,
    NeverWhile,
    ParsedProperties,
    Property,
    parse_properties,
)
from repro.analysis.bmc.witness import (
    Witness,
    replay_witness,
    write_witness,
)
from repro.analysis.diag import (
    Collector,
    Diagnostic,
    SourceLocation,
    count_by_severity,
    finalize,
)
from repro.statechart.model import Chart

PROVED = "proved"
VIOLATED = "violated"
UNCONFIRMED = "unconfirmed"
BOUND_EXHAUSTED = "bound-exhausted"


@dataclass
class PropertyVerdict:
    """One property's outcome."""

    prop: Property
    status: str
    detail: str = ""
    witness: Optional[Witness] = None
    witness_files: Tuple[str, ...] = ()


@dataclass(frozen=True)
class CheckResult:
    """Everything one ``repro check`` run decided."""

    diagnostics: Tuple[Diagnostic, ...]
    verdicts: Tuple[PropertyVerdict, ...]
    nodes: int
    complete: bool
    truncation: Optional[str] = None
    #: the underlying exploration, for callers cross-checking coverage
    #: (e.g. the fuzz campaign's oracle-agreement stage); not serialized
    space: Optional[ExploredSpace] = None

    @property
    def violated(self) -> bool:
        return any(v.status == VIOLATED for v in self.verdicts)

    @property
    def undecided(self) -> bool:
        return any(v.status in (BOUND_EXHAUSTED, UNCONFIRMED)
                   for v in self.verdicts)

    @property
    def errors(self) -> int:
        return count_by_severity(self.diagnostics)["error"]


# ---------------------------------------------------------------------------
# per-form checks
# ---------------------------------------------------------------------------

def _bound_detail(space: ExploredSpace) -> str:
    return space.truncation or "bound reached"


def _check_never_while(prop: NeverWhile, space: ExploredSpace
                       ) -> PropertyVerdict:
    for node in space.nodes:
        config = node[0]
        if prop.state_a in config and prop.state_b in config:
            trace = tuple(space.trace_to(node))
            witness = Witness(
                property_text=prop.text, kind="never-while", trace=trace,
                expect={"states": [prop.state_a, prop.state_b]})
            return PropertyVerdict(prop, VIOLATED,
                                   f"co-occupied after {len(trace)} "
                                   "cycle(s)", witness)
    if space.complete:
        return PropertyVerdict(
            prop, PROVED,
            f"no reachable configuration holds {prop.state_a!r} and "
            f"{prop.state_b!r} together ({len(space.nodes)} states)")
    return PropertyVerdict(prop, BOUND_EXHAUSTED, _bound_detail(space))


def _check_never_in(prop: NeverIn, space: ExploredSpace) -> PropertyVerdict:
    assert prop.expr is not None
    for node in space.nodes:
        config, conds, _ = node
        if prop.state in config and prop.expr.evaluate(conds):
            trace = tuple(space.trace_to(node))
            witness = Witness(
                property_text=prop.text, kind="never-in", trace=trace,
                expect={"state": prop.state, "expr": prop.expr_text})
            return PropertyVerdict(prop, VIOLATED,
                                   f"holds after {len(trace)} cycle(s)",
                                   witness)
    if space.complete:
        return PropertyVerdict(
            prop, PROVED,
            f"{prop.expr_text!r} is false in every reachable "
            f"{prop.state!r} configuration ({len(space.nodes)} states)")
    return PropertyVerdict(prop, BOUND_EXHAUSTED, _bound_detail(space))


def _check_always_reach(prop: AlwaysReach, space: ExploredSpace
                        ) -> PropertyVerdict:
    """Violation: a run of *cycles* steps after an arrival of the event
    that never enters the target state (the arrival step is cycle 1)."""
    memo: Dict[Tuple[BmcNode, int], object] = {}
    UNKNOWN = "unknown"

    def avoid(node: BmcNode, remaining: int):
        """A list of inputs avoiding the state, UNKNOWN, or None."""
        if prop.state in node[0]:
            return None
        if remaining == 0:
            return []
        key = (node, remaining)
        if key in memo:
            return memo[key]
        memo[key] = None  # cut cycles: a revisit within the same budget
        if node not in space.expanded:
            memo[key] = UNKNOWN
            return UNKNOWN
        saw_unknown = False
        for edge in space.edges[node]:
            sub = avoid(edge.target, remaining - 1)
            if sub is UNKNOWN:
                saw_unknown = True
            elif sub is not None:
                result = [edge.inputs] + sub
                memo[key] = result
                return result
        memo[key] = UNKNOWN if saw_unknown else None
        return memo[key]

    saw_unknown = False
    for node in space.nodes:
        if node not in space.expanded:
            saw_unknown = True
            continue
        if prop.event in space.decisions.get(node, ()):
            arrivals = [edge for edge in space.edges[node]
                        if prop.event in edge.inputs]
        else:
            # the event is dead at this node (no live AND-plane row tests
            # it), so its arrival is sampled and dropped: every existing
            # edge doubles as an arrival edge
            arrivals = [Edge(edge.inputs | {prop.event}, edge.target,
                             edge.fired)
                        for edge in space.edges[node]]
        for edge in arrivals:
            tail = avoid(edge.target, prop.cycles - 1)
            if tail is UNKNOWN:
                saw_unknown = True
                continue
            if tail is not None:
                trace = (tuple(space.trace_to(node))
                         + (edge.inputs,) + tuple(tail))
                witness = Witness(
                    property_text=prop.text, kind="always-reach",
                    trace=trace,
                    expect={"state": prop.state, "event": prop.event,
                            "cycles": prop.cycles})
                return PropertyVerdict(
                    prop, VIOLATED,
                    f"a run avoids {prop.state!r} for {prop.cycles} "
                    f"cycle(s) after {prop.event!r}", witness)
    if saw_unknown or not space.complete:
        return PropertyVerdict(prop, BOUND_EXHAUSTED, _bound_detail(space))
    return PropertyVerdict(
        prop, PROVED,
        f"every run reaches {prop.state!r} within {prop.cycles} cycle(s) "
        f"of {prop.event!r}")


def _realize(space: ExploredSpace, sequence: Sequence[int]
             ) -> Optional[Tuple[BmcNode, List[Edge]]]:
    """Drive the explored graph through *sequence* in order.

    An edge advances the sequence when it fires the next wanted transition
    (parallel co-firings are fine); a quiescent edge (nothing fired) waits
    without advancing; any other edge would execute work the cycle does not
    account for, so it is not taken.  Returns the start node and the edge
    path of the shortest realization, or None.
    """
    if not sequence:
        return None
    wanted = list(sequence)
    queue: List[Tuple[BmcNode, int]] = []
    parents: Dict[Tuple[BmcNode, int],
                  Tuple[Tuple[BmcNode, int], Edge]] = {}
    seen: Set[Tuple[BmcNode, int]] = set()
    for node in space.nodes:
        state = (node, 0)
        queue.append(state)
        seen.add(state)
    head = 0
    while head < len(queue):
        node, position = queue[head]
        head += 1
        if position == len(wanted):
            path: List[Edge] = []
            state = (node, position)
            while state in parents:
                state, edge = parents[state]
                path.append(edge)
            path.reverse()
            return state[0], path
        if node not in space.expanded:
            continue
        for edge in space.edges[node]:
            if wanted[position] in edge.fired:
                succ = (edge.target, position + 1)
            elif not edge.fired:
                succ = (edge.target, position)
            else:
                continue
            if succ not in seen:
                seen.add(succ)
                parents[succ] = ((node, position), edge)
                queue.append(succ)
    return None


def _check_deadline(prop: Deadline, space: ExploredSpace, validator,
                    out: Collector, location: SourceLocation
                    ) -> PropertyVerdict:
    budget = prop.budget
    if budget is None:
        budget = space.chart.events[prop.event].period
    cycles = validator.event_cycles(prop.event)
    if not cycles:
        return PropertyVerdict(
            prop, PROVED,
            f"no event cycle consumes {prop.event!r}; nothing can exceed "
            f"{budget} cycles")
    over = [c for c in cycles if c.length > budget]
    for cycle in over:
        realized = _realize(space, cycle.transition_indices)
        if realized is None:
            continue
        start, path = realized
        trace = (tuple(space.trace_to(start))
                 + tuple(edge.inputs for edge in path))
        witness = Witness(
            property_text=prop.text, kind="deadline", trace=trace,
            expect={"event": prop.event,
                    "transitions": list(cycle.transition_indices),
                    "length": cycle.length, "budget": budget})
        return PropertyVerdict(
            prop, VIOLATED,
            f"cycle {{{', '.join(cycle.states)}}} of length "
            f"{cycle.length} > {budget} is realizable", witness)
    if not space.complete:
        return PropertyVerdict(prop, BOUND_EXHAUSTED, _bound_detail(space))
    worst = None
    for cycle in cycles:  # longest first
        if _realize(space, cycle.transition_indices) is not None:
            worst = cycle
            break
    if over:
        out.emit(
            "PSC612",
            f"deadline {prop.event!r}: {len(over)} heuristic cycle(s) up "
            f"to length {over[0].length} exceed {budget} but none is "
            "realizable in the complete explored space — the estimate "
            "was pessimistic",
            location=location)
    if worst is None:
        detail = (f"no heuristic cycle of {prop.event!r} is realizable; "
                  f"worst case 0 <= {budget}")
    else:
        detail = (f"proven worst realizable cycle "
                  f"{{{', '.join(worst.states)}}} has length "
                  f"{worst.length} <= {budget} "
                  f"(heuristic bound {cycles[0].length})")
    return PropertyVerdict(prop, PROVED, detail)


# ---------------------------------------------------------------------------
# the orchestrator
# ---------------------------------------------------------------------------

def check_system(chart: Chart, source: str, system, *,
                 properties_text: Optional[str] = None,
                 properties_path: Optional[str] = None,
                 depth: int = 40,
                 max_states: int = 20000,
                 include_declared_deadlines: bool = True,
                 chart_path: Optional[str] = None,
                 witness_dir: Optional[str] = None,
                 label: str = "chart",
                 suppress: Sequence[str] = (),
                 enable: Sequence[str] = ()) -> CheckResult:
    """Model-check one built system against its declared properties.

    *system* is the :class:`~repro.flow.build.BuiltSystem` built from
    *chart* and *source*: its front end's typed program gives the
    routines' abstract effects, its machine replays witnesses and its
    validator supplies the heuristic event cycles that deadline properties
    prove or refute.  Raises :class:`ValueError` when *source* is not the
    routine source *system* was built from.
    """
    if source != system.frontend.source:
        raise ValueError("source is not the routine source the system was "
                         "built from")

    out = Collector()
    parsed: ParsedProperties = parse_properties(
        chart, sidecar_text=properties_text,
        sidecar_path=properties_path, chart_path=chart_path)
    out.diagnostics.extend(parsed.diagnostics)

    props: List[Property] = list(parsed.properties)
    if include_declared_deadlines:
        explicit = {p.event for p in props if isinstance(p, Deadline)}
        for event in chart.constrained_events():
            if event.name not in explicit:
                props.append(Deadline(f"deadline {event.name}",
                                      origin=None, line=None,
                                      event=event.name, budget=None))

    if parsed.diagnostics:
        # broken property input: report it, check nothing
        return CheckResult(
            diagnostics=finalize(out.diagnostics, suppress=suppress,
                                 enable=enable),
            verdicts=(), nodes=0, complete=False,
            truncation="property errors")

    actions = abstract_actions(chart, system.frontend.typed)

    explorer = Explorer(system.pla, actions, depth=depth,
                        max_states=max_states)
    space = explorer.explore()

    verdicts: List[PropertyVerdict] = []
    for index, prop in enumerate(props):
        location = prop.location() if prop.origin or prop.line else \
            SourceLocation(file=chart_path, obj=f"property {prop.text!r}")
        if isinstance(prop, NeverWhile):
            verdict = _check_never_while(prop, space)
        elif isinstance(prop, NeverIn):
            verdict = _check_never_in(prop, space)
        elif isinstance(prop, AlwaysReach):
            verdict = _check_always_reach(prop, space)
        elif isinstance(prop, Deadline):
            verdict = _check_deadline(prop, space, system.validator, out,
                                      location)
        else:  # pragma: no cover - parser only builds the four forms
            continue

        if verdict.status == VIOLATED:
            assert verdict.witness is not None
            witness, recorder = replay_witness(system, verdict.witness)
            if witness.replayed:
                if witness_dir is not None:
                    files = write_witness(witness, recorder, witness_dir,
                                          f"{label}.p{index}")
                    verdict.witness_files = files
                    artifact = f" [witness: {os.path.basename(files[0])}]"
                else:
                    artifact = ""
                code = ("PSC611" if isinstance(prop, Deadline)
                        else "PSC602")
                out.emit(
                    code,
                    f"property {prop.text!r} violated: {verdict.detail}; "
                    f"trace of {len(witness.trace)} cycle(s) replayed on "
                    f"the machine ({witness.replay_detail})"
                    f"{artifact}",
                    location=location)
            else:
                verdict.status = UNCONFIRMED
                out.emit(
                    "PSC605",
                    f"property {prop.text!r}: abstract counterexample did "
                    f"not replay ({witness.replay_detail}); the abstraction "
                    "over-approximates routine data",
                    location=location,
                    hint="raise --depth or inspect the routine branches "
                         "the trace depends on")
        if verdict.status == PROVED:
            code = "PSC610" if isinstance(prop, Deadline) else "PSC603"
            out.emit(code,
                     f"property {prop.text!r} proved: {verdict.detail}",
                     location=location)
        elif verdict.status == BOUND_EXHAUSTED:
            out.emit(
                "PSC604",
                f"property {prop.text!r} undecided: {verdict.detail}; "
                f"explored {len(space.nodes)} state(s)",
                location=location,
                hint="raise --depth/--max-states for a verdict")
        verdicts.append(verdict)

    return CheckResult(
        diagnostics=finalize(out.diagnostics, suppress=suppress,
                             enable=enable),
        verdicts=tuple(verdicts),
        nodes=len(space.nodes),
        complete=space.complete,
        truncation=space.truncation,
        space=space)
