"""Deterministic fuzz campaigns with a versioned, byte-stable report.

Mirrors :class:`~repro.fault.campaign.FaultCampaign`: one top-level seed,
per-chart seeds derived as ``seed * 7919 + index``, and a report whose
canonical JSON serialization is byte-identical across same-seed runs (the
CI ``fuzz-smoke`` job runs the campaign twice and ``cmp``s the files).

Per chart the campaign (1) generates a spec, (2) asserts it lints
error-free — the generator's contract, (3) sweeps the oracle's stages in
ladder order up to the first divergence, whose stage is the guilty one,
and on divergence (4) shrinks the spec to a single-removal-minimal
reproducer, recorded in the Fig. 2a textual format for the regression
corpus.

``--canary <stage>`` plants a deliberate retargeting mutation at the named
stage in every chart where one fits; the CI canary job asserts at least
one such mutation is detected, shrinks to ≤ 8 states and is attributed to
exactly the planted stage.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.flow.build import select_initial_architecture
from repro.fuzz.generator import (
    ChartSpec,
    GeneratorConfig,
    generate_spec,
    render_chart,
    render_source,
    spec_from_json,
    spec_to_json,
)
from repro.fuzz.oracle import (
    CanaryMutation,
    Divergence,
    OracleHarness,
    RoundTripError,
    plant_canary,
)
from repro.fuzz.shrink import shrink_spec, spec_size
from repro.statechart.parser import emit_chart

FUZZ_REPORT_VERSION = 1


@dataclass
class ChartOutcome:
    """What happened to one generated chart."""

    index: int
    chart_seed: int
    name: str
    states: int
    transitions: int
    status: str  # clean | diverged | lint-error | roundtrip-error |
    #              canary-unplantable | bmc-mismatch
    stages: List[str] = field(default_factory=list)
    lint_errors: List[str] = field(default_factory=list)
    bmc: Optional[dict] = None
    divergence: Optional[Divergence] = None
    #: the divergence's stage; the report keys ``bisect_verified`` (true:
    #: every earlier stage ran clean) and ``stages_checked`` (stages the
    #: sweep ran) keep their names
    guilty_stage: Optional[str] = None
    bisect_verified: Optional[bool] = None
    stages_checked: Optional[int] = None
    shrunk_states: Optional[int] = None
    shrunk_size: Optional[int] = None
    shrunk_chart: Optional[str] = None
    shrunk_spec: Optional[dict] = None

    def to_json(self) -> dict:
        doc = {
            "index": self.index,
            "chart_seed": self.chart_seed,
            "name": self.name,
            "states": self.states,
            "transitions": self.transitions,
            "status": self.status,
            "stages": list(self.stages),
            "lint_errors": list(self.lint_errors),
            "divergence": (self.divergence.to_json()
                           if self.divergence else None),
            "guilty_stage": self.guilty_stage,
            "bisect_verified": self.bisect_verified,
            "stages_checked": self.stages_checked,
            "shrunk_states": self.shrunk_states,
            "shrunk_size": self.shrunk_size,
            "shrunk_chart": self.shrunk_chart,
            "shrunk_spec": self.shrunk_spec,
        }
        if self.bmc is not None:
            # only present under --bmc, so default reports stay byte-stable
            doc["bmc"] = self.bmc
        return doc


@dataclass
class FuzzReport:
    """The full campaign, canonically serializable."""

    seed: int
    charts: int
    cycles: int
    canary_stage: Optional[str]
    outcomes: List[ChartOutcome] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(o.status in ("clean", "canary-unplantable")
                   for o in self.outcomes)

    def counts(self) -> dict:
        tally: dict = {}
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return tally

    def to_json(self) -> dict:
        return {
            "version": FUZZ_REPORT_VERSION,
            "seed": self.seed,
            "charts": self.charts,
            "cycles": self.cycles,
            "canary_stage": self.canary_stage,
            "counts": self.counts(),
            "outcomes": [outcome.to_json() for outcome in self.outcomes],
        }

    def dumps(self) -> str:
        """Canonical byte-stable serialization (sorted keys, LF-ended)."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        from repro.flow import ascii_table

        rows = [
            (outcome.index, outcome.chart_seed, outcome.states,
             outcome.transitions, outcome.status,
             outcome.divergence.stage if outcome.divergence else "-",
             outcome.guilty_stage or "-",
             outcome.shrunk_states if outcome.shrunk_states is not None
             else "-")
            for outcome in self.outcomes
        ]
        return ascii_table(
            ["#", "Seed", "States", "Trans", "Status", "Diverged at",
             "Guilty stage", "Shrunk states"],
            rows,
            title=(f"Fuzz campaign: seed {self.seed}, "
                   f"{self.charts} chart(s), {self.cycles} cycles"
                   + (f", canary at {self.canary_stage}"
                      if self.canary_stage else "")))


class FuzzCampaign:
    """Seeded differential campaign over generated charts."""

    def __init__(self, seed: int = 1, charts: int = 50, cycles: int = 40,
                 config: Optional[GeneratorConfig] = None,
                 max_rungs: Optional[int] = None,
                 canary_stage: Optional[str] = None,
                 shrink: bool = True,
                 bmc: bool = False) -> None:
        self.seed = seed
        self.charts = charts
        self.cycles = cycles
        self.config = config if config is not None else GeneratorConfig()
        self.max_rungs = max_rungs
        self.canary_stage = canary_stage
        self.shrink = shrink
        self.bmc = bmc

    # ------------------------------------------------------------------
    def run(self) -> FuzzReport:
        report = FuzzReport(seed=self.seed, charts=self.charts,
                            cycles=self.cycles,
                            canary_stage=self.canary_stage)
        for index in range(self.charts):
            chart_seed = self.seed * 7919 + index
            spec = generate_spec(chart_seed, self.config)
            report.outcomes.append(self._run_one(index, chart_seed, spec))
        return report

    def _run_one(self, index: int, chart_seed: int,
                 spec: ChartSpec) -> ChartOutcome:
        outcome = ChartOutcome(
            index=index, chart_seed=chart_seed, name=spec.name,
            states=len(spec.states()), transitions=len(spec.transitions),
            status="clean")

        chart = render_chart(spec)
        source = render_source(spec)
        lint = _lint(chart, source)
        if lint:
            outcome.status = "lint-error"
            outcome.lint_errors = lint
            return outcome

        mutation: Optional[CanaryMutation] = None
        if self.canary_stage is not None:
            mutation = plant_canary(spec, stage=self.canary_stage,
                                    cycles=self.cycles)
            if mutation is None:
                outcome.status = "canary-unplantable"
                return outcome

        harness = OracleHarness(spec, cycles=self.cycles,
                                max_rungs=self.max_rungs,
                                mutation=mutation)
        try:
            result = harness.run_all()
        except RoundTripError as exc:
            outcome.status = "roundtrip-error"
            outcome.lint_errors = [str(exc)]
            return outcome
        outcome.stages = result.stages
        if result.clean:
            if self.bmc:
                outcome.bmc, ok = self._bmc_cross_check(chart, source,
                                                        harness)
                if not ok:
                    outcome.status = "bmc-mismatch"
            return outcome

        outcome.status = "diverged"
        outcome.divergence = result.divergence
        outcome.guilty_stage = result.divergence.stage
        # every stage before the guilty one ran clean in the same sweep
        outcome.bisect_verified = True
        outcome.stages_checked = result.stages_run

        if self.shrink:
            shrunk = shrink_spec(
                spec, self._predicate(outcome.divergence, mutation))
            outcome.shrunk_states = len(shrunk.states())
            outcome.shrunk_size = spec_size(shrunk)
            outcome.shrunk_chart = emit_chart(render_chart(shrunk))
            outcome.shrunk_spec = spec_to_json(shrunk)
        return outcome

    def _predicate(self, original: Divergence,
                   mutation: Optional[CanaryMutation]):
        """"Still the same bug": diverges at the same stage on the same
        field.  A mutated stage's build crash surfaces as ``field="build"``
        and is thereby rejected unless the original divergence was itself a
        build crash; an unmutated rung's build crash raises from
        ``stage_names()``, which the shrinker counts as a rejection."""

        def predicate(candidate: ChartSpec) -> bool:
            harness = OracleHarness(candidate, cycles=self.cycles,
                                    max_rungs=self.max_rungs,
                                    mutation=mutation)
            names = harness.stage_names()
            if original.stage not in names:
                return False
            divergence = harness.run_stage(names.index(original.stage))
            return (divergence is not None
                    and divergence.stage == original.stage
                    and divergence.field == original.field)

        return predicate

    # ------------------------------------------------------------------
    _BMC_MAX_IMPLIED = 12

    def _bmc_cross_check(self, chart, source, harness) -> tuple:
        """Model-check the chart against what we already know is true.

        Three independent probes of the checker (see docs/CHECKING.md):
        implied mutual exclusions (non-co-occupiable state pairs must never
        be reported violated), agreement (every configuration the reference
        interpreter visited must exist in the explored space) and a canary
        (a property over states we *watched* co-occupy must come back
        violated with a machine-replaying witness).  Returns
        ``(json-able summary, ok?)``.
        """
        from repro.analysis.bmc import VIOLATED, check_system
        from repro.analysis.chart_lint import co_occupiable

        summary: dict = {"implied": 0, "implied_violations": [],
                         "agreement_misses": [], "canary": None,
                         "complete": None, "nodes": 0}
        ok = True

        names = sorted(chart.states)
        implied = []
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if not co_occupiable(chart, a, b):
                    implied.append((a, b))
            if len(implied) >= self._BMC_MAX_IMPLIED:
                break
        implied = implied[:self._BMC_MAX_IMPLIED]
        summary["implied"] = len(implied)

        reference = harness.reference_states()
        canary_pair = None
        for state in reference:
            config = [s for s in state.configuration]
            if len(config) >= 2:
                canary_pair = (config[0], config[-1])
                break

        lines = [f"never {a} while {b}" for a, b in implied]
        if canary_pair is not None:
            lines.append(f"never {canary_pair[0]} while {canary_pair[1]}")
        if not lines:
            summary["canary"] = "no-properties"
            return summary, ok

        system = harness.rungs()[0].system
        result = check_system(
            chart, source, system,
            properties_text="\n".join(lines) + "\n",
            depth=self.cycles, max_states=4000,
            include_declared_deadlines=False,
            label=chart.name)
        summary["complete"] = result.complete
        summary["nodes"] = result.nodes

        verdicts = list(result.verdicts)
        canary_verdict = verdicts.pop() if canary_pair is not None else None
        for (a, b), verdict in zip(implied, verdicts):
            # configurations are tracked exactly, so even an *unreplayed*
            # co-occupancy witness would mean the explorer is broken
            if verdict.status == VIOLATED or verdict.witness is not None:
                summary["implied_violations"].append(f"{a}/{b}")
                ok = False

        if result.space is not None and result.complete:
            explored = {(node[0], node[1]) for node in result.space.nodes}
            for cycle, state in enumerate(reference):
                proj = (frozenset(state.configuration),
                        frozenset(name for name, value in state.conditions
                                  if value))
                if proj not in explored:
                    summary["agreement_misses"].append(cycle)
                    ok = False
            summary["agreement_checked"] = len(reference)

        if canary_verdict is None:
            summary["canary"] = "no-pair"
        elif (canary_verdict.status == VIOLATED
                and canary_verdict.witness is not None
                and canary_verdict.witness.replayed):
            summary["canary"] = "violated-replayed"
        elif not result.complete:
            summary["canary"] = "bound-exhausted"
        else:
            summary["canary"] = f"missed ({canary_verdict.status})"
            ok = False
        return summary, ok


def _lint(chart, source) -> List[str]:
    """Error-severity diagnostics for one rendered chart, as strings."""
    from repro.analysis import lint_system

    arch = select_initial_architecture(chart, source)
    result = lint_system(chart, source, arch)
    return [diag.format() for diag in result.diagnostics
            if diag.severity.value == "error"]


# ---------------------------------------------------------------------------
# regression corpus replay
# ---------------------------------------------------------------------------

@dataclass
class ReplayResult:
    name: str
    ok: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def replay_corpus(directory: str,
                  cycles_default: int = 40) -> List[ReplayResult]:
    """Re-run every corpus entry and check its recorded expectation.

    Entry format (one JSON object per ``*.json`` file)::

        {"version": 1, "name": ..., "spec": {...}, "cycles": N,
         "mutation": {...} | null,
         "expect": {"clean": true} | {"stage": ..., "field": ...}}

    One ordered sweep per entry: a clean entry must stay divergence-free
    on every stage; a diverging entry must still be caught first at the
    recorded stage, on the recorded field when one is given.
    """
    results: List[ReplayResult] = []
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".json"):
            continue
        path = os.path.join(directory, filename)
        with open(path) as handle:
            doc = json.load(handle)
        name = doc.get("name", filename)
        spec = spec_from_json(doc["spec"])
        cycles = doc.get("cycles", cycles_default)
        mutation = (CanaryMutation.from_json(doc["mutation"])
                    if doc.get("mutation") else None)
        expect = doc.get("expect", {"clean": True})
        harness = OracleHarness(spec, cycles=cycles, mutation=mutation)
        try:
            ok, detail = _check_expectation(harness.run_all().divergence,
                                            expect)
        except Exception as exc:  # noqa: BLE001 — replay must not abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(ReplayResult(name, ok, detail))
    return results


def _check_expectation(divergence: Optional[Divergence],
                       expect: dict) -> Tuple[bool, str]:
    """``(ok, detail)`` of one corpus entry's sweep against its
    expectation."""
    if expect.get("clean"):
        if divergence is None:
            return True, "clean"
        return False, divergence.describe()
    if divergence is None:
        return False, "expected divergence not reproduced"
    if divergence.stage != expect.get("stage"):
        return False, (f"caught at {divergence.stage!r}, expected "
                       f"{expect.get('stage')!r}")
    if (expect.get("field") is not None
            and divergence.field != expect["field"]):
        return False, (f"diverged on {divergence.field!r}, expected "
                       f"{expect['field']!r}")
    return True, f"caught at {divergence.stage}"
