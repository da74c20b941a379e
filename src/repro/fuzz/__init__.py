"""Differential chart fuzzing: seeded generation, multi-rung oracle,
ordered stage attribution and a delta-debugging shrinker.

The fuzzer closes the loop the ROADMAP's "differential fuzzing" item asks
for: random-but-well-formed hierarchical charts with *real* action routines
are run through the reference :class:`~repro.statechart.semantics.Interpreter`
and the full :class:`~repro.pscp.machine.PscpMachine` at every improvement-
ladder rung (plus a snapshot/restore continuation and a delta-chain
reconstruction).  The stages run in ladder order up to the first divergence,
whose stage is the guilty one, and the chart is shrunk to a minimal
reproducer.

Public API::

    from repro.fuzz import (
        ChartSpec, GeneratorConfig, generate_spec, render_chart,
        render_source, SpecEvaluator, OracleHarness, FuzzCampaign,
    )
"""

from repro.fuzz.generator import (
    ChartSpec,
    GeneratorConfig,
    RoutineSpec,
    StateSpec,
    TransitionSpec,
    VarSpec,
    event_trace,
    generate_spec,
    render_chart,
    render_label,
    render_source,
    spec_from_json,
    spec_to_json,
)
from repro.fuzz.reference import EvaluationError, SpecEvaluator
from repro.fuzz.oracle import (
    CanaryMutation,
    Divergence,
    OracleHarness,
    OracleResult,
    RoundTripError,
    apply_mutation,
    plant_canary,
)
from repro.fuzz.shrink import shrink_spec, spec_size
from repro.fuzz.campaign import (
    FUZZ_REPORT_VERSION,
    ChartOutcome,
    FuzzCampaign,
    FuzzReport,
    replay_corpus,
)

__all__ = [
    "CanaryMutation",
    "ChartOutcome",
    "ChartSpec",
    "Divergence",
    "EvaluationError",
    "FUZZ_REPORT_VERSION",
    "FuzzCampaign",
    "FuzzReport",
    "GeneratorConfig",
    "OracleHarness",
    "OracleResult",
    "RoundTripError",
    "RoutineSpec",
    "SpecEvaluator",
    "StateSpec",
    "TransitionSpec",
    "VarSpec",
    "apply_mutation",
    "event_trace",
    "generate_spec",
    "plant_canary",
    "render_chart",
    "render_label",
    "render_source",
    "replay_corpus",
    "shrink_spec",
    "spec_from_json",
    "spec_size",
    "spec_to_json",
]
