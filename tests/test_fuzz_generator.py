"""Generator contract: determinism, lint-cleanliness, round-trips."""

import pytest

from repro.fuzz import (
    GeneratorConfig,
    event_trace,
    generate_spec,
    render_chart,
    render_source,
    spec_from_json,
    spec_to_json,
)
from repro.fuzz.oracle import check_roundtrip
from repro.flow.build import Frontend

SEEDS = list(range(1, 13))


class TestDeterminism:
    def test_same_seed_same_spec(self):
        for seed in SEEDS[:4]:
            assert (spec_to_json(generate_spec(seed))
                    == spec_to_json(generate_spec(seed)))

    def test_same_seed_same_rendering(self):
        from repro.statechart.parser import emit_chart

        for seed in SEEDS[:4]:
            a, b = generate_spec(seed), generate_spec(seed)
            assert emit_chart(render_chart(a)) == emit_chart(render_chart(b))
            assert render_source(a) == render_source(b)

    def test_different_seeds_differ(self):
        docs = {spec_to_json(generate_spec(seed))["name"] is not None
                and str(spec_to_json(generate_spec(seed)))
                for seed in SEEDS}
        assert len(docs) > 1

    def test_event_trace_deterministic(self):
        events = ["E0", "E1", "E2"]
        assert event_trace(5, events, 30) == event_trace(5, events, 30)
        assert event_trace(5, events, 30) != event_trace(6, events, 30)


class TestWellFormed:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lint_error_free(self, seed):
        """The generator's headline guarantee: every chart lints clean."""
        from repro.analysis import lint_system

        spec = generate_spec(seed)
        frontend = Frontend(render_chart(spec), render_source(spec))
        result = lint_system(frontend, frontend.initial_architecture())
        errors = [d for d in result.diagnostics
                  if d.severity.value == "error"]
        assert not errors, [d.format() for d in errors]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_textual_roundtrip(self, seed):
        """parse(emit(chart)) is structurally identical (satellite 2)."""
        check_roundtrip(render_chart(generate_spec(seed)))

    def test_spec_json_roundtrip(self):
        for seed in SEEDS[:6]:
            spec = generate_spec(seed)
            doc = spec_to_json(spec)
            assert spec_to_json(spec_from_json(doc)) == doc

    def test_json_copy_does_not_alias_bodies(self):
        """Serialized documents must not share routine body lists with the
        live spec — the shrinker mutates copies in place (regression for
        the aliasing bug the first canary campaign surfaced)."""
        spec = generate_spec(1)
        copy = spec_from_json(spec_to_json(spec))
        for name, routine in spec.routines.items():
            if routine.body:
                assert copy.routines[name].body is not routine.body

    def test_effect_free_mode(self):
        spec = generate_spec(3, GeneratorConfig(effects=False))
        assert all(not r.body for r in spec.routines.values())

    def test_knobs_bound_size(self):
        # max_states is a soft budget: composite expansion may overshoot
        # by one OR/AND block, never unboundedly
        config = GeneratorConfig(max_states=6, max_extra_transitions=1)
        for seed in SEEDS[:6]:
            spec = generate_spec(seed, config)
            assert len(spec.states()) <= 6 + 8
