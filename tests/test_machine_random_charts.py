"""Property test: the full PSCP machine agrees with the reference
interpreter on randomly generated charts.

Chart generation is delegated to :mod:`repro.fuzz.generator` — the same
seeded vocabulary the differential fuzz campaigns use — so the property
test and the fuzzer exercise one grammar.  Hypothesis's role here is
reduced to drawing generator seeds (plus shrinking towards small ones);
the heavy lifting (well-formed hierarchy, lint-clean routines, range-safe
arithmetic) lives in the generator itself.

The full-effects test runs the baseline rung of the oracle's stage stack
(machine vs. interpreter+SpecEvaluator on configurations, fired indices,
conditions, ports and globals); the effect-free test keeps the historical
shape-only property alive on the cheaper no-routines mode.
"""

from hypothesis import given, settings, strategies as st

from repro.fuzz import GeneratorConfig, OracleHarness, generate_spec, render_chart

SHAPE_CONFIG = GeneratorConfig(effects=False)

seeds = st.integers(0, 2**32 - 1)


class TestMachineMatchesInterpreterOnRandomCharts:
    @settings(max_examples=20, deadline=None)
    @given(seeds, st.integers(5, 25))
    def test_baseline_machine_agrees(self, seed, cycles):
        """Machine and interpreter agree per-cycle on every observable
        field, with real action routines executing on both sides."""
        spec = generate_spec(seed)
        harness = OracleHarness(spec, cycles=cycles, max_rungs=1)
        result = harness.run_all()
        assert result.clean, result.divergence.describe()

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.integers(5, 20))
    def test_effect_free_shapes_agree(self, seed, cycles):
        """The historical shape-only property: empty routines, pure
        configuration/firing agreement."""
        spec = generate_spec(seed, SHAPE_CONFIG)
        harness = OracleHarness(spec, cycles=cycles, max_rungs=1)
        result = harness.run_all()
        assert result.clean, result.divergence.describe()

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_sla_size_reasonable(self, seed):
        """Synthesis never explodes on these shapes."""
        from repro.sla import synthesize

        chart = render_chart(generate_spec(seed, SHAPE_CONFIG))
        pla = synthesize(chart)
        # each transition contributes at most a few products (guards are
        # single literals in the generated vocabulary)
        assert pla.product_terms <= 4 * max(1, len(chart.transitions))
