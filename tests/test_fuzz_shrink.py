"""Delta-debugging shrinker: minimality, bug preservation, robustness."""

from repro.fuzz import (
    OracleHarness,
    generate_spec,
    plant_canary,
    shrink_spec,
    spec_size,
    spec_to_json,
)
from repro.fuzz.shrink import shrink_candidates


def canary_case(stage="promote-internal", seeds=range(7919, 7940), cycles=20):
    for seed in seeds:
        spec = generate_spec(seed)
        mutation = plant_canary(spec, stage=stage, cycles=cycles)
        if mutation is None:
            continue
        divergence = _first_divergence(spec, mutation, cycles)
        if divergence is not None:
            return spec, mutation, divergence, cycles
    raise AssertionError("no diverging canary seed found")


def _first_divergence(spec, mutation, cycles):
    harness = OracleHarness(spec, cycles=cycles, mutation=mutation)
    return harness.run_all().divergence


def same_bug_predicate(original, mutation, cycles):
    """True iff the candidate still diverges at the same stage+field."""

    def predicate(candidate):
        divergence = _first_divergence(candidate, mutation, cycles)
        return (divergence is not None
                and divergence.stage == original.stage
                and divergence.field == original.field)

    return predicate


class TestShrinkCandidates:
    def test_candidates_are_strictly_smaller(self):
        spec = generate_spec(1)
        size = spec_size(spec)
        for candidate in shrink_candidates(spec):
            assert spec_size(candidate) < size

    def test_candidates_do_not_mutate_original(self):
        spec = generate_spec(1)
        before = spec_to_json(spec)
        for _ in shrink_candidates(spec):
            pass
        assert spec_to_json(spec) == before

    def test_candidates_never_remove_last_state(self):
        spec = generate_spec(2)
        for candidate in shrink_candidates(spec):
            assert candidate.root.children, "shrink emptied the chart"


class TestShrinkSpec:
    def test_shrink_preserves_the_bug(self):
        spec, mutation, divergence, cycles = canary_case()
        predicate = same_bug_predicate(divergence, mutation, cycles)
        shrunk = shrink_spec(spec, predicate)
        assert predicate(shrunk), "shrunk chart lost the divergence"
        assert spec_size(shrunk) <= spec_size(spec)

    def test_shrunk_chart_is_one_minimal(self):
        """1-minimality (satellite 5): no single further removal keeps
        the divergence — every candidate of the shrunk spec fails the
        predicate."""
        spec, mutation, divergence, cycles = canary_case()
        predicate = same_bug_predicate(divergence, mutation, cycles)
        shrunk = shrink_spec(spec, predicate)
        for candidate in shrink_candidates(shrunk):
            try:
                still_bad = predicate(candidate)
            except Exception:
                still_bad = False
            assert not still_bad, "shrink stopped before a fixpoint"

    def test_predicate_exceptions_count_as_false(self):
        spec = generate_spec(3)

        def explode(candidate):
            raise RuntimeError("predicate crash")

        shrunk = shrink_spec(spec, explode)
        assert spec_to_json(shrunk) == spec_to_json(spec)

    def test_max_steps_bounds_work(self):
        spec = generate_spec(4)
        # an always-true predicate would shrink to the floor; max_steps=1
        # stops after a single accepted removal (the first candidate drops
        # exactly one transition)
        shrunk = shrink_spec(spec, lambda c: True, max_steps=1)
        assert spec_size(shrunk) == spec_size(spec) - 1
