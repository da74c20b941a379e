"""Tests for pattern detection and the microcode peephole (section 4)."""

import pytest

from repro.action import parse_program
from repro.isa import (
    Imm,
    Instruction,
    Mem,
    MINIMAL_TEP,
    Op,
    count_redundant_jumps,
    evaluate_signature,
    expression_depth,
    expression_signature,
    find_comparator_sites,
    find_custom_candidates,
    find_negation_sites,
    is_fusable,
    leaf_variables,
    microprogram,
    optimize_microprogram,
)
from repro.isa.microcode import RETURN_TO_FETCH


def expr_of(text, params="int:16 a, int:16 b, int:16 c"):
    program = parse_program(f"void f({params}) {{ a = {text}; }}")
    return program.function("f").body[0].value


class TestSignatures:
    def test_variables_numbered_by_first_use(self):
        assert expression_signature(expr_of("a + b")) == "(v0+v1)"
        assert expression_signature(expr_of("b + a")) == "(v0+v1)"

    def test_repeated_variable_distinct_from_two_variables(self):
        assert expression_signature(expr_of("a + a")) == "(v0+v0)"
        assert expression_signature(expr_of("a + a")) != \
            expression_signature(expr_of("a + b"))

    def test_constants_baked_in(self):
        assert expression_signature(expr_of("a << 2")) == "(v0<<c2)"
        assert expression_signature(expr_of("a << 3")) != \
            expression_signature(expr_of("a << 2"))

    def test_non_fusable_returns_none(self):
        assert expression_signature(expr_of("a * b")) is None
        assert expression_signature(expr_of("a == b")) is None

    def test_unary_signatures(self):
        assert expression_signature(expr_of("-(a ^ b)")) == "(-(v0^v1))"
        assert expression_signature(expr_of("~a")) == "(~v0)"

    def test_depth(self):
        assert expression_depth(expr_of("a")) == 0
        assert expression_depth(expr_of("a + b")) == 1
        assert expression_depth(expr_of("(a + b) << 1")) == 2

    def test_leaf_variables_order(self):
        assert leaf_variables(expr_of("b + (a & b)")) == ["b", "a"]


class TestSignatureEvaluation:
    @pytest.mark.parametrize("text,operands,expected", [
        ("a + b", [10, 20], 30),
        ("a - b", [10, 3], 7),
        ("(a + b) << 1", [10, 20], 60),
        ("a ^ (b | 12)", [0xF0, 0x03], 0xF0 ^ (0x03 | 12)),
        ("-(a)", [5], (-5) & 0xFF),
        ("~a", [0], 0xFF),
        ("(a >> 2) + 1", [40], 11),
        ("a + a", [7], 14),
    ])
    def test_evaluate_matches_python(self, text, operands, expected):
        signature = expression_signature(expr_of(text))
        assert signature is not None
        assert evaluate_signature(signature, operands, 0xFF) == expected & 0xFF

    def test_fusable_limits(self):
        assert is_fusable(expr_of("(a + b) ^ c"), max_operands=3)
        assert not is_fusable(expr_of("(a + b) ^ c"), max_operands=2)
        # single-operator expressions are not worth fusing
        assert not is_fusable(expr_of("a + b"), max_operands=2)


class TestSiteDiscovery:
    PROGRAM = """
    int:16 x;
    int:16 y;
    void f(int:16 a, int:16 b) {
      if (a == b) { x = a; } else { x = b; }
      x = -x;
      y = (a + b) << 1;
      y = (a + b) << 1;
      y = a ^ (b & 255);
    }
    """

    def test_comparator_sites(self):
        sites = find_comparator_sites(parse_program(self.PROGRAM))
        assert len(sites) == 1
        assert sites[0].kind == "comparator"
        assert "==" in sites[0].detail

    def test_negation_sites(self):
        sites = find_negation_sites(parse_program(self.PROGRAM))
        assert len(sites) == 1
        assert "x = -x" in sites[0].detail

    def test_custom_candidates_ranked_and_deduplicated(self):
        from repro.action import check_program
        program = parse_program(self.PROGRAM)
        check_program(program)  # annotate types
        candidates = find_custom_candidates(program, max_operands=2)
        signatures = [c.signature for c in candidates]
        assert "((v0+v1)<<c1)" in signatures
        # the duplicated expression counts twice
        best = next(c for c in candidates if c.signature == "((v0+v1)<<c1)")
        assert best.occurrences == 2
        assert candidates == sorted(candidates,
                                    key=lambda c: c.estimated_saving,
                                    reverse=True)

    def test_candidate_to_instruction(self):
        from repro.action import check_program
        program = parse_program(self.PROGRAM)
        check_program(program)
        candidate = find_custom_candidates(program)[0]
        custom = candidate.to_instruction(0)
        assert custom.signature == candidate.signature
        assert custom.depth <= 4


class TestMicrocodePeephole:
    def test_removes_trailing_return_jump(self):
        ops = microprogram(Instruction(Op.ADD, Mem(0)), MINIMAL_TEP)
        assert ops[-1] == RETURN_TO_FETCH
        optimized = optimize_microprogram(ops, fetch_address=0)
        assert len(optimized) == len(ops) - 1
        assert optimized[-1].next_address == 0

    def test_idempotent(self):
        ops = microprogram(Instruction(Op.ADD, Mem(0)), MINIMAL_TEP)
        once = optimize_microprogram(ops)
        twice = optimize_microprogram(once)
        assert [(o.group, o.signal) for o in once] == \
            [(o.group, o.signal) for o in twice]

    def test_count_redundant_jumps(self):
        programs = [microprogram(Instruction(Op.NOP), MINIMAL_TEP),
                    microprogram(Instruction(Op.ADD, Imm(1)), MINIMAL_TEP)]
        assert count_redundant_jumps(programs) == 2
        optimized = [optimize_microprogram(p) for p in programs]
        assert count_redundant_jumps(optimized) == 0

    def test_matches_arch_flag_costs(self):
        """The peephole's effect equals the optimized-arch microprograms."""
        arch_opt = MINIMAL_TEP.with_(microcode_optimized=True)
        for instr in [Instruction(Op.LDA, Imm(1)),
                      Instruction(Op.ADD, Mem(0)),
                      Instruction(Op.TRET)]:
            manual = optimize_microprogram(microprogram(instr, MINIMAL_TEP))
            auto = microprogram(instr, arch_opt)
            assert len(manual) == len(auto)
