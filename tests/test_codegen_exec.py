"""Differential tests: compiled TEP code vs. Python reference semantics.

These tests compile intermediate-C routines for several architectures and
execute them on the TEP simulator, checking results and the invariant that
measured cycles never exceed the static WCET.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.action.check import Externals
from repro.isa import (
    ArchConfig,
    CodeGenerator,
    CustomInstruction,
    MD16_TEP,
    MINIMAL_TEP,
    NameMaps,
    StorageClass,
    prepare_program,
)
from repro.pscp.tep import ProgramImage, SimplePorts, Tep, TepError

ARCHS = [
    MINIMAL_TEP,
    MINIMAL_TEP.with_(name="opt8", microcode_optimized=True),
    MD16_TEP,
    MD16_TEP.with_(name="full16", microcode_optimized=True,
                   has_comparator=True, has_negator=True,
                   has_barrel_shifter=True, register_file_size=4),
]


def run_function(source, function, args=(), arch=MD16_TEP, externals=None,
                 ports=None, globals_out=(), max_cycles=2_000_000):
    """Compile *source*, run *function* with *args*, return results.

    Returns (return value or None, dict of requested globals, cycles, tep,
    compiled).
    """
    checked = prepare_program(source, arch, externals)
    maps = (NameMaps.from_externals(externals) if externals is not None
            else None)
    compiled = CodeGenerator(checked, arch, maps=maps).compile()
    tep = Tep(ProgramImage.link(arch, compiled.flat_instructions()),
              ports=ports)
    tep.load_memory(compiled.allocator.initial_values)
    fn = checked.program.function(function)
    for param, value in zip(fn.params, args):
        loc = compiled.allocator.locations[f"{function}.{param.name}"]
        tep.write_variable(loc, value)
    cycles = tep.run(function, max_cycles=max_cycles)
    result = None
    ret_key = f"{function}.__ret"
    if ret_key in compiled.allocator.locations:
        result = tep.read_variable(compiled.allocator.locations[ret_key])
    globals_values = {name: tep.read_variable(compiled.allocator.locations[name])
                      for name in globals_out}
    wcets = compiled.wcets()
    assert cycles <= wcets[function], (
        f"measured {cycles} exceeds WCET {wcets[function]} on {arch.name}")
    return result, globals_values, cycles, tep, compiled


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
class TestArithmeticAcrossArchitectures:
    def test_add_sub(self, arch):
        src = "int:16 f(int:16 a, int:16 b) { return a + b - 3; }"
        result, *_ = run_function(src, "f", (1000, 234), arch)
        assert result == 1231

    def test_multiply(self, arch):
        src = "int:16 f(int:16 a, int:16 b) { return a * b; }"
        result, *_ = run_function(src, "f", (123, 45), arch)
        assert result == 5535

    def test_divide_and_mod(self, arch):
        src = """
        int:16 f(int:16 a, int:16 b) { return a / b; }
        int:16 g(int:16 a, int:16 b) { return a % b; }
        """
        result, *_ = run_function(src, "f", (1234, 7), arch)
        assert result == 176
        result, *_ = run_function(src, "g", (1234, 7), arch)
        assert result == 2

    def test_bitwise(self, arch):
        src = "int:16 f(int:16 a, int:16 b) { return (a & b) | (a ^ 255); }"
        result, *_ = run_function(src, "f", (0x1234, 0x00FF), arch)
        assert result == (0x1234 & 0x00FF) | (0x1234 ^ 255)

    def test_shifts_by_constant(self, arch):
        src = "int:16 f(int:16 a) { return (a << 3) + (a >> 2); }"
        result, *_ = run_function(src, "f", (100,), arch)
        assert result == (100 << 3) + (100 >> 2)

    def test_shift_by_variable(self, arch):
        src = "int:16 f(int:16 a, int:16 n) { return a << n; }"
        result, *_ = run_function(src, "f", (3, 5), arch)
        assert result == 96

    def test_negate(self, arch):
        src = "int:16 f(int:16 a) { int:16 x; x = a; x = -x; return x + 500; }"
        result, *_ = run_function(src, "f", (123,), arch)
        assert result == 377

    def test_eight_bit_values(self, arch):
        src = "int:8 f(int:8 a, int:8 b) { return a + b; }"
        result, *_ = run_function(src, "f", (100, 27), arch)
        assert result == 127


class TestControlFlow:
    def test_if_else(self):
        src = """
        int:16 f(int:16 a) {
          if (a > 10) { return a - 10; }
          else { return 10 - a; }
        }
        """
        assert run_function(src, "f", (25,))[0] == 15
        assert run_function(src, "f", (3,))[0] == 7

    def test_if_without_else(self):
        src = "int:16 f(int:16 a) { if (a == 0) { a = 99; } return a; }"
        assert run_function(src, "f", (0,))[0] == 99
        assert run_function(src, "f", (5,))[0] == 5

    def test_elif_chain(self):
        src = """
        int:16 f(int:16 a) {
          if (a == 0) { return 100; }
          else if (a == 1) { return 200; }
          else { return 300; }
        }
        """
        assert run_function(src, "f", (0,))[0] == 100
        assert run_function(src, "f", (1,))[0] == 200
        assert run_function(src, "f", (2,))[0] == 300

    @pytest.mark.parametrize("op,cases", [
        ("==", [(5, 5, 1), (5, 6, 0)]),
        ("!=", [(5, 5, 0), (5, 6, 1)]),
        ("<", [(4, 5, 1), (5, 5, 0), (6, 5, 0)]),
        ("<=", [(4, 5, 1), (5, 5, 1), (6, 5, 0)]),
        (">", [(6, 5, 1), (5, 5, 0), (4, 5, 0)]),
        (">=", [(6, 5, 1), (5, 5, 1), (4, 5, 0)]),
    ])
    def test_all_comparisons(self, op, cases):
        src = f"int:16 f(int:16 a, int:16 b) {{ if (a {op} b) {{ return 1; }} return 0; }}"
        for a, b, expected in cases:
            assert run_function(src, "f", (a, b))[0] == expected, (a, op, b)

    def test_comparisons_with_negative_values(self):
        src = "int:16 f(int:16 a, int:16 b) { if (a < b) { return 1; } return 0; }"
        assert run_function(src, "f", (-5, 3))[0] == 1
        assert run_function(src, "f", (3, -5))[0] == 0

    def test_logical_and_or(self):
        src = """
        int:16 f(int:16 a, int:16 b) {
          if (a > 0 && b > 0) { return 1; }
          if (a > 0 || b > 0) { return 2; }
          return 3;
        }
        """
        assert run_function(src, "f", (1, 1))[0] == 1
        assert run_function(src, "f", (1, 0))[0] == 2
        assert run_function(src, "f", (0, 0))[0] == 3

    def test_logical_not(self):
        src = "int:16 f(int:16 a) { if (!(a == 3)) { return 1; } return 0; }"
        assert run_function(src, "f", (4,))[0] == 1
        assert run_function(src, "f", (3,))[0] == 0

    def test_while_loop(self):
        src = """
        int:16 f(int:16 n) {
          int:16 total = 0;
          @bound(20) while (n > 0) { total = total + n; n = n - 1; }
          return total;
        }
        """
        assert run_function(src, "f", (10,))[0] == 55

    def test_loop_exceeding_bound_is_wcet_violation_not_crash(self):
        # the WCET is computed from @bound; the simulator still runs the
        # real iteration count — here bound is honest so both agree
        src = """
        int:16 f(int:16 n) {
          int:16 i = 0;
          @bound(5) while (i < n) { i = i + 1; }
          return i;
        }
        """
        assert run_function(src, "f", (5,))[0] == 5

    def test_bool_condition_variable(self):
        src = """
        int:16 f(int:16 a) {
          bool big = a > 100;
          if (big) { return 1; }
          return 0;
        }
        """
        assert run_function(src, "f", (101,))[0] == 1
        assert run_function(src, "f", (100,))[0] == 0


class TestCallsAndGlobals:
    def test_nested_calls(self):
        src = """
        int:16 square(int:16 x) { return x * x; }
        int:16 f(int:16 a) { return square(a) + square(a + 1); }
        """
        assert run_function(src, "f", (5,))[0] == 25 + 36

    def test_void_function_with_global_effect(self):
        src = """
        int:16 total;
        void add(int:16 x) { total = total + x; }
        void f() { add(3); add(4); add(5); }
        """
        _, globals_values, *_ = run_function(src, "f", (), globals_out=["total"])
        assert globals_values["total"] == 12

    def test_global_initializer(self):
        src = """
        int:16 base = 1000;
        int:16 f() { return base + 1; }
        """
        assert run_function(src, "f")[0] == 1001

    def test_call_in_expression_position(self):
        src = """
        int:16 two() { return 2; }
        int:16 f(int:16 a) { return a * two() + two(); }
        """
        assert run_function(src, "f", (10,))[0] == 22

    def test_call_side_effects_both_happen(self):
        # Like C, operand evaluation order is unspecified (the accumulator
        # scheme evaluates the non-simple right operand first); both call
        # side effects must still occur exactly once.
        src = """
        int:16 log;
        int:16 mark(int:16 x) { log = log * 10 + x; return x; }
        void f() { int:16 t; t = mark(1) + mark(2); }
        """
        _, globals_values, *_ = run_function(src, "f", (), globals_out=["log"])
        assert globals_values["log"] in (12, 21)


class TestAggregates:
    def test_array_constant_index(self):
        src = """
        int:16 buf[4];
        void f() { buf[0] = 10; buf[3] = 40; }
        int:16 g() { return buf[0] + buf[3]; }
        """
        checkedless = run_function(src + "", "f", ())
        # run both functions on one machine
        _, _, _, tep, compiled = checkedless
        tep.run("g")
        ret = compiled.allocator.locations["g.__ret"]
        assert tep.read_variable(ret) == 50

    def test_array_dynamic_index(self):
        src = """
        int:16 buf[8];
        void fill() {
          int:16 i = 0;
          @bound(8) while (i < 8) { buf[i] = i * i; i = i + 1; }
        }
        int:16 get(int:16 i) { return buf[i]; }
        """
        _, _, _, tep, compiled = run_function(src, "fill", ())
        for index in range(8):
            loc = compiled.allocator.locations["get.i"]
            tep.write_variable(loc, index)
            tep.run("get")
            assert tep.read_variable(
                compiled.allocator.locations["get.__ret"]) == index * index

    def test_struct_fields(self):
        src = """
        typedef struct pt { int:16 x; int:16 y; } Point;
        Point p;
        void f(int:16 a) { p.x = a; p.y = a * 2; }
        int:16 g() { return p.x + p.y; }
        """
        _, _, _, tep, compiled = run_function(src, "f", (7,))
        tep.run("g")
        assert tep.read_variable(compiled.allocator.locations["g.__ret"]) == 21

    def test_array_of_structs(self):
        src = """
        typedef struct m { int:16 pos; int:16 vel; } Motor;
        Motor motors[3];
        void f() {
          motors[1].pos = 100;
          motors[1].vel = 5;
          motors[2].pos = 200;
        }
        int:16 g() { return motors[1].pos + motors[1].vel + motors[2].pos; }
        """
        _, _, _, tep, compiled = run_function(src, "f", ())
        tep.run("g")
        assert tep.read_variable(compiled.allocator.locations["g.__ret"]) == 305


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
class TestCheckedPrograms:
    """Shapes the checker admits, each built and run on the TEP."""

    def test_constant_initializers_load_their_c_values(self, arch):
        src = """
        int:16 a = 8 / 2;
        int:16 b = ~1;
        int:16 c = 3 < 4;
        int:16 d = (0 - 7) / 2;
        int:16 e = (1 << 4) % 5 + !0;
        void f() { }
        """
        _, values, *_ = run_function(src, "f", (), arch,
                                     globals_out=("a", "b", "c", "d", "e"))
        assert values == {"a": 4, "b": -2, "c": 1, "d": -3, "e": 2}

    def test_sub_word_elements_take_a_word_each(self, arch):
        src = """
        int:8 small[4];
        bool flags[3];
        int:16 after;
        void f(int:8 i) {
          after = 5;
          small[3] = 9;
          small[i] = 7;
          flags[2] = true;
        }
        int:16 g() { return small[2] + small[3] + flags[2]; }
        """
        _, values, _, tep, compiled = run_function(
            src, "f", (2,), arch, globals_out=("after",))
        assert values == {"after": 5}
        tep.run("g")
        assert tep.read_variable(compiled.allocator.locations["g.__ret"]) == 17

    def test_narrow_element_widens_by_its_sign(self, arch):
        src = """
        int:8 signed_[2];
        uint:8 unsigned_[2];
        int:32 s;
        int:32 u;
        void f(int:8 v) {
          signed_[1] = v;
          unsigned_[1] = 200;
          s = signed_[1];
          u = unsigned_[1];
        }
        """
        _, values, *_ = run_function(src, "f", (-3,), arch,
                                     globals_out=("s", "u"))
        assert values == {"s": -3, "u": 200}

    def test_product_into_a_wider_destination(self, arch):
        src = """
        int:8 a = 0 - 7;
        int:8 b = 6;
        int:32 x;
        void f() { x = a * b; }
        """
        _, values, *_ = run_function(src, "f", (), arch, globals_out=("x",))
        assert values == {"x": -42}

    def test_wide_value_written_to_a_port_sends_its_low_word(self, arch):
        externals = Externals(ports={"Out"})
        maps = NameMaps.from_externals(externals)
        ports = SimplePorts({})
        run_function("int:16 w = 300; void f() { Out = w; }", "f", (), arch,
                     externals=externals, ports=ports)
        assert ports.values[maps.ports["Out"]] & 0xFF == 300 & 0xFF

    def test_local_hides_an_enum_member(self, arch):
        src = """
        enum E {r, q};
        int:16 out;
        void f() { int:16 r = 5; out = r; }
        """
        _, values, *_ = run_function(src, "f", (), arch, globals_out=("out",))
        assert values == {"out": 5}

    def test_parameter_hides_an_enum_member(self, arch):
        src = """
        enum E {a, b};
        int:16 out;
        void g(int:16 b) { out = b; }
        void f() { g(7); }
        """
        _, values, *_ = run_function(src, "f", (), arch, globals_out=("out",))
        assert values == {"out": 7}

    def test_helper_locals_hide_an_enum_member(self, arch):
        # without M/D, the division runs in the __div helper, whose
        # locals are named q and r
        src = """
        enum E {q, r};
        int:8 x = 17;
        int:8 y = 5;
        int:8 out;
        void f() { out = x / y; }
        """
        _, values, *_ = run_function(src, "f", (), arch, globals_out=("out",))
        assert values == {"out": 3}


class TestBuiltinsAndPorts:
    EXT = dict(events={"DONE"}, conditions={"READY", "FLAG"},
               ports={"Buffer", "Out"})

    def externals(self):
        return Externals(events=set(self.EXT["events"]),
                         conditions=set(self.EXT["conditions"]),
                         ports=set(self.EXT["ports"]))

    def test_raise_event(self):
        src = "void f() { Raise(DONE); }"
        _, _, _, tep, compiled = run_function(
            src, "f", (), externals=self.externals())
        assert compiled.maps.events["DONE"] in tep.events_raised

    def test_set_and_test_conditions(self):
        src = """
        int:16 f() {
          SetTrue(READY);
          SetFalse(FLAG);
          if (Test(READY)) { return 1; }
          return 0;
        }
        """
        result, _, _, tep, compiled = run_function(
            src, "f", (), externals=self.externals())
        assert result == 1
        assert tep.condition_cache[compiled.maps.conditions["READY"]] is True
        assert tep.condition_cache[compiled.maps.conditions["FLAG"]] is False

    def test_condition_read_as_value(self):
        src = "int:16 f() { if (READY) { return 5; } return 6; }"
        externals = self.externals()
        checked = prepare_program(src, MD16_TEP, externals)
        compiled = CodeGenerator(checked, MD16_TEP,
                                 maps=NameMaps.from_externals(externals)).compile()
        tep = Tep(ProgramImage.link(MD16_TEP,
                                    compiled.flat_instructions()))
        tep.condition_cache[compiled.maps.conditions["READY"]] = True
        tep.run("f")
        assert tep.read_variable(compiled.allocator.locations["f.__ret"]) == 5

    def test_ports_read_write(self):
        src = """
        void f() {
          int:8 v;
          v = ReadPort(Buffer);
          WritePort(Out, v + 1);
        }
        """
        externals = self.externals()
        maps = NameMaps.from_externals(externals)
        ports = SimplePorts({maps.ports["Buffer"]: 41})
        _, _, _, tep, compiled = run_function(
            src, "f", (), externals=externals, ports=ports)
        assert ports.values[maps.ports["Out"]] == 42

    def test_port_as_variable_sugar(self):
        src = "void f() { Out = Buffer + 1; }"
        externals = self.externals()
        maps = NameMaps.from_externals(externals)
        ports = SimplePorts({maps.ports["Buffer"]: 7})
        run_function(src, "f", (), externals=externals, ports=ports)
        assert ports.values[maps.ports["Out"]] == 8


class TestArchitectureSpecificCode:
    def test_comparator_emits_fused_branch(self):
        from repro.isa import Op
        src = "int:16 f(int:16 a) { if (a == 3) { return 1; } return 0; }"
        arch = MD16_TEP.with_(has_comparator=True)
        checked = prepare_program(src, arch)
        compiled = CodeGenerator(checked, arch).compile()
        ops = [i.op for i in compiled.objects["f"].instructions]
        assert Op.CBNE in ops or Op.CBEQ in ops
        # and it still computes the right thing
        assert run_function(src, "f", (3,), arch)[0] == 1
        assert run_function(src, "f", (4,), arch)[0] == 0

    def test_negator_used_when_available(self):
        from repro.isa import Op
        src = "int:16 f(int:16 a) { int:16 x; x = a; x = -x; return x; }"
        arch = MD16_TEP.with_(has_negator=True)
        checked = prepare_program(src, arch)
        compiled = CodeGenerator(checked, arch).compile()
        ops = [i.op for i in compiled.objects["f"].instructions]
        assert Op.NEG in ops
        assert run_function(src, "f", (9,), arch)[0] == -9

    def test_barrel_shifter_collapses_shift_chain(self):
        src = "int:16 f(int:16 a) { return a << 6; }"
        plain = prepare_program(src, MD16_TEP)
        with_barrel = MD16_TEP.with_(has_barrel_shifter=True)
        n_plain = len(CodeGenerator(plain, MD16_TEP).compile()
                      .objects["f"].instructions)
        n_barrel = len(CodeGenerator(
            prepare_program(src, with_barrel), with_barrel).compile()
            .objects["f"].instructions)
        assert n_barrel < n_plain
        assert run_function(src, "f", (3,), with_barrel)[0] == 192

    def test_custom_instruction_used_and_correct(self):
        from repro.isa import Op
        src = "int:16 f(int:16 a, int:16 b) { return (a + b) << 1; }"
        custom = CustomInstruction("fused", "((v0+v1)<<c1)", 2, 2)
        arch = MD16_TEP.with_(custom_instructions=(custom,))
        checked = prepare_program(src, arch)
        compiled = CodeGenerator(checked, arch).compile()
        ops = [i.op for i in compiled.objects["f"].instructions]
        assert Op.CUSTOM in ops
        assert run_function(src, "f", (10, 20), arch)[0] == 60

    def test_custom_instruction_distinguishes_repeated_variable(self):
        src_xx = "int:16 f(int:16 a) { return (a + a) << 1; }"
        custom = CustomInstruction("fused", "((v0+v1)<<c1)", 2, 2)
        arch = MD16_TEP.with_(custom_instructions=(custom,))
        # (a + a) has signature ((v0+v0)<<c1) which must NOT match
        checked = prepare_program(src_xx, arch)
        compiled = CodeGenerator(checked, arch).compile()
        from repro.isa import Op
        ops = [i.op for i in compiled.objects["f"].instructions]
        assert Op.CUSTOM not in ops
        assert run_function(src_xx, "f", (5,), arch)[0] == 20

    def test_storage_promotion_shrinks_wcet(self):
        src = """
        int:16 hot;
        void f() {
          hot = hot + 1;
          hot = hot + 2;
          hot = hot + 3;
        }
        """
        checked = prepare_program(src, MD16_TEP)
        base = CodeGenerator(checked, MD16_TEP).compile().wcets()["f"]
        promoted = CodeGenerator(
            checked, MD16_TEP,
            storage_map={"hot": StorageClass.INTERNAL}).compile().wcets()["f"]
        register = CodeGenerator(
            checked, MD16_TEP.with_(register_file_size=4),
            storage_map={"hot": StorageClass.REGISTER}).compile().wcets()["f"]
        assert register < promoted < base

    def test_microcode_optimization_shrinks_wcet_uniformly(self):
        src = "int:16 f(int:16 a) { return a + a + a; }"
        checked = prepare_program(src, MD16_TEP)
        compiled = CodeGenerator(checked, MD16_TEP).compile()
        unopt = compiled.wcets()["f"]
        opt_arch = MD16_TEP.with_(microcode_optimized=True)
        opt = CodeGenerator(prepare_program(src, opt_arch), opt_arch)\
            .compile().wcets()["f"]
        assert opt < unopt


MASK16 = 0xFFFF


def as_signed16(value):
    value &= MASK16
    return value - 0x10000 if value & 0x8000 else value


@st.composite
def arith_exprs(draw, depth=0):
    """Random arithmetic expressions with their Python evaluators."""
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            value = draw(st.integers(0, 200))
            return str(value), lambda a, b: value
        return ("a", lambda a, b: a) if choice == 1 else ("b", lambda a, b: b)
    op = draw(st.sampled_from(["+", "-", "&", "|", "^"]))
    left_text, left_fn = draw(arith_exprs(depth=depth + 1))
    right_text, right_fn = draw(arith_exprs(depth=depth + 1))
    fn = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
          "&": lambda x, y: x & y, "|": lambda x, y: x | y,
          "^": lambda x, y: x ^ y}[op]

    def evaluate(a, b):
        return fn(left_fn(a, b), right_fn(a, b))

    return f"({left_text} {op} {right_text})", evaluate


class TestDifferential:
    """Property: compiled code matches Python reference semantics."""

    @settings(max_examples=25, deadline=None)
    @given(arith_exprs(), st.integers(0, 1000), st.integers(0, 1000))
    def test_random_expressions_16bit(self, expr, a, b):
        text, reference = expr
        src = f"int:16 f(int:16 a, int:16 b) {{ return {text}; }}"
        result, *_ = run_function(src, "f", (a, b), MD16_TEP)
        expected = as_signed16(reference(a, b))
        assert result == expected, text

    @settings(max_examples=15, deadline=None)
    @given(arith_exprs(), st.integers(0, 255), st.integers(0, 255))
    def test_random_expressions_8bit_bus(self, expr, a, b):
        """Same expressions on the 8-bit minimal TEP (multi-word path)."""
        text, reference = expr
        src = f"int:16 f(int:16 a, int:16 b) {{ return {text}; }}"
        result, *_ = run_function(src, "f", (a, b), MINIMAL_TEP)
        expected = as_signed16(reference(a, b))
        assert result == expected, text

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 255), st.integers(1, 255))
    def test_division_differential(self, a, b):
        src = "int:16 f(int:16 a, int:16 b) { return a / b + a % b; }"
        for arch in (MINIMAL_TEP, MD16_TEP):
            result, *_ = run_function(src, "f", (a, b), arch)
            assert result == a // b + a % b
