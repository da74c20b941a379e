"""Code generation: intermediate C → TEP assembler.

The generator targets the accumulator architecture of section 3.2.  Because
recursion is banned, every function's parameters, locals, temporaries and
return slot live at *static* addresses — the standard technique of the era's
microcontroller compilers, and the reason the paper can derive transition
timings directly from the assembler code.

Values wider than the data bus are handled as little-endian word groups
(an ``int:16`` on the 8-bit basic TEP is two words); arithmetic chains the
carry (``ADC``/``SBC``/``RCL``).  This is where the Table 4 jump from the
8-bit minimal TEP to the 16-bit M/D TEP comes from: the same source compiles
to half the instructions on the wider bus.

Architecture-dependent choices made here:

* ``MUL``/``DIV``/``MOD`` instructions on an M/D calculation unit (operand
  width permitting) vs. calls into generated shift-add runtime routines;
* fused ``CBEQ``/``CBNE`` compare-branches when the comparator ALU style is
  present;
* single ``NEG`` when the two's-complement ALU style is present, else
  ``NOT``+``INC`` chains;
* ``CUSTOM`` instructions for expressions whose signature matches one of the
  architecture's selected custom instructions;
* storage classes per variable (register / internal / external), overridable
  by the improvement loop's promotion ladder.

The output per function is a :class:`CodeObject`: the instruction list plus
the structural WCET tree of :mod:`repro.isa.cost`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from repro.action.ast import (
    ArrayType,
    Assign,
    Binary,
    BinOp,
    BoolLiteral,
    Call,
    COMPARISONS,
    Expr,
    ExprStmt,
    FieldAccess,
    Function,
    If,
    Index,
    IntLiteral,
    IntType,
    NameRef,
    Return,
    Stmt,
    StructType,
    Type,
    Unary,
    UnOp,
    VarDecl,
    VoidType,
    While,
    type_width,
)
from repro.action.check import (
    CheckedProgram,
    CheckError,
    Checker,
    check_program,
)
from repro.action.parser import (
    PREAMBLE_LINES,
    ActionParseError,
    parse_with_preamble,
)
from repro.action.stdlib import is_builtin
from repro.analysis.diag import Diagnostic, Severity, SourceLocation
from repro.isa.arch import ArchConfig, StorageClass
from repro.isa.cost import (
    Block,
    Branch,
    CallCost,
    CostNode,
    Loop,
    Seq,
    routine_wcets,
)
from repro.isa.isa import (
    Imm,
    Instruction,
    LabelRef,
    Mem,
    Op,
    Operand,
    PortRef,
    Reg,
    SignalRef,
)
from repro.isa.patterns import (
    expression_signature,
    leaf_variables,
)

#: struct types that are architecture directives, not data (section 2:
#: "these code pieces are not actually executed")
DIRECTIVE_STRUCTS = {"Port", "EventCondition", "port", "ec"}


class CodegenError(Exception):
    """Raised when source cannot be compiled for the given architecture."""


# ---------------------------------------------------------------------------
# name maps: chart signals and ports -> hardware indices
# ---------------------------------------------------------------------------

@dataclass
class NameMaps:
    """Signal indices (CR layout) and port addresses for builtins."""

    events: Dict[str, int] = field(default_factory=dict)
    conditions: Dict[str, int] = field(default_factory=dict)
    ports: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_chart(cls, chart) -> "NameMaps":
        """Enumerate the chart's signals in CR order and its ports by their
        declared addresses (auto-assigned from 0x700 when absent, echoing
        the address range of Fig. 2b)."""
        maps = cls()
        for index, name in enumerate(chart.events):
            maps.events[name] = index
        for index, name in enumerate(chart.conditions):
            maps.conditions[name] = index
        next_address = 0x700
        for port in chart.ports.values():
            if port.address is not None:
                maps.ports[port.name] = port.address
            else:
                maps.ports[port.name] = next_address
            next_address = max(next_address, maps.ports[port.name]) + 1
        return maps

    @classmethod
    def from_externals(cls, externals) -> "NameMaps":
        maps = cls()
        for index, name in enumerate(sorted(externals.events)):
            maps.events[name] = index
        for index, name in enumerate(sorted(externals.conditions)):
            maps.conditions[name] = index
        for index, name in enumerate(sorted(externals.ports)):
            maps.ports[name] = 0x700 + index
        return maps


# ---------------------------------------------------------------------------
# storage allocation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarLoc:
    """The static location of one scalar value: one operand per bus word,
    low word first."""

    name: str
    words: Tuple[Operand, ...]
    width: int
    signed: bool = True

    @property
    def n_words(self) -> int:
        return len(self.words)

    def word(self, index: int) -> Operand:
        return self.words[index]


class Allocator:
    """Assigns static addresses in the three storage tiers.

    Defaults follow the unoptimized flow: globals in external RAM,
    everything function-local in internal RAM.  ``storage_map`` overrides
    per-variable classes (keys: ``"name"`` for globals, ``"func.name"`` for
    locals/params); the improvement ladder's Load/Store promotion step
    rewrites this map.
    """

    def __init__(self, arch: ArchConfig,
                 storage_map: Optional[Dict[str, StorageClass]] = None) -> None:
        self.arch = arch
        self.storage_map = dict(storage_map or {})
        self.next_register = 0
        self.next_internal = 0
        self.next_external = 0
        self.locations: Dict[str, VarLoc] = {}
        #: initial memory values (word address space keyed by storage class)
        self.initial_values: List[Tuple[Operand, int]] = []

    def _take(self, storage: StorageClass, words: int) -> List[Operand]:
        if storage is StorageClass.REGISTER:
            if words > 1 or self.next_register >= self.arch.register_file_size:
                # no room (or too wide) in the register file: spill to the
                # next tier silently — promotion is best-effort
                return self._take(StorageClass.INTERNAL, words)
            index = self.next_register
            self.next_register += 1
            return [Reg(index)]
        if storage is StorageClass.INTERNAL:
            if self.next_internal + words > self.arch.internal_ram_words:
                return self._take(StorageClass.EXTERNAL, words)
            base = self.next_internal
            self.next_internal += words
            return [Mem(base + i, StorageClass.INTERNAL) for i in range(words)]
        base = self.next_external
        self.next_external += words
        return [Mem(base + i, StorageClass.EXTERNAL) for i in range(words)]

    def allocate(self, qualified: str, typ: Type,
                 default: StorageClass) -> VarLoc:
        if qualified in self.locations:
            return self.locations[qualified]
        width = type_width(typ)
        words = self.arch.words_for(width)
        storage = self.storage_map.get(qualified, default)
        operands = self._take(storage, words)
        signed = getattr(typ, "signed", True)
        loc = VarLoc(qualified, tuple(operands), width, signed)
        self.locations[qualified] = loc
        return loc


# ---------------------------------------------------------------------------
# compiled artifacts
# ---------------------------------------------------------------------------

@dataclass
class CodeObject:
    """One compiled routine."""

    name: str
    instructions: List[Instruction]
    cost: CostNode
    entry_label: str
    wcet_override: Optional[int] = None


@dataclass
class CompiledProgram:
    """All routines of a program compiled for one architecture."""

    arch: ArchConfig
    objects: Dict[str, CodeObject]
    allocator: Allocator
    maps: NameMaps
    call_order: List[str]
    #: enum member values (transition stubs resolve action arguments here)
    enum_values: Dict[str, int] = field(default_factory=dict)
    #: per-routine worst-case cycles, evaluated once when the program is
    #: compiled (the code and the architecture are fixed from then on)
    _wcets: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        trees = {name: obj.cost for name, obj in self.objects.items()}
        overrides = {name: obj.wcet_override
                     for name, obj in self.objects.items()
                     if obj.wcet_override is not None}
        self._wcets = MappingProxyType(
            routine_wcets(trees, self.call_order, self.arch, overrides))

    def wcets(self) -> Mapping[str, int]:
        """Per-routine worst-case cycles under this program's architecture
        (read-only)."""
        return self._wcets

    def flat_instructions(self) -> List[Instruction]:
        result: List[Instruction] = []
        for name in self.call_order:
            result.extend(self.objects[name].instructions)
        return result


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------

class _Emitter:
    """Collects instructions and the parallel cost tree."""

    def __init__(self) -> None:
        self.instructions: List[Instruction] = []
        self._seq_stack: List[List[CostNode]] = [[]]
        self._block: Block = Block()
        self._pending_label: Optional[str] = None

    # -- instruction emission ------------------------------------------------
    def emit(self, op: Op, operand: Operand = None,
             target: Optional[LabelRef] = None, comment: str = "") -> Instruction:
        instruction = Instruction(op, operand, target,
                                  self._pending_label, comment)
        self._pending_label = None
        # emission-time store/load cleanup: STA x; LDA x -> drop the load
        if (op is Op.LDA and instruction.label is None
                and self.instructions
                and self.instructions[-1].op is Op.STA
                and self.instructions[-1].operand == operand
                and self._block.instructions
                and self._block.instructions[-1] is self.instructions[-1]):
            return self.instructions[-1]
        self.instructions.append(instruction)
        self._block.instructions.append(instruction)
        return instruction

    def place_label(self, label: str) -> None:
        if self._pending_label is not None:
            # two labels on one spot: emit a NOP to carry the first
            self.emit(Op.NOP)
        # emission-time jump cleanup: JMP L directly before placing L
        if (self.instructions and self.instructions[-1].op is Op.JMP
                and isinstance(self.instructions[-1].operand, LabelRef)
                and self.instructions[-1].operand.name == label
                and self.instructions[-1].label is None
                and self._block.instructions
                and self._block.instructions[-1] is self.instructions[-1]):
            dead = self.instructions.pop()
            self._block.instructions.pop()
        self._pending_label = label

    def flush_label(self) -> None:
        """Materialize a pending label onto a NOP (end-of-routine labels)."""
        if self._pending_label is not None:
            self.emit(Op.NOP)

    # -- cost tree -------------------------------------------------------------
    def cut_block(self) -> Block:
        """Close the current block, push it to the sequence, start fresh."""
        finished = self._block
        if finished.instructions:
            self._seq_stack[-1].append(finished)
        self._block = Block()
        return finished

    def push_node(self, node: CostNode) -> None:
        self.cut_block()
        self._seq_stack[-1].append(node)

    def open_seq(self) -> None:
        self.cut_block()
        self._seq_stack.append([])

    def close_seq(self) -> CostNode:
        self.cut_block()
        parts = self._seq_stack.pop()
        return Seq(parts)

    def finish(self) -> CostNode:
        self.flush_label()
        self.cut_block()
        assert len(self._seq_stack) == 1
        return Seq(self._seq_stack[0])


class CodeGenerator:
    """Compiles a checked program for one architecture."""

    def __init__(
        self,
        checked: CheckedProgram,
        arch: ArchConfig,
        maps: Optional[NameMaps] = None,
        storage_map: Optional[Dict[str, StorageClass]] = None,
    ) -> None:
        self.checked = checked
        self.program = checked.program
        self.arch = arch
        self.maps = maps or NameMaps.from_externals(checked.externals)
        self.allocator = Allocator(arch, storage_map)
        self._labels = itertools.count()
        self._enum_values = checked.enum_values()
        self._globals_allocated = False
        self._current: Optional[Function] = None
        self._emitter: Optional[_Emitter] = None
        self._temp_free: List[VarLoc] = []
        self._temp_count = 0

    # ------------------------------------------------------------------
    def new_label(self, hint: str) -> str:
        return f".{hint}{next(self._labels)}"

    # -- allocation ----------------------------------------------------------
    def _allocate_globals(self) -> None:
        if self._globals_allocated:
            return
        self._globals_allocated = True
        for gvar in self.program.globals:
            if (isinstance(gvar.typ, StructType)
                    and gvar.typ.name in DIRECTIVE_STRUCTS):
                continue  # architecture directive, not data
            loc = self.allocator.allocate(gvar.name, gvar.typ,
                                          StorageClass.EXTERNAL)
            if gvar.init is not None:
                value = self._const_value(gvar.init)
                self._record_initial(loc, value)

    def _record_initial(self, loc: VarLoc, value: int) -> None:
        mask = (1 << self.arch.data_width) - 1
        for index, operand in enumerate(loc.words):
            word = (value >> (index * self.arch.data_width)) & mask
            self.allocator.initial_values.append((operand, word))

    def _const_value(self, expr: Expr) -> int:
        if isinstance(expr, IntLiteral):
            return expr.value
        if isinstance(expr, BoolLiteral):
            return int(expr.value)
        if isinstance(expr, NameRef) and expr.name in self._enum_values:
            return self._enum_values[expr.name]
        if isinstance(expr, Unary) and expr.op is UnOp.NEG:
            return -self._const_value(expr.operand)
        if isinstance(expr, Binary):
            left = self._const_value(expr.left)
            right = self._const_value(expr.right)
            folds = {BinOp.ADD: lambda: left + right,
                     BinOp.SUB: lambda: left - right,
                     BinOp.MUL: lambda: left * right,
                     BinOp.SHL: lambda: left << right,
                     BinOp.SHR: lambda: left >> right,
                     BinOp.AND: lambda: left & right,
                     BinOp.OR: lambda: left | right,
                     BinOp.XOR: lambda: left ^ right}
            if expr.op in folds:
                return folds[expr.op]()
        raise CodegenError(f"global initializer must be constant: {expr}")

    def _qualify(self, name: str) -> str:
        assert self._current is not None
        return f"{self._current.name}.{name}"

    def _local_loc(self, name: str, typ: Type) -> VarLoc:
        return self.allocator.allocate(self._qualify(name), typ,
                                       StorageClass.INTERNAL)

    def _lookup_var(self, name: str) -> Optional[VarLoc]:
        qualified = self._qualify(name)
        if qualified in self.allocator.locations:
            return self.allocator.locations[qualified]
        if name in self.allocator.locations:
            return self.allocator.locations[name]
        return None

    # -- temps -------------------------------------------------------------
    def _alloc_temp(self, words: int) -> VarLoc:
        for index, temp in enumerate(self._temp_free):
            if temp.n_words >= words:
                self._temp_free.pop(index)
                return temp
        self._temp_count += 1
        name = f"{self._current.name}.__t{self._temp_count}"
        width = words * self.arch.data_width
        return self.allocator.allocate(name, IntType(min(width, 64)),
                                       StorageClass.INTERNAL)

    def _free_temp(self, temp: VarLoc) -> None:
        self._temp_free.append(temp)

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def compile(self) -> CompiledProgram:
        self._allocate_globals()
        objects: Dict[str, CodeObject] = {}
        for name in self.checked.call_order:
            function = self.program.function(name)
            objects[name] = self._compile_function(function)
        return CompiledProgram(self.arch, objects, self.allocator,
                               self.maps, list(self.checked.call_order),
                               dict(self._enum_values))

    def _compile_function(self, function: Function) -> CodeObject:
        self._current = function
        self._temp_free = []
        emitter = _Emitter()
        self._emitter = emitter

        # static frame: parameters and return slot
        for param in function.params:
            self._local_loc(param.name, param.typ)
        if not isinstance(function.return_type, VoidType):
            self._local_loc("__ret", function.return_type)

        emitter.place_label(function.name)
        for stmt in function.body:
            self._gen_stmt(stmt)
        emitter.flush_label()
        emitter.emit(Op.RET, comment=f"end of {function.name}")
        cost = emitter.finish()
        self._current = None
        self._emitter = None
        return CodeObject(function.name, emitter.instructions, cost,
                          function.name, function.wcet_override)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _gen_stmt(self, stmt: Stmt) -> None:
        e = self._emitter
        assert e is not None
        if isinstance(stmt, VarDecl):
            loc = self._local_loc(stmt.name, stmt.typ)
            if stmt.init is not None:
                self._gen_into(stmt.init, loc)
        elif isinstance(stmt, Assign):
            self._gen_assign(stmt)
        elif isinstance(stmt, If):
            self._gen_if(stmt)
        elif isinstance(stmt, While):
            self._gen_while(stmt)
        elif isinstance(stmt, Return):
            if stmt.value is not None:
                ret = self._lookup_var("__ret")
                assert ret is not None
                self._gen_into(stmt.value, ret)
            e.emit(Op.RET, comment="return")
        elif isinstance(stmt, ExprStmt):
            self._gen_expr_for_effect(stmt.expr)
        else:  # pragma: no cover
            raise CodegenError(f"unknown statement {stmt!r}")

    def _gen_assign(self, stmt: Assign) -> None:
        value: Expr = stmt.value
        if stmt.op is not None:
            value = Binary(stmt.op, stmt.target, stmt.value)
            value.typ = stmt.target.typ or stmt.value.typ
        target = stmt.target
        if isinstance(target, NameRef):
            loc = self._lookup_var(target.name)
            if loc is not None:
                self._gen_into(value, loc)
                return
            if target.name in self.maps.ports:
                self._gen_into_acc(value)
                self._emitter.emit(Op.OUTP, PortRef(self.maps.ports[target.name]),
                                   comment=f"{target.name} <- ACC")
                return
            if target.name in self.maps.conditions:
                raise CodegenError(
                    f"assign to condition {target.name!r}: use SetTrue/SetFalse")
            raise CodegenError(f"cannot assign to {target.name!r}")
        if isinstance(target, (FieldAccess, Index)):
            place = self._resolve_place(target)
            self._gen_into_place(value, place)
            return
        raise CodegenError(f"bad assignment target {target!r}")

    def _gen_if(self, stmt: If) -> None:
        e = self._emitter
        else_label = self.new_label("else")
        end_label = self.new_label("endif")

        e.open_seq()
        self._gen_branch_false(stmt.cond,
                               else_label if stmt.else_body else end_label)
        test = e.close_seq()

        e.open_seq()
        for s in stmt.then_body:
            self._gen_stmt(s)
        if stmt.else_body:
            e.emit(Op.JMP, LabelRef(end_label))
        then_node = e.close_seq()

        e.open_seq()
        if stmt.else_body:
            e.place_label(else_label)
            for s in stmt.else_body:
                self._gen_stmt(s)
        else_node = e.close_seq()

        e.place_label(end_label)
        e.push_node(Branch(test, then_node, else_node))

    def _gen_while(self, stmt: While) -> None:
        e = self._emitter
        loop_label = self.new_label("loop")
        end_label = self.new_label("endloop")

        e.place_label(loop_label)
        e.open_seq()
        self._gen_branch_false(stmt.cond, end_label)
        test = e.close_seq()

        e.open_seq()
        for s in stmt.body:
            self._gen_stmt(s)
        e.emit(Op.JMP, LabelRef(loop_label))
        body = e.close_seq()

        e.place_label(end_label)
        bound = stmt.bound if stmt.bound is not None else 0
        e.push_node(Loop(test, body, bound))

    # ------------------------------------------------------------------
    # places (lvalues with possibly dynamic addressing)
    # ------------------------------------------------------------------
    def _resolve_place(self, expr: Expr):
        """Resolve an lvalue to either a VarLoc (static) or a dynamic place
        (base VarLoc-like info + index expression)."""
        base, word_offset, index_expr, stride = self._peel_place(expr)
        if index_expr is None:
            words = tuple(base.words[word_offset:word_offset +
                          self.arch.words_for(type_width(expr.typ or IntType(16)))])
            if not words:
                raise CodegenError(f"field offset out of range for {expr}")
            return VarLoc(f"{base.name}+{word_offset}", words,
                          type_width(expr.typ or IntType(16)))
        return _DynamicPlace(base, word_offset, index_expr, stride,
                             self.arch.words_for(
                                 type_width(expr.typ or IntType(16))))

    def _peel_place(self, expr: Expr):
        """Return (base VarLoc, static word offset, index expr|None, stride)."""
        if isinstance(expr, NameRef):
            loc = self._lookup_var(expr.name)
            if loc is None:
                raise CodegenError(f"unknown variable {expr.name!r}")
            return loc, 0, None, 0
        if isinstance(expr, FieldAccess):
            base, offset, index_expr, stride = self._peel_place(expr.base)
            base_type = expr.base.typ
            if not isinstance(base_type, StructType):
                raise CodegenError(f"field access on non-struct: {expr}")
            field_offset = 0
            for fname, ftype in base_type.fields:
                if fname == expr.field:
                    break
                field_offset += self.arch.words_for(type_width(ftype))
            return base, offset + field_offset, index_expr, stride
        if isinstance(expr, Index):
            base, offset, index_expr, stride = self._peel_place(expr.base)
            array_type = expr.base.typ
            if not isinstance(array_type, ArrayType):
                raise CodegenError(f"indexing non-array: {expr}")
            element_words = self.arch.words_for(type_width(array_type.element))
            constant = self._try_const(expr.index)
            if constant is not None:
                return base, offset + constant * element_words, index_expr, stride
            if index_expr is not None:
                raise CodegenError(
                    "only one dynamic index per access is supported")
            return base, offset, expr.index, element_words
        raise CodegenError(f"not an lvalue: {expr}")

    def _try_const(self, expr: Expr) -> Optional[int]:
        try:
            return self._const_value(expr)
        except CodegenError:
            return None

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _width_of(self, expr: Expr) -> int:
        return type_width(expr.typ) if expr.typ is not None else 16

    def _words_of(self, expr: Expr) -> int:
        return self.arch.words_for(max(1, self._width_of(expr)))

    def _simple_operand(self, expr: Expr) -> Optional[Operand]:
        """An operand the ALU can source directly (single-word only)."""
        if isinstance(expr, IntLiteral):
            if 0 <= expr.value < (1 << self.arch.data_width):
                return Imm(expr.value)
            return None
        if isinstance(expr, BoolLiteral):
            return Imm(int(expr.value))
        if isinstance(expr, NameRef):
            if expr.name in self._enum_values:
                return Imm(self._enum_values[expr.name])
            loc = self._lookup_var(expr.name)
            if loc is not None and loc.n_words == 1:
                return loc.word(0)
        return None

    def _gen_expr_for_effect(self, expr: Expr) -> None:
        if isinstance(expr, Call):
            self._gen_call(expr, want_value=False)
            return
        # evaluate and discard (may still read a port)
        if self._words_of(expr) == 1:
            self._gen_into_acc(expr)
        else:
            temp = self._alloc_temp(self._words_of(expr))
            self._gen_into(expr, temp)
            self._free_temp(temp)

    # -- single-word path ------------------------------------------------------
    def _gen_into_acc(self, expr: Expr) -> None:
        """Evaluate a single-word expression into ACC."""
        e = self._emitter
        if self._words_of(expr) != 1:
            raise CodegenError(f"multi-word value in single-word context: {expr}")
        operand = self._simple_operand(expr)
        if operand is not None:
            e.emit(Op.LDA, operand, comment=str(expr))
            return
        if isinstance(expr, NameRef):
            name = expr.name
            if name in self.maps.conditions:
                e.emit(Op.CTST, SignalRef(self.maps.conditions[name], name))
                return
            if name in self.maps.ports:
                e.emit(Op.INP, PortRef(self.maps.ports[name]), comment=name)
                return
            raise CodegenError(f"unknown name {name!r}")
        if isinstance(expr, (FieldAccess, Index)):
            place = self._resolve_place(expr)
            self._load_place_word(place, 0)
            return
        if isinstance(expr, Unary):
            self._gen_unary_acc(expr)
            return
        if isinstance(expr, Binary):
            self._gen_binary_acc(expr)
            return
        if isinstance(expr, Call):
            self._gen_call(expr, want_value=True)
            return
        raise CodegenError(f"cannot evaluate {expr!r}")

    def _gen_unary_acc(self, expr: Unary) -> None:
        e = self._emitter
        if expr.op is UnOp.NEG:
            self._gen_into_acc(expr.operand)
            if self.arch.has_negator:
                e.emit(Op.NEG, comment="two's complement (negator ALU)")
            else:
                e.emit(Op.NOT)
                e.emit(Op.INC, comment="two's complement by NOT+INC")
            return
        if expr.op is UnOp.BNOT:
            self._gen_into_acc(expr.operand)
            e.emit(Op.NOT)
            return
        if expr.op is UnOp.LNOT:
            self._materialize_bool(expr)
            return
        raise CodegenError(f"unknown unary {expr.op}")

    _ALU_FOR_BINOP = {
        BinOp.ADD: Op.ADD, BinOp.SUB: Op.SUB, BinOp.AND: Op.AND,
        BinOp.OR: Op.ORR, BinOp.XOR: Op.XOR,
    }

    def _gen_binary_acc(self, expr: Binary) -> None:
        e = self._emitter
        if expr.op in COMPARISONS or expr.op in (BinOp.LAND, BinOp.LOR):
            self._materialize_bool(expr)
            return

        custom = self._try_custom(expr)
        if custom:
            return

        if expr.op in (BinOp.SHL, BinOp.SHR):
            self._gen_shift_acc(expr)
            return

        if expr.op in (BinOp.MUL, BinOp.DIV, BinOp.MOD):
            self._gen_muldiv(expr, single_word=True, dest=None)
            return

        alu_op = self._ALU_FOR_BINOP.get(expr.op)
        if alu_op is None:
            raise CodegenError(f"unsupported operator {expr.op}")
        right_operand = self._simple_operand(expr.right)
        if right_operand is not None:
            self._gen_into_acc(expr.left)
            e.emit(alu_op, right_operand, comment=str(expr.op.value))
            return
        temp = self._alloc_temp(1)
        self._gen_into_acc(expr.right)
        e.emit(Op.STA, temp.word(0))
        self._gen_into_acc(expr.left)
        e.emit(alu_op, temp.word(0), comment=str(expr.op.value))
        self._free_temp(temp)

    def _gen_shift_acc(self, expr: Binary) -> None:
        e = self._emitter
        amount = self._try_const(expr.right)
        if amount is None:
            # variable shift amount: runtime helper
            self._gen_runtime_shift(expr)
            return
        self._gen_into_acc(expr.left)
        op = Op.SHL if expr.op is BinOp.SHL else Op.SHR
        if amount == 0:
            return
        if self.arch.has_barrel_shifter and amount > 1:
            wide = Op.SHLN if expr.op is BinOp.SHL else Op.SHRN
            e.emit(wide, Imm(amount), comment=f"barrel shift {amount}")
            return
        for _ in range(amount):
            e.emit(op)

    def _gen_runtime_shift(self, expr: Binary,
                           dest: Optional[VarLoc] = None) -> None:
        width = 8 if self._width_of(expr) <= 8 else (
            16 if self._width_of(expr) <= 16 else 32)
        name = f"__{'shl' if expr.op is BinOp.SHL else 'shr'}{width}"
        self._gen_helper_call(name, [expr.left, expr.right], expr, dest=dest)

    def _gen_muldiv(self, expr: Binary, single_word: bool,
                    dest: Optional[VarLoc] = None) -> None:
        e = self._emitter
        width = self._width_of(expr)
        if (self.arch.has_muldiv and width <= self.arch.data_width
                and single_word):
            op = {BinOp.MUL: Op.MUL, BinOp.DIV: Op.DIV,
                  BinOp.MOD: Op.MOD}[expr.op]
            right_operand = self._simple_operand(expr.right)
            if right_operand is not None:
                self._gen_into_acc(expr.left)
                e.emit(op, right_operand, comment="M/D calculation unit")
                return
            temp = self._alloc_temp(1)
            self._gen_into_acc(expr.right)
            e.emit(Op.STA, temp.word(0))
            self._gen_into_acc(expr.left)
            e.emit(op, temp.word(0), comment="M/D calculation unit")
            self._free_temp(temp)
            return
        helper_width = 8 if width <= 8 else (16 if width <= 16 else 32)
        name = {BinOp.MUL: "mul", BinOp.DIV: "div",
                BinOp.MOD: "mod"}[expr.op]
        self._gen_helper_call(f"__{name}{helper_width}",
                              [expr.left, expr.right], expr, dest=dest)

    def _gen_helper_call(self, name: str, args: List[Expr],
                         context: Expr, dest: Optional[VarLoc] = None) -> None:
        """Call a generated runtime helper (must exist in the program)."""
        try:
            self.program.function(name)
        except KeyError:
            raise CodegenError(
                f"runtime helper {name!r} is required for {context} on "
                f"{self.arch.name}; run prepare_program() first") from None
        call = Call(name, args)
        call.typ = context.typ
        self._gen_call(call, want_value=True, dest=dest)

    def _try_custom(self, expr: Expr) -> bool:
        """Emit a CUSTOM instruction if the expression matches one."""
        if not self.arch.custom_instructions:
            return False
        if self._words_of(expr) != 1:
            return False
        signature = expression_signature(expr)
        if signature is None:
            return False
        custom = self.arch.custom_by_signature(signature)
        if custom is None:
            return False
        leaves = leaf_variables(expr)
        # non-variable leaves are baked into the unit; variables must fit
        # the datapath sources: ACC, OP, then registers
        if len(leaves) > 2 + self.arch.register_file_size:
            return False
        e = self._emitter
        index = self.arch.custom_instructions.index(custom)
        loaders = [Op.LDA, Op.LDO]
        for position, leaf in enumerate(leaves):
            operand = self._simple_operand(NameRef(leaf))
            if operand is None:
                loc = self._lookup_var(leaf)
                if loc is None or loc.n_words != 1:
                    return False
                operand = loc.word(0)
            if position < 2:
                e.emit(loaders[position], operand, comment=f"custom src {leaf}")
            else:
                e.emit(Op.LDA, operand)
                e.emit(Op.STA, Reg(position - 2))
        e.emit(Op.CUSTOM, Imm(index),
               comment=f"{custom.name}: {expr}")
        return True

    # -- bool materialization / branches ---------------------------------------
    def _materialize_bool(self, expr: Expr) -> None:
        """Leave 1 in ACC if *expr* is true else 0."""
        e = self._emitter
        false_label = self.new_label("bfalse")
        end_label = self.new_label("bend")
        self._gen_branch_false(expr, false_label)
        e.emit(Op.LDA, Imm(1))
        e.emit(Op.JMP, LabelRef(end_label))
        e.place_label(false_label)
        e.emit(Op.LDA, Imm(0))
        e.place_label(end_label)

    def _gen_branch_false(self, cond: Expr, label: str) -> None:
        """Branch to *label* when *cond* is false; fall through when true."""
        e = self._emitter
        if isinstance(cond, BoolLiteral):
            if not cond.value:
                e.emit(Op.JMP, LabelRef(label))
            return
        if isinstance(cond, Unary) and cond.op is UnOp.LNOT:
            self._gen_branch_true(cond.operand, label)
            return
        if isinstance(cond, Binary) and cond.op is BinOp.LAND:
            self._gen_branch_false(cond.left, label)
            self._gen_branch_false(cond.right, label)
            return
        if isinstance(cond, Binary) and cond.op is BinOp.LOR:
            through = self.new_label("or")
            self._gen_branch_true(cond.left, through)
            self._gen_branch_false(cond.right, label)
            e.place_label(through)
            return
        if isinstance(cond, Binary) and cond.op in COMPARISONS:
            self._gen_comparison_branch(cond, label, invert=True)
            return
        self._gen_truthiness(cond)
        e.emit(Op.JZ, LabelRef(label))

    def _gen_branch_true(self, cond: Expr, label: str) -> None:
        e = self._emitter
        if isinstance(cond, BoolLiteral):
            if cond.value:
                e.emit(Op.JMP, LabelRef(label))
            return
        if isinstance(cond, Unary) and cond.op is UnOp.LNOT:
            self._gen_branch_false(cond.operand, label)
            return
        if isinstance(cond, Binary) and cond.op is BinOp.LOR:
            self._gen_branch_true(cond.left, label)
            self._gen_branch_true(cond.right, label)
            return
        if isinstance(cond, Binary) and cond.op is BinOp.LAND:
            through = self.new_label("and")
            self._gen_branch_false(cond.left, through)
            self._gen_branch_true(cond.right, label)
            e.place_label(through)
            return
        if isinstance(cond, Binary) and cond.op in COMPARISONS:
            self._gen_comparison_branch(cond, label, invert=False)
            return
        self._gen_truthiness(cond)
        e.emit(Op.JNZ, LabelRef(label))

    def _gen_truthiness(self, expr: Expr) -> None:
        """Set the Z flag from an integer/bool expression's value."""
        e = self._emitter
        words = self._words_of(expr)
        if words == 1:
            self._gen_into_acc(expr)
            e.emit(Op.CMP, Imm(0), comment="truth test")
            return
        temp = self._alloc_temp(words)
        self._gen_into(expr, temp)
        e.emit(Op.LDA, temp.word(0))
        for index in range(1, words):
            e.emit(Op.ORR, temp.word(index))
        e.emit(Op.CMP, Imm(0), comment="truth test (multi-word)")
        self._free_temp(temp)

    def _gen_comparison_branch(self, cond: Binary, label: str,
                               invert: bool) -> None:
        """Branch on a comparison.  ``invert=True`` branches when false."""
        e = self._emitter
        op = cond.op
        left, right = cond.left, cond.right
        words = max(self._words_of(left), self._words_of(right))

        # fused comparator: single-word EQ/NE between simple operands
        if (self.arch.has_comparator and words == 1
                and op in (BinOp.EQ, BinOp.NE)
                and self._simple_operand(right) is not None):
            self._gen_into_acc(left)
            branch_false = op is BinOp.EQ
            fused = Op.CBNE if branch_false == invert else Op.CBEQ
            e.emit(fused, self._simple_operand(right), LabelRef(label),
                   comment="comparator ALU style")
            return

        if words == 1:
            self._single_word_compare_branch(op, left, right, label, invert)
        else:
            self._multi_word_compare_branch(op, left, right, label, invert,
                                            words)

    def _single_word_compare_branch(self, op: BinOp, left: Expr, right: Expr,
                                    label: str, invert: bool) -> None:
        e = self._emitter
        # normalize GT/LE by swapping operands (expressions are side-effect
        # free apart from calls, whose order we accept changing)
        if op in (BinOp.GT, BinOp.LE):
            op = BinOp.LT if op is BinOp.GT else BinOp.GE
            left, right = right, left
        right_operand = self._simple_operand(right)
        if right_operand is None:
            temp = self._alloc_temp(1)
            self._gen_into_acc(right)
            e.emit(Op.STA, temp.word(0))
            self._gen_into_acc(left)
            e.emit(Op.CMP, temp.word(0))
            self._free_temp(temp)
        else:
            self._gen_into_acc(left)
            e.emit(Op.CMP, right_operand)
        target = LabelRef(label)
        if op is BinOp.EQ:
            e.emit(Op.JNZ if invert else Op.JZ, target)
        elif op is BinOp.NE:
            e.emit(Op.JZ if invert else Op.JNZ, target)
        elif op is BinOp.LT:
            e.emit(Op.JP if invert else Op.JN, target)
        elif op is BinOp.GE:
            e.emit(Op.JN if invert else Op.JP, target)
        else:  # pragma: no cover
            raise CodegenError(f"unexpected comparison {op}")

    def _multi_word_compare_branch(self, op: BinOp, left: Expr, right: Expr,
                                   label: str, invert: bool,
                                   words: int) -> None:
        e = self._emitter
        left_loc = self._force_loc(left, words)
        right_loc = self._force_loc(right, words)
        target = LabelRef(label)
        if op in (BinOp.EQ, BinOp.NE):
            branch_on_mismatch = (op is BinOp.EQ) == invert
            if branch_on_mismatch:
                for index in range(words):
                    e.emit(Op.LDA, left_loc.word(index))
                    e.emit(Op.CMP, right_loc.word(index))
                    e.emit(Op.JNZ, target)
            else:
                through = self.new_label("cmp")
                for index in range(words):
                    e.emit(Op.LDA, left_loc.word(index))
                    e.emit(Op.CMP, right_loc.word(index))
                    e.emit(Op.JNZ, LabelRef(through))
                e.emit(Op.JMP, target)
                e.place_label(through)
            return
        if op in (BinOp.GT, BinOp.LE):
            op = BinOp.LT if op is BinOp.GT else BinOp.GE
            left_loc, right_loc = right_loc, left_loc
        # left - right, keep only the final (sign) word's N flag
        e.emit(Op.LDA, left_loc.word(0))
        e.emit(Op.SUB, right_loc.word(0))
        for index in range(1, words):
            e.emit(Op.LDA, left_loc.word(index))
            e.emit(Op.SBC, right_loc.word(index))
        if op is BinOp.LT:
            e.emit(Op.JP if invert else Op.JN, target)
        else:  # GE
            e.emit(Op.JN if invert else Op.JP, target)

    # -- general (multi-word capable) path --------------------------------------
    def _force_loc(self, expr: Expr, words: int) -> VarLoc:
        """Get a VarLoc holding *expr*'s value (evaluating if necessary)."""
        if isinstance(expr, NameRef):
            loc = self._lookup_var(expr.name)
            if loc is not None and loc.n_words >= words:
                return loc
        constant = self._try_const(expr)
        if constant is not None:
            temp = self._alloc_temp(words)
            self._store_constant(constant, temp, words)
            return temp
        temp = self._alloc_temp(words)
        self._gen_into(expr, temp)
        return temp

    def _store_constant(self, value: int, loc: VarLoc, words: int) -> None:
        e = self._emitter
        mask = (1 << self.arch.data_width) - 1
        for index in range(words):
            word = (value >> (index * self.arch.data_width)) & mask
            e.emit(Op.LDA, Imm(word))
            e.emit(Op.STA, loc.word(index), comment=f"const {value} w{index}")

    def _copy(self, source: VarLoc, dest: VarLoc, words: int) -> None:
        e = self._emitter
        for index in range(min(words, source.n_words)):
            e.emit(Op.LDA, source.word(index))
            e.emit(Op.STA, dest.word(index))
        if words <= source.n_words:
            return
        # widening: sign-extend signed sources, zero-extend unsigned ones
        if source.signed:
            e.emit(Op.LDA, source.word(source.n_words - 1))
            e.emit(Op.SHL, comment="sign bit -> carry")
            e.emit(Op.LDA, Imm(0))
            e.emit(Op.SBC, Imm(0), comment="0 or all-ones fill word")
        else:
            e.emit(Op.LDA, Imm(0), comment="zero-extend")
        for index in range(source.n_words, words):
            e.emit(Op.STA, dest.word(index))

    def _gen_into(self, expr: Expr, dest: VarLoc) -> None:
        """Evaluate *expr* into the (possibly multi-word) location *dest*."""
        e = self._emitter
        words = dest.n_words
        expr_words = self._words_of(expr)

        if expr_words == 1 and words == 1:
            self._gen_into_acc(expr)
            e.emit(Op.STA, dest.word(0))
            return

        constant = self._try_const(expr)
        if constant is not None:
            self._store_constant(constant, dest, words)
            return

        if isinstance(expr, NameRef):
            loc = self._lookup_var(expr.name)
            if loc is None:
                # conditions/ports are single-word; store then zero-extend
                self._gen_into_acc(expr)
                e.emit(Op.STA, dest.word(0))
                for index in range(1, words):
                    e.emit(Op.LDA, Imm(0))
                    e.emit(Op.STA, dest.word(index))
                return
            self._copy(loc, dest, words)
            return

        if isinstance(expr, (FieldAccess, Index)):
            place = self._resolve_place(expr)
            for index in range(words):
                self._load_place_word(place, index)
                e.emit(Op.STA, dest.word(index))
            return

        if isinstance(expr, Call):
            self._gen_call(expr, want_value=True, dest=dest)
            return

        if isinstance(expr, Unary):
            self._gen_unary_into(expr, dest)
            return

        if isinstance(expr, Binary):
            self._gen_binary_into(expr, dest)
            return

        # single-word value into a wider destination
        if expr_words == 1:
            self._gen_into_acc(expr)
            e.emit(Op.STA, dest.word(0))
            for index in range(1, words):
                e.emit(Op.LDA, Imm(0))
                e.emit(Op.STA, dest.word(index))
            return
        raise CodegenError(f"cannot evaluate {expr!r} into {dest.name}")

    def _gen_unary_into(self, expr: Unary, dest: VarLoc) -> None:
        e = self._emitter
        words = dest.n_words
        if words == 1:
            self._gen_into_acc(expr)
            e.emit(Op.STA, dest.word(0))
            return
        if expr.op is UnOp.LNOT:
            self._materialize_bool(expr)
            e.emit(Op.STA, dest.word(0))
            for index in range(1, words):
                e.emit(Op.LDA, Imm(0))
                e.emit(Op.STA, dest.word(index))
            return
        source = self._force_loc(expr.operand, words)
        if expr.op is UnOp.BNOT:
            for index in range(words):
                e.emit(Op.LDA, source.word(index))
                e.emit(Op.NOT)
                e.emit(Op.STA, dest.word(index))
            return
        # NEG: 0 - x with borrow chain
        e.emit(Op.LDA, Imm(0))
        e.emit(Op.SUB, source.word(0), comment="negate low word")
        e.emit(Op.STA, dest.word(0))
        for index in range(1, words):
            e.emit(Op.LDA, Imm(0))
            e.emit(Op.SBC, source.word(index))
            e.emit(Op.STA, dest.word(index))

    _MULTIWORD_CHAIN = {
        BinOp.ADD: (Op.ADD, Op.ADC),
        BinOp.SUB: (Op.SUB, Op.SBC),
        BinOp.AND: (Op.AND, Op.AND),
        BinOp.OR: (Op.ORR, Op.ORR),
        BinOp.XOR: (Op.XOR, Op.XOR),
    }

    def _gen_binary_into(self, expr: Binary, dest: VarLoc) -> None:
        e = self._emitter
        words = dest.n_words
        if words == 1:
            self._gen_into_acc(expr)
            e.emit(Op.STA, dest.word(0))
            return
        if expr.op in COMPARISONS or expr.op in (BinOp.LAND, BinOp.LOR):
            self._materialize_bool(expr)
            e.emit(Op.STA, dest.word(0))
            for index in range(1, words):
                e.emit(Op.LDA, Imm(0))
                e.emit(Op.STA, dest.word(index))
            return
        if expr.op in (BinOp.MUL, BinOp.DIV, BinOp.MOD):
            self._gen_muldiv(expr, single_word=False, dest=dest)
            return
        if expr.op in (BinOp.SHL, BinOp.SHR):
            self._gen_multiword_shift(expr, dest)
            return
        chain = self._MULTIWORD_CHAIN.get(expr.op)
        if chain is None:
            raise CodegenError(f"unsupported multi-word operator {expr.op}")
        first_op, rest_op = chain
        left = self._force_loc(expr.left, words)
        right = self._force_loc(expr.right, words)
        for index in range(words):
            e.emit(Op.LDA, left.word(index) if index < left.n_words else Imm(0))
            operand = (right.word(index) if index < right.n_words else Imm(0))
            e.emit(first_op if index == 0 else rest_op, operand,
                   comment=f"{expr.op.value} word {index}")
            e.emit(Op.STA, dest.word(index))

    def _gen_multiword_shift(self, expr: Binary, dest: VarLoc) -> None:
        e = self._emitter
        words = dest.n_words
        amount = self._try_const(expr.right)
        if amount is None:
            self._gen_runtime_shift(expr, dest=dest)
            return
        source = self._force_loc(expr.left, words)
        self._copy(source, dest, words)
        for _ in range(amount):
            if expr.op is BinOp.SHL:
                e.emit(Op.LDA, dest.word(0))
                e.emit(Op.SHL)
                e.emit(Op.STA, dest.word(0))
                for index in range(1, words):
                    e.emit(Op.LDA, dest.word(index))
                    e.emit(Op.RCL, comment="carry into next word")
                    e.emit(Op.STA, dest.word(index))
            else:
                e.emit(Op.LDA, dest.word(words - 1))
                e.emit(Op.SHR)
                e.emit(Op.STA, dest.word(words - 1))
                for index in range(words - 2, -1, -1):
                    e.emit(Op.LDA, dest.word(index))
                    e.emit(Op.RCR, comment="carry into next word")
                    e.emit(Op.STA, dest.word(index))

    # -- dynamic places ---------------------------------------------------------
    def _load_place_word(self, place, word_index: int) -> None:
        """Load one word of a place into ACC."""
        e = self._emitter
        if isinstance(place, VarLoc):
            e.emit(Op.LDA, place.word(word_index))
            return
        assert isinstance(place, _DynamicPlace)
        self._gen_place_index(place)
        base = place.base_word(word_index, self.arch)
        e.emit(Op.LDI, base, comment=f"{place.base.name}[dyn]+{word_index}")

    def _store_place_word(self, place, word_index: int) -> None:
        """Store ACC into one word of a place (ACC must hold the value)."""
        e = self._emitter
        if isinstance(place, VarLoc):
            e.emit(Op.STA, place.word(word_index))
            return
        assert isinstance(place, _DynamicPlace)
        temp = self._alloc_temp(1)
        e.emit(Op.STA, temp.word(0), comment="save value around index calc")
        self._gen_place_index(place)
        e.emit(Op.LDA, temp.word(0))
        base = place.base_word(word_index, self.arch)
        e.emit(Op.STI, base, comment=f"{place.base.name}[dyn]+{word_index}")
        self._free_temp(temp)

    def _gen_place_index(self, place: "_DynamicPlace") -> None:
        """Compute the dynamic word offset into OP.

        The OP register is one data-bus word wide, so only the low word of a
        wider index expression is used — address spaces are well under 2^8
        words, so a sane program never indexes beyond it.
        """
        e = self._emitter
        if self._words_of(place.index_expr) > 1:
            loc = self._force_loc(place.index_expr,
                                  self._words_of(place.index_expr))
            e.emit(Op.LDA, loc.word(0), comment="index low word")
        else:
            self._gen_into_acc(place.index_expr)
        if place.stride > 1:
            # index * stride via shift-adds (stride is small and static)
            stride = place.stride
            if stride & (stride - 1) == 0:
                shifts = stride.bit_length() - 1
                for _ in range(shifts):
                    e.emit(Op.SHL, comment="index * stride")
            else:
                temp = self._alloc_temp(1)
                e.emit(Op.STA, temp.word(0))
                for _ in range(stride - 1):
                    e.emit(Op.ADD, temp.word(0), comment="index * stride")
                self._free_temp(temp)
        e.emit(Op.TAO, comment="index -> OP")

    def _gen_into_place(self, expr: Expr, place) -> None:
        if isinstance(place, VarLoc):
            self._gen_into(expr, place)
            return
        words = place.value_words
        temp = self._alloc_temp(words)
        self._gen_into(expr, temp)
        for index in range(words):
            self._emitter.emit(Op.LDA, temp.word(index))
            self._store_place_word(place, index)
        self._free_temp(temp)

    # -- calls -------------------------------------------------------------------
    def _gen_call(self, call: Call, want_value: bool,
                  dest: Optional[VarLoc] = None) -> None:
        e = self._emitter
        if is_builtin(call.name):
            self._gen_builtin(call)
            return
        callee = self.program.function(call.name)
        # marshal arguments into the callee's static parameter slots
        for param, arg in zip(callee.params, call.args):
            slot = self.allocator.allocate(f"{callee.name}.{param.name}",
                                           param.typ, StorageClass.INTERNAL)
            self._gen_into(arg, slot)
        e.emit(Op.CALL, LabelRef(callee.name), comment=f"call {call.name}")
        e.push_node(CallCost(callee.name))
        if want_value and not isinstance(callee.return_type, VoidType):
            ret = self.allocator.allocate(f"{callee.name}.__ret",
                                          callee.return_type,
                                          StorageClass.INTERNAL)
            if dest is not None:
                self._copy(ret, dest, dest.n_words)
            else:
                e.emit(Op.LDA, ret.word(0), comment=f"{call.name} result")

    def _gen_builtin(self, call: Call) -> None:
        e = self._emitter
        name = call.name
        if name == "Raise":
            event = call.args[0].name
            e.emit(Op.EVSET, SignalRef(self.maps.events[event], event),
                   comment=f"raise {event}")
        elif name == "SetTrue":
            condition = call.args[0].name
            e.emit(Op.CSET, SignalRef(self.maps.conditions[condition], condition))
        elif name == "SetFalse":
            condition = call.args[0].name
            e.emit(Op.CCLR, SignalRef(self.maps.conditions[condition], condition))
        elif name == "Test":
            condition = call.args[0].name
            e.emit(Op.CTST, SignalRef(self.maps.conditions[condition], condition))
        elif name == "ReadPort":
            port = call.args[0].name
            e.emit(Op.INP, PortRef(self.maps.ports[port]), comment=port)
        elif name == "WritePort":
            port = call.args[0].name
            self._gen_into_acc(call.args[1])
            e.emit(Op.OUTP, PortRef(self.maps.ports[port]), comment=port)
        else:  # pragma: no cover
            raise CodegenError(f"unknown builtin {name}")


@dataclass
class _DynamicPlace:
    """An lvalue with one dynamic index: ``base[index * stride + offset]``."""

    base: VarLoc
    word_offset: int
    index_expr: Expr
    stride: int
    value_words: int

    def base_word(self, word_index: int, arch: ArchConfig) -> Mem:
        head = self.base.words[0]
        if not isinstance(head, Mem):
            raise CodegenError(
                f"array {self.base.name} must live in RAM, not registers")
        return Mem(head.address + self.word_offset + word_index, head.space)


# ---------------------------------------------------------------------------
# runtime helper generation
# ---------------------------------------------------------------------------

def _runtime_source(name: str, width: int) -> str:
    """Source of a shift-add runtime helper in the action dialect itself.

    Generated helpers use only natively supported operators, so they compile
    on any architecture — including the minimal TEP, where a 16-bit multiply
    becomes the long shift-add loop that blows the Table 4 critical paths.
    """
    t = f"int:{width}"
    if name.startswith("__mul"):
        return f"""
        {t} {name}({t} a, {t} b) {{
          {t} r = 0;
          @bound({width}) while (b != 0) {{
            if (b & 1) {{ r = r + a; }}
            a = a << 1;
            b = b >> 1;
          }}
          return r;
        }}
        """
    if name.startswith("__div") or name.startswith("__mod"):
        want = "q" if name.startswith("__div") else "r"
        return f"""
        {t} {name}({t} a, {t} b) {{
          {t} q = 0;
          {t} r = 0;
          {t} i = {width};
          @bound({width}) while (i != 0) {{
            r = r << 1;
            if (a < 0) {{ r = r | 1; }}
            a = a << 1;
            if (r >= b) {{ r = r - b; q = (q << 1) | 1; }}
            else {{ q = q << 1; }}
            i = i - 1;
          }}
          return {want};
        }}
        """
    if name.startswith("__shl") or name.startswith("__shr"):
        op = "<<" if name.startswith("__shl") else ">>"
        return f"""
        {t} {name}({t} a, {t} n) {{
          @bound({width}) while (n != 0) {{
            a = a {op} 1;
            n = n - 1;
          }}
          return a;
        }}
        """
    raise CodegenError(f"unknown runtime helper {name}")


def required_helpers(program, arch: ArchConfig) -> List[str]:
    """Which runtime helpers the program needs on *arch*."""
    from repro.action.ast import walk_expr, walk_stmts

    needed: List[str] = []

    def note(kind: str, width: int) -> None:
        rounded = 8 if width <= 8 else (16 if width <= 16 else 32)
        name = f"__{kind}{rounded}"
        if name not in needed:
            needed.append(name)

    for function in program.functions:
        if function.name.startswith("__"):
            continue
        for stmt in walk_stmts(function.body):
            for attr in ("value", "init", "cond", "expr"):
                root = getattr(stmt, attr, None)
                if root is None:
                    continue
                for node in walk_expr(root):
                    if not isinstance(node, Binary):
                        continue
                    width = type_width(node.typ) if node.typ else 16
                    if node.op in (BinOp.MUL, BinOp.DIV, BinOp.MOD):
                        if not (arch.has_muldiv and width <= arch.data_width):
                            kind = {BinOp.MUL: "mul", BinOp.DIV: "div",
                                    BinOp.MOD: "mod"}[node.op]
                            note(kind, width)
                    elif node.op in (BinOp.SHL, BinOp.SHR):
                        if not isinstance(node.right, IntLiteral):
                            kind = "shl" if node.op is BinOp.SHL else "shr"
                            note(kind, width)
    return needed


class RoutineFrontend:
    """The routines of one source, parsed and checked once per helper set.

    The helper-free program is parsed and checked on construction, which
    never raises: when the routines do not parse or check,
    :attr:`diagnostics` says why (PSC301 for the parse error, PSC302/PSC303
    per semantic problem, at lines of *source*) and :attr:`typed` raises.
    Its types tell :func:`required_helpers` which runtime helpers an
    architecture needs.  :meth:`checked` parses and checks the
    helper-spliced source once per distinct helper tuple; the empty tuple
    is the helper-free program.
    """

    def __init__(self, source: str, externals=None) -> None:
        self.source = source
        self.externals = externals
        #: why the routines do not parse or check; empty when they do
        self.diagnostics: List[Diagnostic] = []
        self._error: Optional[Exception] = None
        self._by_helpers: Dict[Tuple[str, ...], CheckedProgram] = {}
        try:
            program = parse_with_preamble(source)
        except ActionParseError as exc:
            self._error = ActionParseError(exc.message, _user_line(exc.line))
            self.diagnostics = [Diagnostic(
                code="PSC301", severity=Severity.ERROR,
                message=f"action program does not parse: {self._error}",
                location=SourceLocation(line=self._error.line))]
            return
        checker = Checker(program, externals)
        try:
            self._by_helpers[()] = checker.run()
        except CheckError as exc:
            self._error = exc
            self.diagnostics = [
                replace(d, location=replace(
                    d.location, line=_user_line(d.location.line)))
                for d in checker.diagnostics]

    @property
    def typed(self) -> CheckedProgram:
        """The typed program without runtime helpers.  Raises the
        :class:`~repro.action.parser.ActionParseError` or
        :class:`~repro.action.check.CheckError` of routines that do not
        parse or check."""
        if self._error is not None:
            raise self._error
        return self._by_helpers[()]

    def checked(self, arch: ArchConfig) -> CheckedProgram:
        """The checked program with the runtime helpers *arch* needs.

        Helpers may need other helpers (division uses shifts by 1 only, so
        the closure is a single pass)."""
        helpers = tuple(required_helpers(self.typed.program, arch))
        if helpers not in self._by_helpers:
            spliced = "\n".join(
                [_runtime_source(name, int(name[5:])) for name in helpers]
                + [self.source])
            self._by_helpers[helpers] = check_program(
                parse_with_preamble(spliced), self.externals)
        return self._by_helpers[helpers]


def _user_line(line: Optional[int]) -> Optional[int]:
    """A line of :func:`parse_with_preamble`'s input as a line of the
    user's text; lines inside the preamble stay as they are."""
    if line is not None and line > PREAMBLE_LINES:
        return line - PREAMBLE_LINES
    return line


def prepare_program(source: str, arch: ArchConfig,
                    externals=None) -> CheckedProgram:
    """Parse, splice in required runtime helpers, and check.

    This is the front half of the flow: feed it the application's
    intermediate-C source; hand the result to :class:`CodeGenerator`.
    """
    return RoutineFrontend(source, externals).checked(arch)
