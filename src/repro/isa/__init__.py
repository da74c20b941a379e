"""The TEP instruction set: architecture configs, ISA, microcode, assembler,
code generation, WCET analysis and the code-level optimizations.

Public API::

    from repro.isa import (
        ArchConfig, MINIMAL_TEP, MD16_TEP, CodeGenerator, prepare_program,
        cycle_cost, microprogram, assemble,
    )
"""

from repro.isa.arch import (
    ArchConfig,
    CustomInstruction,
    MAX_CUSTOM_DEPTH,
    MD16_TEP,
    MINIMAL_TEP,
    StorageClass,
)
from repro.isa.assembler import (
    AsmError,
    AssembledProgram,
    assemble,
    emit_text,
    parse_text,
    resolve_labels,
)
from repro.isa.codegen import (
    Allocator,
    CodegenError,
    CodeGenerator,
    CodeObject,
    CompiledProgram,
    NameMaps,
    VarLoc,
    prepare_program,
    required_helpers,
)
from repro.isa.cost import (
    Block,
    Branch,
    CallCost,
    CostNode,
    FixedCost,
    Loop,
    Seq,
    routine_wcets,
)
from repro.isa.isa import (
    ALU_OPS,
    BRANCH_FUSED_OPS,
    CONTROL_TRANSFERS,
    Imm,
    Instruction,
    IsaError,
    JUMP_OPS,
    LabelRef,
    Mem,
    MULDIV_OPS,
    Op,
    PortRef,
    Reg,
    SHIFT_OPS,
    SIGNAL_OPS,
    SignalRef,
    check_legal,
    encode,
    encoded_length,
    program_size_words,
)
from repro.isa.microcode import (
    DecoderRom,
    Group,
    MicroOp,
    TABLE1_FORMAT,
    cycle_cost,
    format_table1,
    microprogram,
)
from repro.isa.patterns import (
    CustomCandidate,
    PatternSite,
    evaluate_signature,
    expression_depth,
    expression_signature,
    find_comparator_sites,
    find_custom_candidates,
    find_negation_sites,
    is_fusable,
    leaf_variables,
)
from repro.isa.peephole import (
    count_redundant_jumps,
    optimize_microprogram,
)

__all__ = [
    "ALU_OPS", "Allocator", "ArchConfig", "AsmError", "AssembledProgram",
    "BRANCH_FUSED_OPS", "Block", "Branch", "CONTROL_TRANSFERS", "CallCost",
    "CodeGenerator", "CodeObject", "CodegenError", "CompiledProgram",
    "CostNode", "CustomCandidate", "CustomInstruction", "DecoderRom",
    "FixedCost", "Group", "Imm", "Instruction", "IsaError", "JUMP_OPS",
    "LabelRef", "Loop", "MAX_CUSTOM_DEPTH", "MD16_TEP", "MINIMAL_TEP",
    "MULDIV_OPS", "Mem", "MicroOp", "NameMaps", "Op", "PatternSite",
    "PortRef", "Reg", "SHIFT_OPS", "SIGNAL_OPS", "Seq", "SignalRef",
    "StorageClass", "TABLE1_FORMAT", "VarLoc", "assemble", "check_legal",
    "count_redundant_jumps", "cycle_cost", "emit_text", "encode",
    "encoded_length", "evaluate_signature", "expression_depth",
    "expression_signature", "find_comparator_sites",
    "find_custom_candidates", "find_negation_sites", "format_table1",
    "is_fusable", "leaf_variables", "microprogram",
    "optimize_microprogram", "parse_text", "prepare_program",
    "program_size_words", "required_helpers", "resolve_labels",
    "routine_wcets",
]
