"""The intermediate C dialect for transition routines (Fig. 2b).

Public API::

    from repro.action import parse_program, parse_with_preamble, check_program
"""

from repro.action.ast import (
    ArrayType,
    Assign,
    Binary,
    BinOp,
    BoolLiteral,
    BoolType,
    Call,
    EnumType,
    Expr,
    ExprStmt,
    FieldAccess,
    Function,
    GlobalVar,
    If,
    Index,
    IntLiteral,
    IntType,
    NameRef,
    Param,
    Program,
    Return,
    Stmt,
    StructType,
    Type,
    Unary,
    UnOp,
    VarDecl,
    VoidType,
    While,
    called_functions,
    type_width,
    walk_expr,
    walk_stmts,
)
from repro.action.check import (CheckedProgram, CheckError, Externals,
                                check_program, fold_constant)
from repro.action.lexer import LexError, Token, tokenize
from repro.action.parser import ActionParseError, parse_program, parse_with_preamble
from repro.action.stdlib import BUILTINS, PREAMBLE, is_builtin

__all__ = [
    "ActionParseError", "ArrayType", "Assign", "BUILTINS", "Binary", "BinOp",
    "BoolLiteral", "BoolType", "Call", "CheckError", "CheckedProgram",
    "EnumType", "Expr", "ExprStmt", "Externals", "FieldAccess", "Function",
    "GlobalVar", "If", "Index", "IntLiteral", "IntType", "LexError",
    "NameRef", "PREAMBLE", "Param", "Program", "Return", "Stmt",
    "StructType", "Token", "Type", "Unary", "UnOp", "VarDecl", "VoidType",
    "While", "called_functions", "check_program", "fold_constant",
    "is_builtin",
    "parse_program", "parse_with_preamble", "tokenize", "type_width",
    "walk_expr", "walk_stmts",
]
