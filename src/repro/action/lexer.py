"""Tokenizer for the intermediate C dialect.

Handles the paper's notational deviations from C: ``int:16`` width suffixes
(the ``:`` becomes its own token and is consumed by the type parser) and
``B:001011`` binary literals (lexed as one token).  ``0``-prefixed integer
literals are octal, as in the port addresses of Fig. 2b (``0700``, ``0712``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List


class LexError(Exception):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


KEYWORDS = {
    "int", "uint", "bool", "void", "enum", "struct", "typedef",
    "if", "else", "while", "return", "true", "false",
}

#: multi-character operators, longest first so maximal munch works
OPERATORS = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", ":", "@",
]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<binary>B:[01]+)
  | (?P<hex>0[xX][0-9a-fA-F]+)
  | (?P<number>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>""" + "|".join(re.escape(op) for op in OPERATORS) + r""")
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    kind: str   # 'number', 'name', 'keyword', 'op', 'eof'
    value: str
    line: int
    #: numeric value for number tokens
    number: int = 0
    #: base the literal was written in (2, 8, 10, 16)
    base: int = 10


def tokenize(text: str) -> List[Token]:
    """Tokenize *text*; raises :class:`LexError` on unknown characters."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise LexError(f"unexpected character {text[pos]!r}", line)
        value = match.group()
        kind = match.lastgroup or ""
        line += value.count("\n")
        pos = match.end()
        if kind in ("ws", "comment"):
            continue
        if kind == "binary":
            tokens.append(Token("number", value, line,
                                number=int(value[2:], 2), base=2))
        elif kind == "hex":
            tokens.append(Token("number", value, line,
                                number=int(value, 16), base=16))
        elif kind == "number":
            if value.startswith("0") and len(value) > 1:
                # octal, as in the port addresses of Fig. 2b
                tokens.append(Token("number", value, line,
                                    number=int(value, 8), base=8))
            else:
                tokens.append(Token("number", value, line,
                                    number=int(value, 10), base=10))
        elif kind == "name":
            token_kind = "keyword" if value in KEYWORDS else "name"
            tokens.append(Token(token_kind, value, line))
        else:
            tokens.append(Token("op", value, line))
    final_line = tokens[-1].line if tokens else 1
    tokens.append(Token("eof", "", final_line))
    return tokens
