"""Boolean expressions over event and condition names.

Transition labels in the paper use a small boolean language:

* ``INIT or ALLRESET`` (Fig. 6)
* ``not (X_PULSE or Y_PULSE)`` (Fig. 6)
* ``XFINISH and YFINISH and PHIFINISH`` (guard, Fig. 5)

This module provides the AST (:class:`Name`, :class:`Not`, :class:`And`,
:class:`Or`), a recursive-descent parser with the usual precedence
(``not`` > ``and`` > ``or``), evaluation against a set of asserted names, and
conversion to sum-of-products form — the form the SLA synthesizer needs to
emit PLA product terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Tuple


class ExprError(Exception):
    """Raised on malformed expression text."""


class Expr:
    """Base class for boolean expressions."""

    def names(self) -> FrozenSet[str]:
        raise NotImplementedError

    def polarity_names(self) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """(positively occurring, negatively occurring) names.

        A name occurs positively when it sits under an even number of
        negations — asserting it can make the expression true.  The timing
        validator's notion of "consuming" an event only counts positive
        occurrences: ``not (X_PULSE or Y_PULSE)`` *reacts to the absence* of
        the pulses, it does not consume them.
        """
        return self._polarity(positive=True)

    def _polarity(self, positive: bool) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        raise NotImplementedError

    def evaluate(self, asserted: Iterable[str]) -> bool:
        raise NotImplementedError

    def to_sop(self) -> List[Tuple[FrozenSet[str], FrozenSet[str]]]:
        """Sum-of-products: a list of (positive literals, negated literals).

        The expression is true iff some product has all its positive literals
        asserted and all its negated literals deasserted.  Contradictory
        products (a literal both positive and negated) are dropped.
        """
        products = self._sop()
        return [p for p in products if not (p[0] & p[1])]

    def _sop(self) -> List[Tuple[FrozenSet[str], FrozenSet[str]]]:
        raise NotImplementedError

    def _negated_sop(self) -> List[Tuple[FrozenSet[str], FrozenSet[str]]]:
        raise NotImplementedError


@dataclass(frozen=True)
class Name(Expr):
    """A reference to an event or condition by name."""

    name: str

    def names(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def evaluate(self, asserted: Iterable[str]) -> bool:
        return self.name in set(asserted)

    def _sop(self):
        return [(frozenset({self.name}), frozenset())]

    def _negated_sop(self):
        return [(frozenset(), frozenset({self.name}))]

    def _polarity(self, positive: bool):
        mine = frozenset({self.name})
        empty: FrozenSet[str] = frozenset()
        return (mine, empty) if positive else (empty, mine)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def names(self) -> FrozenSet[str]:
        return self.operand.names()

    def evaluate(self, asserted: Iterable[str]) -> bool:
        return not self.operand.evaluate(asserted)

    def _sop(self):
        return self.operand._negated_sop()

    def _negated_sop(self):
        return self.operand._sop()

    def _polarity(self, positive: bool):
        return self.operand._polarity(not positive)

    def __str__(self) -> str:
        return f"not {self._wrap(self.operand)}"

    @staticmethod
    def _wrap(e: Expr) -> str:
        return f"({e})" if isinstance(e, (And, Or)) else str(e)


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr

    def names(self) -> FrozenSet[str]:
        return self.left.names() | self.right.names()

    def evaluate(self, asserted: Iterable[str]) -> bool:
        asserted = set(asserted)
        return self.left.evaluate(asserted) and self.right.evaluate(asserted)

    def _sop(self):
        return [(lp | rp, ln | rn)
                for lp, ln in self.left._sop()
                for rp, rn in self.right._sop()]

    def _negated_sop(self):
        # not (a and b) == not a or not b
        return self.left._negated_sop() + self.right._negated_sop()

    def _polarity(self, positive: bool):
        lp, ln = self.left._polarity(positive)
        rp, rn = self.right._polarity(positive)
        return lp | rp, ln | rn

    def __str__(self) -> str:
        return f"{self._wrap(self.left)} and {self._wrap(self.right)}"

    @staticmethod
    def _wrap(e: Expr) -> str:
        return f"({e})" if isinstance(e, Or) else str(e)


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr

    def names(self) -> FrozenSet[str]:
        return self.left.names() | self.right.names()

    def evaluate(self, asserted: Iterable[str]) -> bool:
        asserted = set(asserted)
        return self.left.evaluate(asserted) or self.right.evaluate(asserted)

    def _sop(self):
        return self.left._sop() + self.right._sop()

    def _negated_sop(self):
        return [(lp | rp, ln | rn)
                for lp, ln in self.left._negated_sop()
                for rp, rn in self.right._negated_sop()]

    def _polarity(self, positive: bool):
        lp, ln = self.left._polarity(positive)
        rp, rn = self.right._polarity(positive)
        return lp | rp, ln | rn

    def __str__(self) -> str:
        return f"{self.left} or {self.right}"


def conjunction(names: Iterable[str]) -> Expr:
    """Build ``a and b and ...`` from a non-empty list of names."""
    exprs = [Name(n) for n in names]
    if not exprs:
        raise ExprError("conjunction of zero names")
    result: Expr = exprs[0]
    for e in exprs[1:]:
        result = And(result, e)
    return result


def disjunction(names: Iterable[str]) -> Expr:
    """Build ``a or b or ...`` from a non-empty list of names."""
    exprs = [Name(n) for n in names]
    if not exprs:
        raise ExprError("disjunction of zero names")
    result: Expr = exprs[0]
    for e in exprs[1:]:
        result = Or(result, e)
    return result


_TOKEN_RE = re.compile(r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<name>[A-Za-z_][A-Za-z_0-9]*))")

_KEYWORDS = {"and", "or", "not"}


def _tokenize(text: str) -> List[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ExprError(f"bad expression syntax near {remainder!r}")
        pos = match.end()
        if match.lastgroup == "lparen":
            tokens.append("(")
        elif match.lastgroup == "rparen":
            tokens.append(")")
        else:
            tokens.append(match.group("name"))
    return tokens


class _Parser:
    """not > and > or, left-associative, parenthesised subexpressions."""

    def __init__(self, tokens: List[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def take(self) -> str:
        token = self.peek()
        self.pos += 1
        return token

    def parse(self) -> Expr:
        expr = self.parse_or()
        if self.pos != len(self.tokens):
            raise ExprError(f"trailing tokens {self.tokens[self.pos:]!r}")
        return expr

    def parse_or(self) -> Expr:
        expr = self.parse_and()
        while self.peek() == "or":
            self.take()
            expr = Or(expr, self.parse_and())
        return expr

    def parse_and(self) -> Expr:
        expr = self.parse_not()
        while self.peek() == "and":
            self.take()
            expr = And(expr, self.parse_not())
        return expr

    def parse_not(self) -> Expr:
        if self.peek() == "not":
            self.take()
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        token = self.take()
        if token == "(":
            expr = self.parse_or()
            if self.take() != ")":
                raise ExprError("missing closing parenthesis")
            return expr
        if token in _KEYWORDS or not token:
            raise ExprError(f"expected name, got {token!r}")
        if token == ")":
            raise ExprError("unexpected ')'")
        return Name(token)


def parse_expr(text: str) -> Expr:
    """Parse trigger/guard expression text into an :class:`Expr` tree."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExprError("empty expression")
    return _Parser(tokens).parse()
