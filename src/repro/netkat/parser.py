"""A concrete-syntax parser for NetKAT and Stateful NetKAT.

Grammar (operator precedence, loosest first)::

    policy := policy '+' policy          (union)
            | policy ';' policy          (sequence)
            | policy '|' policy          (predicate disjunction)
            | policy '&' policy          (predicate conjunction)
            | policy '*'                 (Kleene star)
            | '!' policy                 (predicate negation)
            | atom

    atom   := 'id' | 'drop' | 'true' | 'false' | 'dup'
            | IDENT '=' NUM              (field test)
            | IDENT '<-' NUM             (field assignment)
            | 'state' '(' NUM ')' '=' NUM    (state test)
            | '(' NUM ':' NUM ')' '->' '(' NUM ':' NUM ')'
              [ '<' updates '>' ]        (link / state-updating link)
            | '(' policy ')'

    updates := 'state' '(' NUM ')' '<-' NUM (',' updates)?

As in NetKAT, ``&``/``|``/``!`` apply only to predicates; applying them
to a forwarding policy is a parse error.  Round-trips with
:mod:`repro.netkat.pretty`.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from ..stateful.ast import LinkUpdate, StateTest
from .ast import (
    DROP,
    Dup,
    FALSE,
    Filter,
    ID,
    Link,
    Policy,
    Predicate,
    TRUE,
    conj,
    disj,
    neg,
    seq,
    star,
    union,
)
from .ast import Assign, Test
from .packet import Location

__all__ = ["ParseError", "parse_policy", "parse_predicate"]


class ParseError(Exception):
    """Syntax error, with position information."""

    def __init__(self, message: str, position: int, text: str):
        snippet = text[max(0, position - 20) : position + 20]
        super().__init__(f"{message} at offset {position}: ...{snippet!r}...")
        self.position = position


_TOKEN_SPEC = [
    ("WS", r"\s+"),
    ("COMMENT", r"#[^\n]*"),
    ("ARROW", r"->"),
    ("ASSIGN", r"<-"),
    ("NUM", r"[0-9]+"),
    ("IDENT", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("PLUS", r"\+"),
    ("SEMI", r";"),
    ("STAR", r"\*"),
    ("BANG", r"!"),
    ("AMP", r"&"),
    ("PIPE", r"\|"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("EQ", r"="),
    ("COLON", r":"),
    ("LT", r"<"),
    ("GT", r">"),
    ("COMMA", r","),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))

_Token = Tuple[str, str, int]  # (kind, text, position)


def _tokenize(text: str) -> List[_Token]:
    """One ``finditer`` pass (a gap between matches is a bad character);
    three ``EOF`` entries make a lookahead of two a plain index."""
    tokens: List[_Token] = []
    position = 0
    for match in _TOKEN_RE.finditer(text):
        if match.start() != position:
            break
        kind = match.lastgroup
        if kind != "WS" and kind != "COMMENT":
            tokens.append((kind, match.group(), position))
        position = match.end()
    if position != len(text):
        raise ParseError(f"unexpected character {text[position]!r}", position, text)
    tokens.extend([("EOF", "", position)] * 3)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token plumbing -------------------------------------------------------

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[self.index + offset]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        if token[0] != "EOF":
            self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.tokens[self.index]
        if token[0] != kind:
            raise ParseError(
                f"expected {kind}, found {token[0]} ({token[1]!r})",
                token[2],
                self.text,
            )
        return self.advance()

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek()[2], self.text)

    # -- precedence-climbing policy grammar ---------------------------------------

    def parse_policy(self) -> Policy:
        return self._parse_union()

    def _parse_union(self) -> Policy:
        parts = [self._parse_seq()]
        while self.peek()[0] == "PLUS":
            self.advance()
            parts.append(self._parse_seq())
        return union(*parts) if len(parts) > 1 else parts[0]

    def _parse_seq(self) -> Policy:
        parts = [self._parse_disj()]
        while self.peek()[0] == "SEMI":
            self.advance()
            parts.append(self._parse_disj())
        return seq(*parts) if len(parts) > 1 else parts[0]

    def _parse_disj(self) -> Policy:
        start = self.peek()[2]
        left = self._parse_conj()
        if self.peek()[0] != "PIPE":
            return left
        operands = [self._as_predicate(left, "|", start)]
        while self.peek()[0] == "PIPE":
            self.advance()
            start = self.peek()[2]
            operands.append(self._as_predicate(self._parse_conj(), "|", start))
        return Filter(disj(*operands))

    def _parse_conj(self) -> Policy:
        start = self.peek()[2]
        left = self._parse_star()
        if self.peek()[0] != "AMP":
            return left
        operands = [self._as_predicate(left, "&", start)]
        while self.peek()[0] == "AMP":
            self.advance()
            start = self.peek()[2]
            operands.append(self._as_predicate(self._parse_star(), "&", start))
        return Filter(conj(*operands))

    def _parse_star(self) -> Policy:
        inner = self._parse_atom()
        while self.peek()[0] == "STAR":
            self.advance()
            inner = star(inner)
        return inner

    def _as_predicate(self, p: Policy, operator: str, start: int) -> Predicate:
        if isinstance(p, Filter):
            return p.predicate
        raise ParseError(
            f"operator {operator!r} applies to predicates, but found a "
            f"forwarding policy {p!r}",
            start,
            self.text,
        )

    # -- atoms ------------------------------------------------------------------

    def _parse_atom(self) -> Policy:
        kind = self.peek()[0]
        if kind == "BANG":
            self.advance()
            start = self.peek()[2]
            operand = self._parse_star()
            return Filter(neg(self._as_predicate(operand, "!", start)))
        if kind == "IDENT":
            return self._parse_ident_atom()
        if kind == "LPAREN":
            return self._parse_paren_atom()
        raise self.error(f"expected an atom, found {kind}")

    def _parse_ident_atom(self) -> Policy:
        name = self.advance()[1]
        if name == "id" or name == "true":
            return ID if name == "id" else Filter(TRUE)
        if name == "drop" or name == "false":
            return DROP if name == "drop" else Filter(FALSE)
        if name == "dup":
            return Dup()
        if name == "state":
            self.expect("LPAREN")
            component = int(self.expect("NUM")[1])
            self.expect("RPAREN")
            self.expect("EQ")
            value = int(self.expect("NUM")[1])
            return Filter(StateTest(component, value))
        kind = self.peek()[0]
        if kind == "EQ":
            self.advance()
            value = int(self.expect("NUM")[1])
            return Filter(Test(name, value))
        if kind == "ASSIGN":
            self.advance()
            value = int(self.expect("NUM")[1])
            return Assign(name, value)
        raise self.error(f"expected '=' or '<-' after field {name!r}")

    def _parse_paren_atom(self) -> Policy:
        # Either a location "(n:m)" beginning a link, or a grouped policy.
        if self.peek(1)[0] == "NUM" and self.peek(2)[0] == "COLON":
            return self._parse_link()
        self.expect("LPAREN")
        inner = self.parse_policy()
        self.expect("RPAREN")
        return inner

    def _parse_location(self) -> Location:
        self.expect("LPAREN")
        switch = int(self.expect("NUM")[1])
        self.expect("COLON")
        port = int(self.expect("NUM")[1])
        self.expect("RPAREN")
        return Location(switch, port)

    def _parse_link(self) -> Policy:
        src = self._parse_location()
        self.expect("ARROW")
        dst = self._parse_location()
        if self.peek()[0] != "LT":
            return Link(src, dst)
        self.advance()
        updates: List[Tuple[int, int]] = []
        while True:
            _, keyword, position = self.expect("IDENT")
            if keyword != "state":
                raise ParseError(
                    f"expected 'state' in link update, found {keyword!r}",
                    position,
                    self.text,
                )
            self.expect("LPAREN")
            component = int(self.expect("NUM")[1])
            self.expect("RPAREN")
            self.expect("ASSIGN")
            value = int(self.expect("NUM")[1])
            updates.append((component, value))
            if self.peek()[0] == "COMMA":
                self.advance()
                continue
            break
        self.expect("GT")
        return LinkUpdate(src, dst, tuple(updates))


def parse_policy(text: str) -> Policy:
    """Parse a (Stateful) NetKAT policy from concrete syntax."""
    parser = _Parser(text)
    policy = parser.parse_policy()
    parser.expect("EOF")
    return policy


def parse_predicate(text: str) -> Predicate:
    """Parse a predicate (a policy that must denote a test)."""
    policy = parse_policy(text)
    if isinstance(policy, Filter):
        return policy.predicate
    raise ParseError(
        f"expected a predicate but parsed the forwarding policy {policy!r}",
        0,
        text,
    )
