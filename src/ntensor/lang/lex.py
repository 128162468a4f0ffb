"""Tokenizer for the tensor expression language.

Whitespace (including newlines) only separates tokens; ``#`` starts a
comment running to end of line.  Identifiers are letters, digits, and
underscores starting with a letter or underscore, plus trailing prime
marks.  Numbers require a digit after the decimal point, so ``3.{ax}``
lexes as a contraction on the scalar 3.

The lexer only splits tokens, the same way wherever they stand: the parser
calls :func:`next_token` as it reads, and finds a tensor literal in the
source itself.  A ``[`` is always one symbol token.

A token records the offset of its first character; :class:`Positions`
turns an offset into the 1-based (line, col) that spans and diagnostics
report, so only they pay for it.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import List, NamedTuple, Tuple

from .diagnostics import ParseError

RESERVED = frozenset({"axis", "print", "check", "grad", "over", "random", "inf"})

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*'*)
  | (?P<SYM>->|\.\{|[=:,()\[\]{}+\-*/])
""",
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "IDENT", "NUMBER", "EOF", or the symbol text itself
    text: str
    offset: int  # index of the token's first character in the source


class Positions:
    """The 1-based (line, col) of a source offset, by bisection over the
    offsets of the source's newlines."""

    def __init__(self, source: str):
        self._newlines = [m.start() for m in re.finditer("\n", source)]

    def __call__(self, offset: int) -> Tuple[int, int]:
        line = bisect_left(self._newlines, offset)
        start = self._newlines[line - 1] + 1 if line else 0
        return line + 1, offset - start + 1


def is_name(text: str) -> bool:
    """Whether ``text`` lexes as one identifier that is not a reserved word."""
    m = _TOKEN_RE.fullmatch(text)
    return m is not None and m.lastgroup == "IDENT" and text not in RESERVED


def next_token(source: str, pos: int) -> Token:
    """The first token of ``source`` at or after offset ``pos``, past
    whitespace and comments; an ``EOF`` token at the end of the source."""
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(*Positions(source)(pos), f"unexpected character {source[pos]!r}")
        kind = m.lastgroup
        if kind == "SYM":
            return Token(m.group(), m.group(), pos)
        if kind == "NUMBER" or kind == "IDENT":
            return Token(kind, m.group(), pos)
        pos = m.end()  # WS and COMMENT are skipped
    return Token("EOF", "", pos)


def tokenize(source: str) -> List[Token]:
    """The tokens of ``source``, ending in one ``EOF`` token."""
    tokens = [next_token(source, 0)]
    while tokens[-1].kind != "EOF":
        tok = tokens[-1]
        tokens.append(next_token(source, tok.offset + len(tok.text)))
    return tokens
