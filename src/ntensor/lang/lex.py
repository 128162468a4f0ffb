"""Tokenizer for the tensor expression language.

Whitespace (including newlines) only separates tokens; ``#`` starts a
comment running to end of line.  Identifiers are letters, digits, and
underscores starting with a letter or underscore, plus trailing prime
marks.  Numbers require a digit after the decimal point, so ``3.{ax}``
lexes as a contraction on the scalar 3.

A bracketed numeric literal is one ``LITERAL`` token: from a ``[`` up to
the ``]`` that balances it, holding only numbers, ``inf``, ``-``, commas,
brackets and whitespace, so the parser can hand it whole to the standard
JSON parser.  Its text lexes into exactly the tokens it spans, so the parser
re-lexes the literals that parser or numpy refuses (a spaced sign, a
leading zero, a ragged or too deep literal), and a bracket that is a
suffix (``X[1]``), with ``literals=False`` and reads them token by token.
A ``[`` with a comment, a ``+`` or an identifier before its balancing
``]`` starts no ``LITERAL`` and lexes token by token.

A token records the offset of its first character; :class:`Positions`
turns an offset into the 1-based (line, col) that spans and diagnostics
report, so only they pay for it.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import List, NamedTuple, Optional, Tuple

from .diagnostics import ParseError

RESERVED = frozenset({"axis", "print", "check", "grad", "over", "random", "inf"})

_NUMBER = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_TOKENS = rf"""
    (?P<WS>\s+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<NUMBER>{_NUMBER})
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*'*)
  | (?P<SYM>->|\.\{{|[=:,()\[\]{{}}+\-*/])
"""
_TOKEN_RE = re.compile(_TOKENS, re.VERBOSE)
# The longest run from a "[" of what a literal may hold; tokenize cuts it
# at the "]" that balances the "[".
_BULK_RE = re.compile(
    rf"(?P<LITERAL>\[(?:[\s,\[\]-]+|{_NUMBER}|inf(?![A-Za-z0-9_']))*+)|{_TOKENS}",
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "IDENT", "NUMBER", "LITERAL", "EOF", or the symbol text itself
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


def _balancing(source: str, start: int, end: int) -> Optional[int]:
    """The offset just past the "]" in ``source[start:end]`` that balances
    the "[" at ``start``, or None."""
    depth, pos = 0, start
    while True:
        close = source.find("]", pos, end)
        if close < 0:
            return None
        depth += source.count("[", pos, close) - 1
        if not depth:
            return close + 1
        pos = close + 1


def tokenize(source: str, literals: bool = True) -> List[Token]:
    """The tokens of ``source``, ending in one ``EOF`` token; each bracketed
    numeric literal is one ``LITERAL`` token if ``literals``."""
    match = (_BULK_RE if literals else _TOKEN_RE).match
    tokens = []
    pos = 0
    while pos < len(source):
        m = match(source, pos)
        if m is None:
            raise ParseError(*Positions(source)(pos), f"unexpected character {source[pos]!r}")
        kind = m.lastgroup
        stop = m.end()
        if kind == "LITERAL":
            stop = _balancing(source, pos, stop)
            if stop is None:  # the "[" is a symbol
                stop = pos + 1
                tokens.append(Token("[", "[", pos))
            else:
                tokens.append(Token(kind, source[pos:stop], pos))
        elif kind == "SYM":
            text = m.group()
            tokens.append(Token(text, text, pos))
        elif kind == "NUMBER" or kind == "IDENT":
            tokens.append(Token(kind, m.group(), pos))
        # WS and COMMENT are skipped
        pos = stop
    tokens.append(Token("EOF", "", pos))
    return tokens
