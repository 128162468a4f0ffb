"""The tokenizer: every token's position against a naive count, where the
parser ends a literal, and the positions of lexical errors."""

from pathlib import Path

import pytest

from ntensor import lang
from ntensor.lang.lex import Positions, tokenize
from ntensor.lang.parse import _Parser
from ntensor.zoo import transformer_program
from test_lang import _assert_paths_agree

CORPUS = Path(__file__).parent / "corpus"

SOURCES = {f.name: f.read_text() for f in sorted(CORPUS.glob("*/*.nt"))}
SOURCES["transformer"] = transformer_program(
    depth=2, seq=16, vocab=64, layer=64, heads=4, hidden=256
)


def _naive(source: str, offset: int) -> tuple:
    before = source[:offset]
    return before.count("\n") + 1, offset - before.rfind("\n")


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_token_positions_match_a_naive_count(name):
    source = SOURCES[name]
    tokens = tokenize(source)
    at = Positions(source)
    assert tokens[-1].kind == "EOF" and tokens[-1].offset == len(source)
    for tok in tokens:
        assert source.startswith(tok.text, tok.offset)
        assert at(tok.offset) == _naive(source, tok.offset)


def test_token_kinds():
    source = "X' = sum{a}(Y .{b} [1.5e3, -inf] over (b)) -> # note\n"
    assert [(t.kind, t.text) for t in tokenize(source)] == [
        ("IDENT", "X'"), ("=", "="), ("IDENT", "sum"), ("{", "{"),
        ("IDENT", "a"), ("}", "}"), ("(", "("), ("IDENT", "Y"), (".{", ".{"),
        ("IDENT", "b"), ("}", "}"), ("[", "["), ("NUMBER", "1.5e3"), (",", ","), ("-", "-"),
        ("IDENT", "inf"), ("]", "]"), ("IDENT", "over"),
        ("(", "("), ("IDENT", "b"), (")", ")"), (")", ")"), ("->", "->"), ("EOF", ""),
    ]


# The literals the parser reads in bulk, each from a "[" of the source up to
# the "]" that balances it; from every other "[" it reads token by token.
READ_IN_BULK = {
    "[[1]->": ["[1]"],
    "[1] , [2]]": ["[1]", "[2]"],
    "[[1, -\n 2], [inf, 3]] over": ["[inf, 3]"],
}


@pytest.mark.parametrize("source, kinds", [
    # a comment, a "+" or an identifier before the balancing "]"
    ("[1, # c\n 2]", ["[", "NUMBER", ",", "NUMBER", "]"]),
    ("[+1]", ["[", "+", "NUMBER", "]"]),
    ("[1 e 5]", ["[", "NUMBER", "IDENT", "NUMBER", "]"]),
    ("[inf1]", ["[", "IDENT", "]"]),
    # no balancing "]"
    ("[[1]->", ["[", "[", "NUMBER", "]", "->"]),
    ("X[a->b]", ["IDENT", "[", "IDENT", "->", "IDENT", "]"]),
    # a literal ends at its balancing "]"
    ("[1] , [2]]", ["[", "NUMBER", "]", ",", "[", "NUMBER", "]", "]"]),
    ("[[1, -\n 2], [inf, 3]] over",
     ["[", "[", "NUMBER", ",", "-", "NUMBER", "]", ",", "[", "IDENT", ",", "NUMBER", "]",
      "]", "IDENT"]),
])
def test_literal_tokens_end_at_the_balancing_bracket(source, kinds):
    # the lexer splits a literal like any other text
    assert [t.kind for t in tokenize(source)] == kinds + ["EOF"]
    # the parser reads in bulk, or token by token, to the same program or error
    read = []
    for start in (i for i, c in enumerate(source) if c == "["):
        parser = _Parser(source)
        if parser.bulk(start) is not None:  # it lexes on from the balancing "]"
            read.append(source[start:parser.peek().offset].rstrip())
    assert read == READ_IN_BULK.get(source, [])
    _assert_paths_agree("A = " + source)


@pytest.mark.parametrize("source, line, col, char", [
    # after a run of comment lines
    ("axis a = 2\n# one\n# two, with [ brackets\n\nX = [1, 2] over (a)  $",
     5, 22, "$"),
    # after a literal that spans lines
    ("axis a = 2\naxis b = 2\nX = [[1, 2],\n     [3, 4]] over (a, b)\n  Y = X ? 1\n",
     5, 9, "?"),
    ("@", 1, 1, "@"),
    ("X = 1\n\n\t\t!", 3, 3, "!"),
    ("X = 1\n\n\t\t! Y = 2", 3, 3, "!"),
    ("X = 1 # é in a comment\nY = é + 1", 2, 5, "é"),
])
def test_unexpected_character_position(source, line, col, char):
    with pytest.raises(lang.ParseError) as err:
        tokenize(source)
    assert (err.value.line, err.value.col) == (line, col)
    assert err.value.bare_message == f"unexpected character {char!r}"


def test_spans_after_a_multiline_literal():
    source = "axis a = 2\nX = [1,\n  2] over (a)\n# c\n  Y = sum{a}(X) +"
    y = lang.parse(source[:-2]).statements[2]
    assert y.span == (5, 3) and y.expr.span == (5, 7) and y.expr.child.span == (5, 14)
    with pytest.raises(lang.ParseError, match="^5:18: error: expected an expression"):
        lang.parse(source)
    with pytest.raises(lang.ParseError, match="^6:1: error: expected an expression"):
        lang.parse(source + "\n")
