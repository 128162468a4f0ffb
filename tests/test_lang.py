"""Parser, printer, checker, evaluator, and gradient command."""

import math
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ntensor import NamedTensorError, Shape, SplitMix64, ops
from ntensor import autodiff as ad
from ntensor import lang
from ntensor.cli import main
from ntensor.lang.lex import RESERVED
from ntensor.lang.parse import _Parser
from ntensor.tensor import _MAX_DIMS
from ntensor.zoo import transformer_program

CORPUS = Path(__file__).parent / "corpus"
_MAX_DEPTH = _Parser.MAX_DEPTH
VALID = sorted((CORPUS / "valid").glob("*.nt"))
INVALID = sorted((CORPUS / "invalid").glob("*.nt"))

# expected position of the first diagnostic in each invalid program
EXPECTED_SPANS = {
    "inv01_add_mismatch.nt": (5, 7),
    "inv02_literal_size.nt": (3, 5),
    "inv03_undeclared_axis.nt": (2, 1),
    "inv04_unbound_var.nt": (3, 9),
    "inv05_double_binding.nt": (3, 1),
    "inv06_dup_axis_decl.nt": (2, 1),
    "inv07_rename_collision.nt": (4, 6),
    "inv08_missing_reduce_axis.nt": (3, 5),
    "inv09_dot_unbound_axis.nt": (5, 5),
    "inv10_pool_indivisible.nt": (4, 5),
    "inv11_partial_out_of_range.nt": (3, 6),
    "inv12_unroll_collision.nt": (4, 5),
    "inv13_maxk_too_big.nt": (4, 5),
    "inv14_det_nonsquare.nt": (4, 5),
    "inv15_undefined_print.nt": (3, 1),
    "inv16_softmax_missing_axis.nt": (3, 5),
}


def test_corpus_is_large_enough():
    assert len(VALID) >= 10
    assert len(INVALID) >= 15


# ---------------------------------------------------------------------------
# parsing and printing

@pytest.mark.parametrize("path", VALID + INVALID, ids=lambda p: p.name)
def test_parse_print_parse_idempotent(path):
    program = lang.parse(path.read_text())
    printed = lang.format_program(program)
    reparsed = lang.parse(printed)
    assert reparsed == program
    assert lang.parse(lang.format_program(reparsed)) == reparsed


def test_parse_print_parse_generated_transformer():
    program = lang.parse(transformer_program(depth=2))
    assert lang.parse(lang.format_program(program)) == program


# Every call-table row, plus the forms printed outside it: source body, then
# the body as the printer writes it.
ROUND_TRIPS = [
    *[(f"{red}{{a, b}}(X)", f"{red}{{a, b}}(X)") for red in ops.REDUCE_KINDS],
    ("sum{}(X)", "sum{}(X)"),
    ("softmax{a}(X)", "softmax{a}(X)"),
    ("argmax{a}(X)", "argmax{a}(X)"),
    ("argmin{a, b}(X)", "argmin{a, b}(X)"),
    ("standardize{a}(X)", "standardize{a}(X)"),
    *[(f"{fn}{{}}(X)", f"{fn}{{}}(X)") for fn in ("relu", "sigma", "exp", "log", "neg")],
    ("dot{a, b}(X, Y)", "X .{a, b} Y"),
    ("index{a}(X, Y + 1)", "index{a}(X, Y + 1.0)"),
    ("unroll{a, k}(X)", "unroll{a, k}(X)"),
    ("pool{a, k}(X)", "pool{a, k}(X)"),
    ("split{a, b, c}(X)", "split{a, b, c}(X)"),
    ("split{a, a, c}(X)", "pool{a, c}(X)"),
    ("maxk{a, k}(X)", "maxk{a, k}(X)"),
    ("argmaxk{a, k}(X)", "argmaxk{a, k}(X)"),
    ("det{a, b}(X)", "det{a, b}(X)"),
    ("inv{a, b}(X)", "inv{a, b}(X)"),
    ("sqrt((X + Y))", "sqrt(X + Y)"),
    ("size(a) * 2", "size(a) * 2.0"),
    ("X[a->b][(a, b)->c][b=2][a=1]", "X[a->b][(a, b)->c][b=2][a=1]"),
    ("(X + Y)[a->b]", "(X + Y)[a->b]"),
    ("relu{}(X .{a} Y)[a->b]", "relu{}(X .{a} Y)[a->b]"),
    ("(X + Y) * Z - W / (U - V) .{a} (X[a->b] + Y)",
     "(X + Y) * Z - W / (U - V) .{a} (X[a->b] + Y)"),
    ("X - (Y - Z) / (A / B) .{a} C .{b} D", "X - (Y - Z) / (A / B) .{a} C .{b} D"),
    ("((X * Y)) * (Z - -3)", "X * Y * (Z - -3.0)"),
    ("-inf + [[1, -inf], [2.5, 3]] over (a, b)", "-inf + [[1.0, -inf], [2.5, 3.0]] over (a, b)"),
    ("random over (a, b) .{} X", "random over (a, b) .{} X"),
    ("[inf, -inf, 2] over (a)", "[inf, -inf, 2.0] over (a)"),
]


@pytest.mark.parametrize("body,printed", ROUND_TRIPS, ids=[b for b, _ in ROUND_TRIPS])
def test_call_forms_print_and_reparse(body, printed):
    program = lang.parse(f"Z = {body}\n")
    assert lang.format_program(program) == f"Z = {printed}\n"
    assert lang.parse(f"Z = {printed}\n") == program


def test_round_trips_cover_the_call_table():
    from ntensor.lang.parse import _CALLS

    assert {body.split("{")[0] for body, _ in ROUND_TRIPS} >= set(_CALLS)


@pytest.mark.parametrize("expr", [
    ad.pow_(ad.var("X"), 2.0),
    ad.split(ad.var("X"), "a", "b", "c", inner_size=2),
    ad.split(ad.var("X"), "a", "a", "c", inner_size=2),
    ad.unroll(ad.var("X"), "a", "k", kernel_size=2),
    ad.maxk(ad.var("X"), "a", "k", k_size=2),
    ad.const(math.nan),
    ad.const(math.inf),
    ad.literal([math.nan, 1.0], ["i"]),
    ad.partial_index(ad.var("X"), {}),
    ad.partial_index(ad.var("X"), {"a": 1, "b": 2}),
    ad.literal([1.0], ["1a"]),
    ad.sum_(ad.var("X"), ["over"]),
    ad.var("1x"),
], ids=["pow", "inner_size", "pool_inner_size", "kernel_size", "k_size",
        "nan", "inf", "nan_entry", "partial_index_none", "partial_index_two",
        "digit_axis", "reserved_axis", "digit_var"])
def test_nodes_the_language_cannot_write_do_not_print(expr):
    with pytest.raises(ValueError, match="has no surface syntax"):
        lang.format_expr(expr)


@pytest.mark.parametrize("statement", [
    lang.AxisDecl("1a", 2),
    lang.ShapeDecl("X", ("a b",)),
    lang.Binding("print", ad.var("X")),
    lang.Directive("print", "X-1"),
], ids=["axis", "shape", "binding", "directive"])
def test_statements_with_unreadable_names_do_not_print(statement):
    with pytest.raises(ValueError, match="has no surface syntax"):
        lang.format_program(lang.Program((statement,)))


# Axis names as the lexer reads them, primes included.
_AXIS_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}'{0,2}", fullmatch=True).filter(
    lambda name: name not in RESERVED
)
_ENTRIES = st.one_of(
    st.sampled_from([math.inf, -math.inf, -0.0, 1e308, -1e308, 5e-324, 2.225e-308]),
    st.floats(allow_nan=False),
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(_AXIS_NAMES, st.integers(1, 3)), min_size=1, max_size=3,
                unique_by=lambda axis: axis[0]),
       st.data())
def test_literals_print_over_canonical_axes_and_reparse_equal(axes, data):
    names = [name for name, _ in axes]
    sizes = [size for _, size in axes]
    n = math.prod(sizes)
    flat = data.draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    c = ad.literal(np.array(flat).reshape(sizes).tolist(), names)
    text = lang.format_expr(c)
    assert text.endswith(f" over ({', '.join(sorted(names))})")
    back = lang.parse(f"Z = {text}").statements[0].expr
    assert back == c
    assert back.value.array.tobytes() == c.value.array.tobytes()  # -0.0 too


def test_a_literal_equals_its_transpose_written_over_swapped_axes():
    a = lang.parse("X = [[1, 2], [3, 4]] over (a, b)").statements[0].expr
    b = lang.parse("X = [[1, 3], [2, 4]] over (b, a)").statements[0].expr
    assert a == b
    assert lang.format_expr(b) == "[[1.0, 2.0], [3.0, 4.0]] over (a, b)"


# Entry texts as a program may write them.
_ENTRY_TEXTS = st.one_of(
    st.sampled_from(["-0", "0", "inf", "-inf", "1e308", "-1e308", "5e-324", "2.225e-308",
                     "1.5E+3", "12"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_SEPARATORS = st.sampled_from(["", " ", " ", "\n", "\t "])
# A change to a regular literal; the fast path refuses all but None and "axes".
_MUTATIONS = st.sampled_from([
    None, None, None, "axes", "ragged", "deeper_entry", "wrapped", "spaced_sign", "comment",
    "plus", "spaced_exponent", "empty", "unbalanced", "extra_close", "max_depth",
])


@st.composite
def _literal_programs(draw):
    """A program binding one literal, and whether the fast path reads it."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    depth, mutation = len(sizes), draw(_MUTATIONS)

    def build(sizes):
        if not sizes:
            return draw(_ENTRY_TEXTS)
        items = [build(sizes[1:]) for _ in range(sizes[0])]
        return "[" + draw(_SEPARATORS) + ("," + draw(_SEPARATORS)).join(items) + "]"

    if mutation == "ragged" and depth > 1:  # the last row differs at one level
        other = list(sizes[1:])
        level = draw(st.integers(0, depth - 2))
        other[level] += 1 if other[level] == 1 else draw(st.sampled_from([-1, 1]))
        text = "[" + ", ".join([build(sizes[1:])] * (sizes[0] - 1) + [build(other)]) + "]"
    else:
        text = build(sizes)
    first = text.lstrip("[ \t\n").split(",")[0].split("]")[0].strip()  # the first entry
    edits = {
        "deeper_entry": (first, f"[{first}]"), "wrapped": ("", "["), "plus": (first, "+1"),
        "spaced_sign": (first, draw(st.sampled_from(["- inf", "-\n1", "- 2"]))),
        "comment": (first, f"{first} # c\n"), "spaced_exponent": (first, "1 e 5"),
        "empty": (first, "[]"), "unbalanced": ("]", ""),
    }
    if mutation in edits:
        old, new = edits[mutation]
        text = text.replace(old, new, 1) + ("]" if mutation == "wrapped" else "")
    elif mutation == "extra_close":
        text += "]"
    parens = draw(st.integers(0, 3))
    if mutation == "max_depth":
        parens = _MAX_DEPTH - depth + draw(st.integers(-1, 1))
    axes = [f"a{i}" for i in range(depth + (mutation == "axes"))]
    source = (f"axis a0 = 2\nA = {'(' * parens}{text} over ({', '.join(axes)}){')' * parens}"
              f"\nB = A + 1\n")
    fast = mutation in (None, "axes") or (mutation == "max_depth" and parens + depth <= _MAX_DEPTH)
    return source, fast


def _outcome(parse) -> tuple:
    """A program and the span and bits of every node, or the error text."""
    try:
        program = parse()
    except lang.ParseError as e:
        return ("error", str(e))
    nodes = [
        (stmt.span, type(n).__name__, n.span,
         n.value.array.tobytes() if isinstance(n, ad.Const) else None)
        for stmt in program.statements if isinstance(stmt, lang.Binding)
        for n in ad._topo(stmt.expr)
    ]
    return program, nodes


def _token_path(source: str):
    """What the parser makes of ``source`` reading every literal token by token."""
    with patch.object(_Parser, "bulk", return_value=None):
        return lang.parse(source)


def _assert_paths_agree(source: str):
    bulk, tokens = _outcome(lambda: lang.parse(source)), _outcome(lambda: _token_path(source))
    assert bulk == tokens


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_literal_programs())
def test_fast_literal_path_agrees_with_the_token_path(case):
    source, fast = case
    _assert_paths_agree(source)
    if fast:  # the fast path read it: the whole literal, converted in bulk
        parser = _Parser(source)
        assert parser.bulk(source.index("[")) is not None and parser.peek().text == "over"


@pytest.mark.parametrize("source", [
    # a bracket that is not a literal
    "X[1]", "A = X[1]", "A = X[1] over (a)", "Y: R[1]", "Y : R[[1]]", "A = -[1] over (a)",
    "A = [1, 2] over (a) [3]", "A = [1] , [2]", "A = [1] over (a)\n[2]", "A = [1]]",
    # literals at the edges of what the fast path reads
    "A = ([[1], [2]] over (a, b))", "A = index{a}([1, 2] over (a), [1] over (b))",
    "A = [1.]", "A = []", "A = [[]] over (a, b)", "A = [[1], [2, 3]] over (a, b)",
    "A = [[1, 2], [3, 4]] over (a, a)", "A = [1, - 2, -\n3, - inf] over (a)",
    "A = " + "(" * 98 + "[[1]] over (a, b)" + ")" * 98,
    "A = " + "(" * 99 + "[[1]] over (a, b)" + ")" * 99,
    "A = " + "[" * (_MAX_DIMS + 1) + "1" + "]" * (_MAX_DIMS + 1) + " over (a)",
    # numbers, separators and brackets the JSON grammar does not read
    "A = [007, 1] over (a)", "A = [1E5, 1e+5, 1e-05] over (a)",
    "A = [99999999999999999999999, 1] over (a)", "A = [1e400, -1e400] over (a)",
    "A = [-0, 0] over (a)", "A = [1,\r2] over (a)", "A = [1,\v2] over (a)",
    "A = [1,\f2] over (a)", "A = [1,\u00a02] over (a)", "A = [1,\u20032] over (a)",
    "A = [\u0663, 1] over (a)", "A = [1,] over (a)", "A = [,1] over (a)",
    "A = [1,,2] over (a)", "A = [--1] over (a)", "A = [1-2] over (a)",
    "A = [[1], 2] over (a, b)", "A = [1, [2]] over (a, b)", "A = [[[]]] over (a, b, c)",
    "A = [ ] over (a)",
    pytest.param("A = " + "[" * 200 + "1" + "]" * 200 + " over (a)", id="200-deep"),
    pytest.param("A = " + "[" * 3000 + "1" + "]" * 3000 + " over (a)", id="3000-deep"),
    "A = " + "(" * 95 + "[1, " + "[" * 8 + "1" + "]" * 8 + "] over (a)" + ")" * 95,
])
def test_edge_literals_read_as_the_token_path(source):
    _assert_paths_agree(source)


def test_parse_examples():
    program = lang.parse("axis width = 3\ny : R[width]\nA : R[width]\nC = dot{width}(A, y)")
    binding = program.statements[-1]
    assert isinstance(binding.expr, ad.Contract)
    assert binding.expr.axes == ("width",)

    attention_body = "Y = softmax{seq}(Q .{key} K / sqrt(size(key)) + M)"
    expr = lang.parse(attention_body).statements[0].expr
    assert isinstance(expr, ad.Softmax)
    top = expr.child
    assert isinstance(top, ad.Add)
    assert isinstance(top.a, ad.Div)
    assert isinstance(top.a.a, ad.Contract) and top.a.a.axes == ("key",)


SYNTAX_ERRORS = [  # (source, message fragment, (line, col))
    ("C = dot{}(A", "expected", (1, 12)),
    ("C = ", "expected an expression", (1, 5)),
    ("axis = 3", "expected axis name", (1, 6)),
    ("over = 3", "reserved", (1, 1)),
    ("A = [1, 2 over (ax)", "expected", (1, 11)),
    ("A = 1 +", "expected an expression", (1, 8)),
    ("print", "identifier", (1, 6)),
    ("A = inf", "inf", (1, 5)),
    ("A = relu{ax}(B)", "axis name(s)", (1, 5)),
    ("A = frobnicate{}(B)", "unknown function", (1, 5)),
    ("A : Q[ax]", "R[", (1, 5)),
    ("A = " + "(" * 200 + "B" + ")" * 200, "nests deeper", (1, 105)),
    ("= 3", "expected a statement", (1, 1)),
    ("A 3", "expected ':' or '='", (1, 3)),
    ("axis a = 1.5", "axis size must be an integer", (1, 10)),
    ("A = B[()->c]", "at least one axis name", (1, 8)),
    ("A = B[a=1.5]", "index must be an integer", (1, 9)),
    ("A = B[a b]", "expected '->' or '='", (1, 9)),
    ("A = -B", "must prefix 'inf' or a number", (1, 5)),
    ("A = 1 + over", "reserved", (1, 9)),
    ("A = relu(B)", "called without braces", (1, 5)),
    ("A = [1] by (a)", "'over (axes)' clause", (1, 9)),
    ("A = B $ C", "unexpected character '$'", (1, 7)),
]
SYNTAX_SPANS = {source: span for source, _, span in SYNTAX_ERRORS}


@pytest.mark.parametrize("source,fragment", [case[:2] for case in SYNTAX_ERRORS])
def test_syntax_errors_have_spans(source, fragment):
    with pytest.raises(lang.ParseError) as err:
        lang.parse(source)
    assert (err.value.line, err.value.col) == SYNTAX_SPANS[source]
    assert fragment.lower() in err.value.bare_message.lower()


_WIDE = ", ".join(f"a{i}" for i in range(_MAX_DIMS + 1))


@pytest.mark.parametrize("literal, message", [
    ("[[1, 2], [3]] over (h, g)", "ragged tensor literal: "),
    ("[[1, 2]] over (h)", "literal nests 2 deep but names 1 axes"),
    ("[1, 2] over (h, g)", "literal nests 1 deep but names 2 axes"),
    ("[[1, 2], [3, 4]] over (h, h)", "duplicate axis name in shape: 'h'"),
    ("[" * (_MAX_DIMS + 1) + "1" + "]" * (_MAX_DIMS + 1) + f" over ({_WIDE})",
     f"literal names {_MAX_DIMS + 1} axes; at most {_MAX_DIMS} are supported"),
], ids=["ragged", "over_deep", "under_deep", "repeated_axis", "too_many_axes"])
def test_malformed_literals_are_parse_errors(literal, message):
    with pytest.raises(lang.ParseError) as err:
        lang.parse(f"axis h = 2\nA = {literal}\nB = A + 1\n")
    assert (err.value.line, err.value.col) == (2, 5)
    assert err.value.bare_message.startswith(message)


def test_whitespace_insensitive():
    flat = "axis h = 2 A : R[h] B = [1, 2] over (h) C = A + B print C"
    program = lang.parse(flat)
    assert len(program.statements) == 5
    assert not lang.check(program)


def test_comments_ignored():
    program = lang.parse("# leading\naxis h = 2 # trailing\nB = [1, 2] over (h)\n")
    assert len(program.statements) == 2


# ---------------------------------------------------------------------------
# checking

@pytest.mark.parametrize("path", VALID, ids=lambda p: p.name)
def test_valid_corpus_checks_clean(path):
    assert lang.check(lang.parse(path.read_text())) == []


def test_generated_transformer_checks_clean():
    for depth in (1, 2):
        assert lang.check(lang.parse(transformer_program(depth=depth))) == []


@pytest.mark.parametrize("path", INVALID, ids=lambda p: p.name)
def test_invalid_corpus_rejected_with_spans(path):
    source = path.read_text()
    diags = lang.check(lang.parse(source))
    assert diags, f"{path.name} unexpectedly checked clean"
    first = diags[0]
    assert (first.line, first.col) == EXPECTED_SPANS[path.name]
    lines = source.splitlines()
    assert 1 <= first.line <= len(lines)
    assert 1 <= first.col <= len(lines[first.line - 1]) + 1
    assert first.severity == "error"


@pytest.mark.parametrize("source,span,message", [
    ("axis a = 0", (1, 1), "axis 'a' must have size at least 1"),
    ("axis a = 2\nX : R[a]\nX : R[a]", (3, 1), "'X' is already defined"),
    ("axis a = 2\nX : R[a, a]", (2, 1), "axis 'a' appears twice in the shape of 'X'"),
    ("axis a = 2\nX = [1, 2] over (b)", (2, 5), "axis 'b' has no declared size"),
    ("X = [1, 2] over (b)", (1, 5), "axis 'b' has no declared size"),
    ("axis i = 10000000000\naxis j = 10000000000\nX = random over (i, j)", (3, 5),
     "{i[10000000000], j[10000000000]} has 100000000000000000000 entries, "
     "more than the 1152921504606846975 a numpy array can hold"),
    ("axis i = 10000000000\naxis j = 10000000000\nA = random over (i)\n"
     "B = random over (j)\nS = sum{i, j}(A + B)", (5, 17),
     "{i[10000000000], j[10000000000]} has 100000000000000000000 entries, "
     "more than the 1152921504606846975 a numpy array can hold"),
], ids=["size_zero", "shape_twice", "axis_twice", "undeclared", "no_axis_lines",
        "unrepresentable_literal", "unrepresentable_sum"])
def test_checker_diagnostic_spans(source, span, message):
    diags = lang.check(lang.parse(source))
    assert len(diags) == 1
    assert (diags[0].line, diags[0].col) == span
    assert diags[0].message == message


def test_incompatible_diagnostic_names_both_sizes():
    diags = lang.check(lang.parse(
        "axis h = 3 axis g = 4 A = random over (h) "
        "B = random over (g) C = A + B[g->h]"
    ))
    assert len(diags) == 1
    assert "h[3]" in diags[0].message and "h[4]" in diags[0].message


def test_poisoned_bindings_do_not_cascade():
    source = """
axis h = 3
A = [1, 2] over (h)
B = A + 1
C = B * 2
print C
"""
    diags = lang.check(lang.parse(source))
    assert len(diags) == 1  # only the bad literal, not B or C


@pytest.mark.parametrize("source, want", [
    ("axis k = 0\naxis seq = 4\nX : R[k]\nY = random over (seq, k)\nZ = size(k)",
     [(1, 1, "axis 'k' must have size at least 1")]),
    ("axis k = 0\nX = [1] over (k)\nY = X + 1",
     [(1, 1, "axis 'k' must have size at least 1")]),
    ("axis k = 0\nX = [1] over (m)\nY = random over (k)",
     [(1, 1, "axis 'k' must have size at least 1"),
      (2, 5, "axis 'm' has no declared size")]),
    ("axis k = 0\naxis k = 2\nY = random over (k)",
     [(1, 1, "axis 'k' must have size at least 1"),
      (2, 1, "axis 'k' is declared more than once")]),
], ids=["shape_random_size", "literal_then_binding", "other_axis", "declared_again"])
def test_a_failed_axis_declaration_does_not_cascade(source, want):
    diags = lang.check(lang.parse(source))
    assert [(d.line, d.col, d.message) for d in diags] == want


def test_checker_collects_across_statements():
    head = "axis h = 3\nA = [1, 2] over (h)\nB = [1, 2, 3, 4] over (h)\n"
    deep = "[" * 70 + "1" + "]" * 70  # deeper than numpy's 64 dimensions
    with pytest.raises(lang.ParseError) as err:
        lang.parse(head + f"C = {deep} over (h)\n")
    assert (err.value.line, err.value.col) == (4, 5)
    assert "literal nests 70 deep but names 1 axes" in err.value.bare_message
    diags = lang.check(lang.parse(head + "C = [1, 2, 3] over (g)\n"))
    assert len(diags) == 3
    assert (diags[2].line, diags[2].col) == (4, 5)
    assert "axis 'g' has no declared size" in diags[2].message


# ---------------------------------------------------------------------------
# evaluation

def test_matrix_basics_values():
    program = lang.parse((CORPUS / "valid" / "matrix_basics.nt").read_text())
    env = lang.evaluate_program(program)
    assert env["SumH"].to_array(["width"]).tolist() == [6, 12, 18]
    assert env["SumW"].to_array(["height"]).tolist() == [8, 15, 13]
    assert env["Total"].item() == 36.0
    assert env["Dot"].to_array(["height"]).tolist() == [11, 30, 31]
    assert env["APlusX"].get({"height": 2, "width": 2}) == 12.0
    assert env["APlusY"].get({"height": 3, "width": 2}) == 10.0
    assert env["Flat"].to_array(["layer"]).tolist() == [3, 1, 4, 1, 5, 9, 2, 6, 5]
    assert env["Row1"].to_array(["width"]).tolist() == [3, 1, 4]
    assert env["Col3"].to_array(["height"]).tolist() == [4, 9, 5]
    assert env["Renamed"].shape == Shape.of(**{"height'": 3, "width": 3})


@pytest.mark.parametrize("path", VALID, ids=lambda p: p.name)
def test_checked_programs_evaluate(path):
    """Soundness: no shape-related runtime errors after a clean check."""
    program = lang.parse(path.read_text())
    assert lang.check(program) == []
    env = lang.evaluate_program(program, seed=5)
    assert env


def test_argmax_program_tie():
    program = lang.parse(
        "axis ax = 3\nV = [1, 3, 3] over (ax)\nAM = argmax{ax}(V)\nprint AM\n"
    )
    env = lang.evaluate_program(program)
    assert env["AM"].to_array(["ax"]).tolist() == [0.0, 0.5, 0.5]


def test_evaluation_deterministic_with_randoms():
    source = transformer_program(depth=1)
    program = lang.parse(source)
    runs = [lang.run_program(program, seed=9) for _ in range(2)]
    texts = [
        "".join(t.to_text() for _, t in run.prints) for run in runs
    ]
    assert texts[0] == texts[1]
    different = lang.run_program(program, seed=10)
    assert "".join(t.to_text() for _, t in different.prints) != texts[0]


def test_random_literals_feed_identical_values_to_eval_and_grad():
    source = (
        "axis ax = 3\nX = [0.5, 1.5, -0.25] over (ax)\n"
        "W = random over (ax)\nY = W * X\nS = sum{ax}(Y)\n"
    )
    program = lang.parse(source)
    env = lang.evaluate_program(program, seed=4)
    deriv = lang.grad_program(program, "S", "X", seed=4)
    # dS/dX = W as drawn during evaluation
    assert deriv.value == env["W"]


def test_long_chains_run_without_recursion(tmp_path, capsys):
    """500-term bindings parse, compare, check, run and differentiate."""
    terms = 500
    draws = SplitMix64(0).floats(3 * terms)
    drawn_sum = draws[0:3]
    for k in range(1, terms):  # left to right, as the chain associates
        drawn_sum = [s + d for s, d in zip(drawn_sum, draws[3 * k : 3 * k + 3])]
    cases = [
        # body of B, value of B, diagonal of d(B * A)/dA
        (" + ".join(["A"] * terms), [500.0, 1000.0, 1500.0], [1000.0, 2000.0, 3000.0]),
        (" + ".join(["random over (i)"] * terms), drawn_sum, drawn_sum),
    ]
    for body, value, diagonal in cases:
        source = f"axis i = 3\nA = [1, 2, 3] over (i)\nB = {body}\nC = B * A\nprint B\n"
        program = lang.parse(source)
        assert program == lang.parse(source)
        assert lang.parse(lang.format_program(program)) == program
        assert lang.check(program) == []
        assert lang.run_program(program).env["B"].to_array(["i"]).tolist() == value
        deriv = lang.grad_program(program, "C", "A")
        assert deriv.value.to_array(["i", "i'"]).tolist() == np.diag(diagonal).tolist()
        path = tmp_path / "chain.nt"
        path.write_text(source)
        assert main(["eval", str(path)]) == 0
        assert capsys.readouterr().out.startswith("# B\nshape: i=3\n")


def test_runtime_error_carries_span():
    source = "axis d1 = 2\naxis d2 = 2\nZ = [[0, 0], [0, 0]] over (d1, d2)\nD = det{d1, d2}(Z)\n"
    program = lang.parse(source)
    assert lang.check(program) == []
    with pytest.raises(lang.RunError) as err:
        lang.evaluate_program(program)
    assert err.value.line == 4 and err.value.col == 5


# ---------------------------------------------------------------------------
# gradients

def test_grad_softmax_program_closed_form():
    program = lang.parse((CORPUS / "valid" / "softmax_grad.nt").read_text())
    deriv = lang.grad_program(program, "Loss", "X")
    env = lang.evaluate_program(program)
    y, w = env["Y"], env["W"]
    closed = ops.mul(y, ops.sub(w, ops.contract(w, y, ["ax"])))
    assert deriv.value.allclose(closed, atol=1e-12)
    # the grad directive supplies the default target
    assert lang.grad_program(program, None, "X").value == deriv.value


@pytest.mark.parametrize("directives, of, wrt, message", [
    ("", None, "X", "does not have exactly one grad directive"),
    ("grad Y\ngrad Y\n", None, "X", "does not have exactly one grad directive"),
    ("", "Q", "X", "'Q' is not a bound identifier"),
    ("", "Y", "Q", "'Q' is not a bound identifier"),
], ids=["no_directive", "two_directives", "unbound_of", "unbound_wrt"])
def test_grad_program_errors(directives, of, wrt, message):
    source = "axis ax = 2\nX = [1, 2] over (ax)\nY = sum{ax}(X * X)\n"
    program = lang.parse(source + directives)
    with pytest.raises(NamedTensorError, match=message):
        lang.grad_program(program, of, wrt)


def test_grad_evaluates_only_what_its_target_reads():
    """A later binding that fails at run time does not stop ``grad`` of an
    earlier one, while ``run_program`` reports it at its span."""
    source = (
        "axis a = 2\nX = [1, 2] over (a)\nY = sum{a}(X * X)\n"
        "Z = softmax{a}([-inf, -inf] over (a))\n"
    )
    program = lang.parse(source)
    assert lang.check(program) == []
    deriv = lang.grad_program(program, "Y", "X")
    assert deriv.value.to_array(["a"]).tolist() == [2.0, 4.0]
    with pytest.raises(lang.RunError) as err:
        lang.run_program(program)
    assert (err.value.line, err.value.col) == (4, 5)
    assert "entirely -inf" in err.value.bare_message


def test_grad_identity_is_identity_tensor():
    program = lang.parse("axis ax = 2\nX = [5, 7] over (ax)\n")
    deriv = lang.grad_program(program, "X", "X")
    assert deriv.rename_map == {"ax": "ax'"}
    assert deriv.value.to_array(["ax", "ax'"]).tolist() == [[1, 0], [0, 1]]


def test_grad_requires_literal_wrt():
    program = lang.parse(
        "axis ax = 2\nX = [1, 2] over (ax)\nY = X + 1\nZ = sum{ax}(Y)\n"
    )
    with pytest.raises(Exception) as err:
        lang.grad_program(program, "Z", "Y")
    assert "literal" in str(err.value)


def test_grad_random_program_matches_finite_differences():
    source = (
        "axis m = 3\naxis n = 2\n"
        "X = [[0.4, -0.3], [0.8, 0.2], [-0.6, 0.9]] over (m, n)\n"
        "W = [0.5, -1.0] over (n)\n"
        "H = sigma{}(X .{n} W)\n"
        "P = softmax{m}(H)\n"
        "Loss = sum{m}(P * P)\n"
    )
    program = lang.parse(source)
    deriv = lang.grad_program(program, "Loss", "X")
    base = lang.evaluate_program(program)["Loss"].item()

    x_values = [[0.4, -0.3], [0.8, 0.2], [-0.6, 0.9]]
    worst = 0.0
    for i in range(3):
        for j in range(2):
            h = 1e-6 * (1 + abs(x_values[i][j]))
            outs = []
            for delta in (h, -h):
                bumped = [row[:] for row in x_values]
                bumped[i][j] += delta
                body = source.replace(
                    "[[0.4, -0.3], [0.8, 0.2], [-0.6, 0.9]]",
                    "[[" + "], [".join(
                        ", ".join(repr(v) for v in row) for row in bumped
                    ) + "]]",
                )
                outs.append(lang.evaluate_program(lang.parse(body))["Loss"].item())
            numeric = (outs[0] - outs[1]) / (2 * h)
            analytic = deriv.value.get({"m": i + 1, "n": j + 1})
            worst = max(worst, abs(numeric - analytic) / max(1.0, abs(numeric)))
    assert worst <= 1e-6
