"""Parser, printer, checker, evaluator, and gradient command."""

from pathlib import Path

import numpy as np
import pytest

from ntensor import Shape, SplitMix64, ops
from ntensor import autodiff as ad
from ntensor import lang
from ntensor.cli import main
from ntensor.zoo import transformer_program

CORPUS = Path(__file__).parent / "corpus"
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
]


@pytest.mark.parametrize("body,printed", ROUND_TRIPS, ids=[b for b, _ in ROUND_TRIPS])
def test_call_forms_print_and_reparse(body, printed):
    program = lang.parse(f"Z = {body}\n")
    assert lang.format_program(program) == f"Z = {printed}\n"
    assert lang.parse(f"Z = {printed}\n") == program


def test_round_trips_cover_the_call_table():
    from ntensor.lang.parse import _CALLS

    assert {body.split("{")[0] for body, _ in ROUND_TRIPS} >= set(_CALLS)


def test_parse_examples():
    program = lang.parse("axis width = 3\ny : R[width]\nA : R[width]\nC = dot{width}(A, y)")
    binding = program.statements[-1]
    assert isinstance(binding.expr, ad.Contract)
    assert binding.expr.axes == ("width",)

    attention_body = "Y = softmax{seq}(Q .{key} K / sqrt(size(key)) + M)"
    expr = lang.parse(attention_body).statements[0].expr
    assert isinstance(expr, ad.Softmax)
    top = expr.child
    assert isinstance(top, ad.Binary) and top.op == "add"
    assert isinstance(top.a, ad.Binary) and top.a.op == "div"
    assert isinstance(top.a.a, ad.Contract) and top.a.a.axes == ("key",)


@pytest.mark.parametrize("source,fragment", [
    ("C = dot{}(A", "expected"),
    ("C = ", "expected an expression"),
    ("axis = 3", "expected axis name"),
    ("over = 3", "reserved"),
    ("A = [1, 2 over (ax)", "expected"),
    ("A = 1 +", "expected an expression"),
    ("print", "identifier"),
    ("A = inf", "inf"),
    ("A = relu{ax}(B)", "axis name(s)"),
    ("A = frobnicate{}(B)", "unknown function"),
    ("A : Q[ax]", "R["),
    ("A = " + "(" * 200 + "B" + ")" * 200, "nests deeper"),
])
def test_syntax_errors_have_spans(source, fragment):
    with pytest.raises(lang.ParseError) as err:
        lang.parse(source)
    assert err.value.line >= 1 and err.value.col >= 1
    assert fragment.lower() in err.value.bare_message.lower()


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


def test_checker_collects_across_statements():
    deep = "[" * 70 + "1" + "]" * 70  # deeper than numpy's 64 dimensions
    source = (
        "axis h = 3\nA = [1, 2] over (h)\nB = [1, 2, 3, 4] over (h)\n"
        f"C = {deep} over (h)\n"
    )
    diags = lang.check(lang.parse(source))
    assert len(diags) == 3
    assert (diags[2].line, diags[2].col) == (4, 5)
    assert "literal nests 70 deep but names 1 axes" in diags[2].message


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
