"""The nt command line: check, eval, grad, zoo."""

import subprocess
import sys
from pathlib import Path

import pytest

from ntensor import NamedTensor, lang
from ntensor.cli import main

CORPUS = Path(__file__).parent / "corpus"
MATRIX = str(CORPUS / "valid" / "matrix_basics.nt")


def test_check_valid_exits_zero(capsys):
    assert main(["check", MATRIX]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""


def test_check_invalid_exits_nonzero_with_diagnostics(capsys):
    bad = str(CORPUS / "invalid" / "inv01_add_mismatch.nt")
    assert main(["check", bad]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("5:7: error:")


def test_check_reports_parse_errors(tmp_path, capsys):
    source = tmp_path / "broken.nt"
    source.write_text("C = dot{}(A\n")
    assert main(["check", str(source)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.err.split(":")[0].isdigit()


def test_unexpected_character_is_reported_before_an_earlier_syntax_error(tmp_path, capsys):
    text = "X = = 1\nY = $"
    message = "2:5: error: unexpected character '$'"
    with pytest.raises(lang.ParseError) as err:
        lang.parse(text)
    assert str(err.value) == message
    source = tmp_path / "both.nt"
    source.write_text(text)
    assert main(["check", str(source)]) == 1
    assert capsys.readouterr().err == message + "\n"


def test_eval_outputs_tensor_text(capsys):
    assert main(["eval", MATRIX]) == 0
    out = capsys.readouterr().out
    assert "# SumH\nshape: width=3\n6 12 18\n" in out
    assert "# Dot\nshape: height=3\n11 30 31\n" in out
    assert "# Flat\nshape: layer=9\n3 1 4 1 5 9 2 6 5\n" in out


def test_eval_byte_identical_across_runs(capsys):
    main(["eval", MATRIX])
    first = capsys.readouterr().out
    main(["eval", MATRIX])
    second = capsys.readouterr().out
    assert first == second


def test_eval_print_of_a_declared_name_without_a_value(tmp_path, capsys):
    path = tmp_path / "declared.nt"
    path.write_text("axis h = 2\nA : R[h]\nprint A\n")
    assert main(["eval", str(path)]) == 1
    assert capsys.readouterr().err == "3:1: error: 'A' has no value to print\n"


def test_eval_seed_changes_random_literals(capsys):
    program = str(CORPUS / "valid" / "feedforward.nt")
    main(["eval", program, "--seed", "1"])
    one = capsys.readouterr().out
    main(["eval", program, "--seed", "1"])
    one_again = capsys.readouterr().out
    main(["eval", program, "--seed", "2"])
    two = capsys.readouterr().out
    assert one == one_again
    assert one != two


def test_eval_non_finite_det_is_nan_without_warning(tmp_path):
    source = tmp_path / "masked.nt"
    source.write_text(
        "axis d1 = 2\naxis d2 = 2\n"
        "D = det{d1, d2}([[-inf, 1], [0.5, 2]] over (d1, d2))\nprint D\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "ntensor.cli", "eval", str(source)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "# D\nshape:\nnan\n"
    assert result.stderr == ""


def test_eval_non_finite_contract_and_reductions_are_nan_without_warning(tmp_path):
    source = tmp_path / "ieee.nt"
    source.write_text(
        "axis a = 2\n"
        "X = [inf, 1] over (a)\nY = [0, 2] over (a)\nD = X .{a} Y\n"
        "Z = [inf, -inf] over (a)\n"
        "S = sum{a}(Z)\nV = var{a}(Z)\nN = standardize{a}(Z)\n"
        "print D\nprint S\nprint V\nprint N\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "ntensor.cli", "eval", str(source)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == (
        "# D\nshape:\nnan\n# S\nshape:\nnan\n# V\nshape:\nnan\n"
        "# N\nshape: a=2\nnan nan\n"
    )
    assert result.stderr == ""


def test_eval_and_grad_of_overflowing_inputs_run_without_warning(tmp_path):
    source = tmp_path / "overflow.nt"
    source.write_text(
        "axis a = 2\naxis r = 2\naxis c = 2\n"
        "X = [1000, 1] over (a)\nP = [inf, 1] over (a)\n"
        "M = [[1e308, 1e308], [1e308, -1e308]] over (r, c)\n"
        "E = exp{}(X)\nS = softmax{a}(P)\nN = norm{a}(P)\nI = inv{r, c}(M)\n"
        "L = sum{a}(E + S) + N\n"
        "print E\nprint S\nprint N\nprint I\n"
    )
    small = "4.9999999999999995e-309"
    result = subprocess.run(
        [sys.executable, "-m", "ntensor.cli", "eval", str(source)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == (
        "# E\nshape: a=2\ninf 2.7182818284590451\n# S\nshape: a=2\nnan nan\n"
        f"# N\nshape:\ninf\n# I\nshape: c=2, r=2\n{small} {small}\n{small} -{small}\n"
    )
    assert result.stderr == ""
    for wrt, want in (("X", "inf 2.7182818284590451"), ("P", "nan nan")):
        result = subprocess.run(
            [sys.executable, "-m", "ntensor.cli", "grad", str(source),
             "--of", "L", "--wrt", wrt],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout == f"shape: a=2\n{want}\n"
        assert result.stderr == ""


def test_grad_prints_tensor(capsys):
    program = str(CORPUS / "valid" / "softmax_grad.nt")
    assert main(["grad", program, "--of", "Loss", "--wrt", "X"]) == 0
    out = capsys.readouterr().out
    tensor = NamedTensor.from_text(out)
    assert tensor.shape.names == ("ax",)


def test_grad_uses_grad_directive_for_default_target(capsys):
    program = str(CORPUS / "valid" / "softmax_grad.nt")
    assert main(["grad", program, "--wrt", "X"]) == 0
    default_out = capsys.readouterr().out
    main(["grad", program, "--of", "Loss", "--wrt", "X"])
    explicit_out = capsys.readouterr().out
    assert default_out == explicit_out


def test_grad_error_for_non_literal_wrt(capsys):
    program = str(CORPUS / "valid" / "softmax_grad.nt")
    assert main(["grad", program, "--of", "Loss", "--wrt", "Y"]) == 1
    assert "literal" in capsys.readouterr().err


def test_grad_error_carries_the_span_of_the_failing_node(capsys):
    # the derivative in Sigma passes through inv{d1, d2}(Sigma) at 8:5
    program = str(CORPUS / "valid" / "mvn.nt")
    assert main(["grad", program, "--of", "Density", "--wrt", "Sigma"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "8:5: error: differentiation through inv is not supported\n"


def test_grad_beside_constant_det_and_inv_matches_central_differences(capsys):
    # det and inv read only Sigma, so the derivative in X never passes them
    path = CORPUS / "valid" / "mvn.nt"
    assert main(["grad", str(path), "--of", "Density", "--wrt", "X"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    got = NamedTensor.from_text(captured.out)
    source = path.read_text()
    x = [0.3, -0.2]
    assert "X = [0.3, -0.2] over (d)" in source
    for i in range(2):
        h = 1e-6 * (1.0 + abs(x[i]))
        outs = []
        for delta in (h, -h):
            bumped = list(x)
            bumped[i] += delta
            text = source.replace("X = [0.3, -0.2]", f"X = [{bumped[0]!r}, {bumped[1]!r}]")
            outs.append(lang.evaluate_program(lang.parse(text))["Density"].item())
        numeric = (outs[0] - outs[1]) / (2.0 * h)
        assert abs(numeric - got.get({"d": i + 1})) <= 1e-6 * max(1.0, abs(numeric))


def test_zoo_list_and_run(capsys):
    assert main(["zoo", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "attention" in names and "transformer" in names and "sudoku" in names
    assert main(["zoo", "run", "attention", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "max deviation" in out
    assert main(["zoo", "run", "nonexistent"]) == 1


@pytest.mark.parametrize("argv", [["eval", MATRIX], ["grad", MATRIX, "--wrt", "A"],
                                  ["zoo", "run", "attention"]], ids=["eval", "grad", "zoo"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_64_bits_is_a_usage_error(argv, seed, capsys):
    # SplitMix64 reads its seed modulo 2**64: -1 would alias 2**64 - 1, 2**64 alias 0
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--seed", str(seed)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --seed: {seed} is outside 0..{2**64 - 1}\n")
    assert main(["eval", MATRIX, "--seed", str(2**64 - 1)]) == 0


def test_missing_file(capsys):
    assert main(["check", "no_such_file.nt"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_file(kind, tmp_path, capsys):
    # a file that cannot be read or decoded is reported like a missing one
    path = {"missing": tmp_path / "no_such_file.nt", "directory": tmp_path,
            "not_utf8": tmp_path / "latin1.nt"}[kind]
    if kind == "not_utf8":
        path.write_bytes(b"\xffaxis a = 2\n")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(path)) in err


def test_unexpected_exception_is_one_line_internal_error(monkeypatch, capsys):
    def broken(program, seed=0):
        raise RuntimeError("evaluator fell over\nsecond line")

    monkeypatch.setattr(lang, "run_program", broken)
    assert main(["eval", MATRIX]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: RuntimeError: evaluator fell over second line\n"


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ntensor.cli", "eval", MATRIX],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "# Total\nshape:\n36\n" in proc.stdout


def test_eval_batched_singular_matrix_names_the_matrix(tmp_path, capsys):
    source = tmp_path / "stack.nt"
    source.write_text(
        "axis b = 3\naxis d1 = 2\naxis d2 = 2\n"
        "S = [[[1, 0], [0, 1]], [[1, 2], [2, 4]], [[2, 0], [0, 2]]] over (b, d1, d2)\n"
        "D = det{d1, d2}(S)\nprint D\n"
    )
    assert main(["eval", str(source)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "5:5: error: pivot 0 below 1e-12 of matrix scale 4 at {b(2)}\n"
