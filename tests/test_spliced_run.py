"""One graph per program: ``ad.evaluate`` over several roots, ``ad.splice``
with draws, and the runner and differentiator built on them."""

import numpy as np
import pytest

from ntensor import Shape, SplitMix64, ops
from ntensor import autodiff as ad
from ntensor import lang, zoo
from ntensor.cli import main
from ntensor.lang.parse import Binding

import helpers as H


def _rand(seed, **sizes):
    return H.random_tensor(SplitMix64(seed), Shape.of(**sizes))


# ---------------------------------------------------------------------------
# ad.evaluate over a mapping

def test_evaluate_over_a_mapping_equals_each_root_alone(monkeypatch):
    x = ad.var("X")
    shared = ad.exp(x)
    roots = {"A": shared + 1.0, "B": ad.sum_(shared * x, ["a"])}
    roots["C"] = roots["A"] * roots["B"]  # a later root reads an earlier one
    env = {"X": _rand(0, a=3, b=2)}
    alone = {name: ad.evaluate(root, env) for name, root in roots.items()}

    calls = []
    real_exp = ops.exp

    def counting(t):
        calls.append(t)
        return real_exp(t)

    monkeypatch.setattr(ops, "exp", counting)
    together = ad.evaluate(roots, env)
    assert list(together) == ["A", "B", "C"]
    assert together == alone
    assert len(calls) == 1  # the shared exp runs once for all three roots


def test_evaluate_over_an_empty_mapping_is_empty():
    assert ad.evaluate({}, {}) == {}


# ---------------------------------------------------------------------------
# ad.splice with draws

def test_splice_draws_each_random_literal_once_in_program_order():
    r = [ad.random_literal(["a"]) for _ in range(7)]
    bindings = [
        ("R", r[0]),
        # depth-first, left to right: r1, r2, r3, then r4, r5
        ("S", (r[1] + r[2]) * r[3] + ad.var("R") * (r[4] - r[5])),
        ("T", ad.exp(r[6]) + ad.var("S")),
        ("U", r[6] * ad.var("T")),  # r6 is shared with T
    ]
    seen, values = [], {}

    def draw(node):
        seen.append(node)
        values[id(node)] = ad.const(_rand(len(seen), a=2))
        return values[id(node)]

    graphs = ad.splice(bindings, draw)
    assert [id(node) for node in seen] == [id(node) for node in r]
    assert set(graphs) == {"S", "T", "U"}
    leaves = ad._topo(graphs["U"])
    drawn = [n for n in leaves if isinstance(n, ad.Const)]
    assert sorted(map(id, drawn)) == sorted(id(values[id(n)]) for n in r[1:])
    assert not any(isinstance(n, ad.RandomLiteral) for n in leaves)
    # R was drawn, but its read stays a variable
    assert [n.name for n in leaves if isinstance(n, ad.Var)] == ["R"]
    # T's exp and U's product read the one constant drawn for r6
    exp_r6 = graphs["T"].children()[0]
    assert exp_r6.children()[0] is graphs["U"].children()[0] is values[id(r[6])]


def test_splice_drops_the_graph_of_a_name_bound_again():
    bindings = [("A", ad.var("X") + 1.0), ("B", ad.var("A") * 2.0),
                ("A", ad.const(1.0))]
    graphs = ad.splice(bindings)
    assert set(graphs) == {"B"}
    assert graphs["B"].children()[0] == ad.var("X") + 1.0


# ---------------------------------------------------------------------------
# programs

def test_random_literals_nested_in_read_bindings_feed_eval_and_grad():
    """Random literals inside computed bindings that later bindings read
    hold the same values in ``evaluate_program`` and ``grad_program``."""
    program = lang.parse(
        "axis ax = 3\nX = [0.5, 1.5, -0.25] over (ax)\n"
        "Y = X * random over (ax)\nZ = Y + random over (ax)\n"
        "S = sum{ax}(Z * Y)\n"
    )
    env = lang.evaluate_program(program, seed=7)
    x, y, z = (env[name].to_array(["ax"]) for name in "XYZ")
    r1, r2 = y / x, z - y
    want = 2.0 * x * r1 ** 2 + r1 * r2  # dS/dX of sum((X r1 + r2) X r1)
    got = lang.grad_program(program, "S", "X", seed=7).value.to_array(["ax"])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_run_reports_the_first_binding_that_fails():
    """The spliced graph runs binding by binding in program order, so the
    error is the one the earliest failing binding raises."""
    program = lang.parse(
        "axis a = 2\naxis b = 2\nZ = [[0, 0], [0, 0]] over (a, b)\n"
        "D = det{a, b}(Z)\nS = softmax{a}([-inf, -inf] over (a)) + D\n"
        "T = softmax{a}([-inf, -inf] over (a))\n"
    )
    assert lang.check(program) == []
    with pytest.raises(lang.RunError) as err:
        lang.run_program(program)
    assert (err.value.line, err.value.col) == (4, 5)


def test_run_and_grad_walk_each_binding_once(monkeypatch):
    """``run_program`` and ``grad_program`` splice every binding in one walk
    and then walk the spliced graph once."""
    program = lang.parse(zoo.transformer_program())
    bindings = sum(isinstance(st, Binding) for st in program.statements)
    walks = []
    real_topo = ad._topo

    def counting(*roots):
        walks.append(roots)
        return real_topo(*roots)

    monkeypatch.setattr(ad, "_topo", counting)
    lang.run_program(program)
    assert len(walks) <= bindings + 1
    walks.clear()
    lang.grad_program(program, "O", "I")
    assert len(walks) <= bindings + 1


_BIG = "axis i = 10000000000\naxis j = 10000000000\n"


@pytest.mark.parametrize("source, span", [
    (_BIG + "X = random over (i, j)\n", "3:5"),
    (_BIG + "A = random over (i)\nB = random over (j)\nS = sum{i, j}(A + B)\n", "5:17"),
], ids=["literal", "sum"])
def test_eval_refuses_values_numpy_cannot_hold(tmp_path, capsys, monkeypatch, source, span):
    """The check refuses them, so nothing is drawn or allocated."""
    def unreachable(program, seed=0):
        raise AssertionError("a program that does not check was run")

    monkeypatch.setattr(lang, "run_program", unreachable)
    path = tmp_path / "big.nt"
    path.write_text(source)
    with pytest.raises(SystemExit) as exit_:
        main(["eval", str(path)])
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{span}: error: {{i[10000000000], j[10000000000]}} has ")
    assert "a numpy array can hold" in err
    assert "internal" not in err
