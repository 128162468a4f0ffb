"""Shared test utilities: loop oracles, finite differences, random inputs.

The loop oracles here are the independent second route for the library's
operations: they work record by record off the element-level formulas,
using dicts keyed by sorted (name, index) tuples, and never call the
vectorized code paths they are checking.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ntensor import Axis, NamedTensor, Record, Shape, SplitMix64
from ntensor import _blas
from ntensor import autodiff as ad

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath


# ---------------------------------------------------------------------------
# the numeric environment of byte pins

# The byte pins of test_pins and test_rng hash 17-digit output.  Another
# OpenBLAS kernel or numpy SIMD loop rounds in its own order and may move
# the last bits of a correct result, so a pin holds only in the numeric
# environment it was taken under:
PINNED_UNDER = ("numpy 2.4.6, OpenBLAS core SkylakeX, "
                "numpy dispatch X86_V3 X86_V4 AVX512_ICL AVX512_SPR")


def numeric_environment() -> str:
    """numpy's version, OpenBLAS's core name and numpy's enabled AVX2 and
    AVX-512 dispatch targets in this process, in ``PINNED_UNDER``'s form."""
    enabled = [name for name in _umath.__cpu_dispatch__
               if _umath.__cpu_features__.get(name) and ("AVX" in name or "X86_V" in name)]
    return (f"numpy {np.__version__}, OpenBLAS core {_blas.core_name()}, "
            f"numpy dispatch {' '.join(enabled) or 'none'}")


def pin_mismatch() -> str:
    """The message of a failed byte pin: the environment it ran in and the
    one the pins were taken under."""
    return (f"output differs from its pin; this process runs {numeric_environment()}; "
            f"the pins were taken under {PINNED_UNDER}")


# ---------------------------------------------------------------------------
# record-map oracles

def rkey(*records) -> tuple:
    pairs = []
    for r in records:
        pairs.extend(r)
    return tuple(sorted(pairs))


def to_map(t: NamedTensor) -> dict:
    return {rkey(r): v for r, v in t.items()}


def from_map(shape: Shape, m: dict) -> NamedTensor:
    return NamedTensor.from_entries(shape, {Record(dict(k)): v for k, v in m.items()})


def loop_elementwise(op, a: NamedTensor, b: NamedTensor) -> dict:
    union = a.shape.union(b.shape)
    da, db = to_map(a), to_map(b)
    out = {}
    for r in union.records():
        ra = r.restrict(a.shape)
        rb = r.restrict(b.shape)
        out[rkey(r)] = op(da[rkey(ra)], db[rkey(rb)])
    return out


def loop_reduce(a: NamedTensor, kind: str, axes) -> dict:
    kept = a.shape.drop(axes)
    red = a.shape.keep(axes)
    d = to_map(a)
    out = {}
    for r_out in kept.records():
        vals = [d[rkey(r_out, r_in)] for r_in in red.records()]
        if kind == "sum":
            v = sum(vals)
        elif kind == "min":
            v = min(vals)
        elif kind == "max":
            v = max(vals)
        elif kind == "mean":
            v = sum(vals) / len(vals)
        elif kind == "var":
            m = sum(vals) / len(vals)
            v = sum((x - m) ** 2 for x in vals) / len(vals)
        elif kind == "norm":
            v = math.sqrt(sum(x * x for x in vals))
        else:
            raise ValueError(kind)
        out[rkey(r_out)] = v
    return out


def loop_contract(a: NamedTensor, b: NamedTensor, axes) -> dict:
    union = a.shape.union(b.shape)
    kept = union.drop(axes)
    red = union.keep(axes)
    da, db = to_map(a), to_map(b)
    out = {}
    for r_out in kept.records():
        acc = 0.0
        for r_in in red.records():
            full = Record(dict(rkey(r_out, r_in)))
            acc += da[rkey(full.restrict(a.shape))] * db[rkey(full.restrict(b.shape))]
        out[rkey(r_out)] = acc
    return out


def loop_softmax(a: NamedTensor, axes) -> dict:
    kept = a.shape.drop(axes)
    red = a.shape.keep(axes)
    d = to_map(a)
    out = {}
    for r_out in kept.records():
        fiber = [(r_in, d[rkey(r_out, r_in)]) for r_in in red.records()]
        m = max(v for _, v in fiber)
        exps = [(r_in, math.exp(v - m) if v != -math.inf else 0.0) for r_in, v in fiber]
        z = sum(v for _, v in exps)
        for r_in, v in exps:
            out[rkey(r_out, r_in)] = v / z
    return out


def loop_arg_extremum(a: NamedTensor, axes, minimize: bool) -> dict:
    kept = a.shape.drop(axes)
    red = a.shape.keep(axes)
    d = to_map(a)
    out = {}
    for r_out in kept.records():
        fiber = [(r_in, d[rkey(r_out, r_in)]) for r_in in red.records()]
        best = min(v for _, v in fiber) if minimize else max(v for _, v in fiber)
        ties = [r_in for r_in, v in fiber if v == best]
        for r_in, _ in fiber:
            out[rkey(r_out, r_in)] = (1.0 / len(ties)) if r_in in ties else 0.0
    return out


def loop_standardize(a: NamedTensor, axes, eps: float = 1e-5) -> dict:
    means = loop_reduce(a, "mean", axes)
    variances = loop_reduce(a, "var", axes)
    kept = a.shape.drop(axes)
    d = to_map(a)
    out = {}
    for r in a.shape.records():
        k = rkey(r.restrict(kept))
        out[rkey(r)] = (d[rkey(r)] - means[k]) / math.sqrt(variances[k] + eps)
    return out


def loop_unroll(a: NamedTensor, seq: str, kernel: Axis) -> dict:
    d = to_map(a)
    n = a.shape.size(seq)
    rest = a.shape.drop([seq])
    out = {}
    for r in rest.records():
        for i in range(1, n - kernel.size + 2):
            for j in range(1, kernel.size + 1):
                out[rkey(r, Record({seq: i, kernel.name: j}))] = d[
                    rkey(r, Record({seq: i + j - 1}))
                ]
    return out


def loop_split(a: NamedTensor, src: str, outer: Axis, inner: Axis) -> dict:
    d = to_map(a)
    rest = a.shape.drop([src])
    out = {}
    for r in rest.records():
        for i in range(1, outer.size + 1):
            for j in range(1, inner.size + 1):
                out[rkey(r, Record({outer.name: i, inner.name: j}))] = d[
                    rkey(r, Record({src: (i - 1) * inner.size + j}))
                ]
    return out


def loop_merge(a: NamedTensor, parts, merged: Axis) -> dict:
    d = to_map(a)
    rest = a.shape.drop(parts)
    sizes = [a.shape.size(p) for p in parts]
    out = {}
    for r in rest.records():
        for flat, idx in enumerate(itertools.product(*(range(s) for s in sizes))):
            part_rec = Record({p: i + 1 for p, i in zip(parts, idx)})
            out[rkey(r, Record({merged.name: flat + 1}))] = d[rkey(r, part_rec)]
    return out


def loop_rename(a: NamedTensor, old: str, new: str) -> dict:
    out = {}
    for r, v in a.items():
        pairs = [(new if n == old else n, i) for n, i in r]
        out[tuple(sorted(pairs))] = v
    return out


def loop_index_select(a: NamedTensor, ax: str, idx: NamedTensor) -> dict:
    rest = a.shape.drop([ax])
    out_shape = rest.union(idx.shape)
    da, di = to_map(a), to_map(idx)
    out = {}
    for r in out_shape.records():
        i = int(di[rkey(r.restrict(idx.shape))])
        a_rec = Record(dict(list(r.restrict(rest)) + [(ax, i)]))
        out[rkey(r)] = da[rkey(a_rec)]
    return out


def assert_matches(t: NamedTensor, expected: dict, atol: float = 0.0):
    got = to_map(t)
    assert set(got) == set(expected), (
        f"record spaces differ: {set(got) ^ set(expected)}"
    )
    for k, v in expected.items():
        if atol == 0.0:
            assert got[k] == v, f"at {k}: got {got[k]!r}, want {v!r}"
        else:
            assert abs(got[k] - v) <= atol, (
                f"at {k}: got {got[k]!r}, want {v!r} (atol {atol})"
            )


# ---------------------------------------------------------------------------
# random generation

NAME_POOL = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")


def random_shape(rng: SplitMix64, max_axes: int = 3, max_size: int = 4,
                 min_axes: int = 0, pool=NAME_POOL) -> Shape:
    count = rng.next_int(min_axes, max_axes)
    names = list(pool)
    for i in range(len(names) - 1, 0, -1):
        j = rng.next_int(0, i)
        names[i], names[j] = names[j], names[i]
    return Shape(Axis(names[i], rng.next_int(1, max_size)) for i in range(count))


def random_tensor(rng: SplitMix64, shape: Shape, lo: float = -1.0, hi: float = 1.0) -> NamedTensor:
    span = hi - lo
    vals = [lo + span * rng.next_float() for _ in range(shape.num_records)]
    return NamedTensor(shape, np.asarray(vals).reshape(shape.sizes))


def pick(rng: SplitMix64, items):
    items = list(items)
    return items[rng.next_int(0, len(items) - 1)]


def pick_subset(rng: SplitMix64, items, min_count: int = 1):
    items = list(items)
    count = rng.next_int(min_count, len(items))
    chosen = []
    pool = items[:]
    for _ in range(count):
        c = pick(rng, pool)
        pool.remove(c)
        chosen.append(c)
    return chosen


# ---------------------------------------------------------------------------
# finite differences

def fd_jacobian_entries(f, x: NamedTensor, scale: float = 1e-6):
    """Yield (in_record, out_shape_map) of central-difference derivatives."""
    for s in x.shape.records():
        base = x.get(s) if len(x.shape) else x.item()
        h = scale * (1.0 + abs(base))
        arrs = []
        for delta in (h, -h):
            bumped = x.array.copy()
            if len(x.shape):
                bumped[tuple(s[n] - 1 for n in x.shape.names)] += delta
            else:
                bumped += delta
            arrs.append(f(NamedTensor(x.shape, bumped)))
        plus, minus = arrs
        diff = (plus.array - minus.array) / (2.0 * h)
        yield s, NamedTensor(plus.shape, diff)


def fd_safe(expr: ad.Expr, env: dict, margin: float = 1e-3) -> bool:
    """True if no intermediate sits near a relu kink, max tie, or pole."""
    order, vals = ad._forward([expr], dict(env), None)
    for node in order:
        if isinstance(node, ad.Unary):
            child = vals[id(node.child)].array
            if isinstance(node, ad.Relu) and child.size and np.min(np.abs(child)) < margin:
                return False
            if isinstance(node, (ad.Log, ad.Sqrt)) and child.size and np.min(child) < margin:
                return False
        elif isinstance(node, ad.Div):
            denom = vals[id(node.b)].array
            if denom.size and np.min(np.abs(denom)) < 0.05:
                return False
        elif isinstance(node, ad.Reduce):
            if node.red in ("max", "min") and node.axes:
                x = vals[id(node.child)]
                pos = [x.shape.names.index(a) for a in node.axes]
                moved = np.moveaxis(x.array, pos, range(-len(pos), 0))
                flat = moved.reshape(moved.shape[: moved.ndim - len(pos)] + (-1,))
                if flat.shape[-1] >= 2:
                    ordered = np.sort(flat, axis=-1)
                    if np.min(ordered[..., -1] - ordered[..., -2]) < margin:
                        return False
            if node.red == "norm":
                out = vals[id(node)].array
                if out.size and np.min(np.abs(out)) < margin:
                    return False
    return True


_COMPOSITION_OPS = (
    "sigma", "exp", "scale", "addc", "mulc", "softmax", "standardize",
    "mean", "sum", "var", "max", "relu", "contract", "rename", "unroll",
)


def _random_composition_once(rng: SplitMix64):
    shape = random_shape(rng, max_axes=3, max_size=4, min_axes=1, pool=("m", "n", "o"))
    env = {"X": random_tensor(rng, shape, lo=-1.5, hi=1.5)}
    expr = ad.var("X")
    cur = shape
    fresh = 0
    count = 0
    target = rng.next_int(3, 6)
    guard = 0
    while count < target and guard < 60:
        guard += 1
        op = pick(rng, _COMPOSITION_OPS)
        needs_axes = op in ("softmax", "standardize", "mean", "sum", "var", "max")
        if needs_axes and not len(cur):
            continue
        if op == "sigma":
            expr = ad.sigmoid(expr)
        elif op == "exp":
            expr = ad.exp(ad.mul(expr, 0.4))
        elif op == "scale":
            expr = ad.mul(expr, 0.5 + rng.next_float())
        elif op in ("addc", "mulc"):
            sub_names = pick_subset(rng, cur.names) if len(cur) else []
            c = random_tensor(rng, cur.keep(sub_names), lo=-1.0, hi=1.0)
            expr = ad.add(expr, c) if op == "addc" else ad.mul(expr, c)
        elif op == "softmax":
            expr = ad.softmax(expr, pick_subset(rng, cur.names))
        elif op == "standardize":
            expr = ad.standardize(expr, pick_subset(rng, cur.names))
        elif op in ("mean", "sum", "var", "max"):
            expr = ad.reduce(expr, op, pick_subset(rng, cur.names))
        elif op == "relu":
            expr = ad.relu(expr)
        elif op == "contract":
            if not len(cur):
                continue
            shared = pick_subset(rng, cur.names)
            other_shape = cur.keep(shared)
            if rng.next_int(0, 1):
                other_shape = other_shape.union(
                    Shape([Axis(f"extra{fresh}", rng.next_int(1, 3))])
                )
                fresh += 1
            other = random_tensor(rng, other_shape)
            expr = ad.contract(expr, other, shared)
        elif op == "rename":
            if not len(cur):
                continue
            old = pick(rng, cur.names)
            expr = ad.rename(expr, old, f"{old}_r{fresh}")
            fresh += 1
        else:  # unroll
            candidates = [n for n in cur.names if cur.size(n) >= 2]
            if not candidates:
                continue
            seq = pick(rng, candidates)
            k = rng.next_int(2, cur.size(seq))
            expr = ad.unroll(expr, seq, f"win{fresh}", k)
            fresh += 1
        count += 1
        cur = ad.infer_shape(expr, env)
        if cur.num_records > 48:
            expr = ad.reduce(expr, "sum", [pick(rng, cur.names)])
            cur = ad.infer_shape(expr, env)
    return expr, env


def random_composition(rng: SplitMix64, attempts: int = 40):
    """A random 3-6 op differentiable expression, safe for finite differences."""
    for _ in range(attempts):
        expr, env = _random_composition_once(rng)
        if fd_safe(expr, env):
            return expr, env
    raise AssertionError("could not build an fd-safe composition")


def check_jacobian(expr: ad.Expr, wrt: str, env: dict, rtol: float = 1e-6,
                   scale: float = 1e-6) -> float:
    """Compare the dense jacobian with central differences; returns max rel err."""
    deriv = ad.jacobian(expr, wrt, env)
    x = env[wrt]
    out_shape = ad.infer_shape(expr, env)

    def f(xt):
        patched = dict(env)
        patched[wrt] = xt
        return ad.evaluate(expr, patched)

    worst = 0.0
    for s, fd in fd_jacobian_entries(f, x, scale):
        for t in out_shape.records():
            numeric = fd.get(t) if len(out_shape) else fd.item()
            primed = Record(
                {deriv.rename_map.get(n, n): i for n, i in t}
            )
            analytic = deriv.value.get(Record(dict(list(s) + list(primed))))
            rel = abs(numeric - analytic) / max(1.0, abs(numeric), abs(analytic))
            worst = max(worst, rel)
    assert worst <= rtol, f"jacobian mismatch: rel err {worst:.3e} > {rtol}"
    return worst
