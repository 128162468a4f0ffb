"""Outside-in tracing of ntensor's public functions.

``Tracer.install`` replaces each traced function at the attribute its
callers look up: module attributes for ``ops``, ``autodiff``, ``lift``,
``lang`` and ``zoo``, and class attributes for ``SplitMix64.floats``,
``TensorFunction.__call__`` (one lifted base call) and
``NamedTensor.to_text``.  Every call records a span (name, parent, start,
end) and a count: output entries for ``ops``, draws for ``rng``.  Spans
stay in memory until the run ends.  Nothing in the package itself changes.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

# ops functions by the layer metric they report under; any public op not
# listed here is traced under ``ops.other``.  Shape rules (``*_shape``) are
# not kernels and are left untraced.
OPS_GROUPS = {
    "elementwise": ("add", "sub", "mul", "div", "pow_", "neg", "map_elementwise",
                    "relu", "sigmoid", "exp", "log", "sqrt"),
    "reduce": ("reduce",),
    "contract": ("contract",),
    "softmax": ("softmax",),
    "select": ("argmax", "argmin", "maxk", "argmaxk"),
    "standardize": ("standardize",),
    "structural": ("rename", "rename_many", "merge_axes", "split_axis", "unroll",
                   "index_select", "identity"),
    "linalg": ("det", "inv"),
}
LAYERS = ("lang", "rng", "autodiff", "ops", "lift", "tensor", "zoo")
SMALL_OUTPUT = 64  # entries; ``ops.small_call_us`` covers calls up to this size
ROOT = "request"


def _entries(value) -> int:
    array = getattr(value, "array", None)
    return int(array.size) if array is not None else 1


def _union_entries(a, b) -> int:
    shapes = [getattr(t, "shape", None) for t in (a, b)]
    shapes = [s for s in shapes if s is not None]
    if not shapes:
        return 1
    union = shapes[0] if len(shapes) == 1 else shapes[0].union(shapes[1])
    return int(union.num_records)


class Tracer:
    """Span recorder for one run.  ``install`` and ``uninstall`` patch and
    restore the package; ``begin``/``end`` bracket one request."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.entries = []  # output entries of ops spans, draws of rng spans, else 0
        self.union = {}  # contract span index -> entries of the operand union
        self.requests = []  # (root span index, end index) per request
        self._stack = [-1]
        self._patched = None

    # -- patching ----------------------------------------------------------

    def _wrap(self, name, fn, count=None):
        names, parents, starts, ends, entries = (
            self.names, self.parents, self.starts, self.ends, self.entries
        )
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            entries.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                entries[idx] = count(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _contract_wrapper(self, fn):
        traced = self._wrap("ops.contract.contract", fn, count=_entries)
        union, names = self.union, self.names

        def contract(a, b, *args, **kwargs):
            union[len(names)] = _union_entries(a, b)
            return traced(a, b, *args, **kwargs)

        contract.__wrapped__ = fn
        return contract

    def _targets(self) -> list:
        """(owner, attribute, original, wrapper) for every traced function."""
        import ntensor
        from ntensor import autodiff, lang, lift, ops, tensor, zoo
        from ntensor.lang import run as lang_run

        targets = []

        def add(owners, attr, wrapper):
            for owner in owners:
                targets.append((owner, attr, owner.__dict__[attr], wrapper))

        group_of = {fn: group for group, fns in OPS_GROUPS.items() for fn in fns}
        for attr in ops.__all__:
            if attr.endswith("_shape"):
                continue
            fn = getattr(ops, attr)
            if attr == "contract":
                add([ops], attr, self._contract_wrapper(fn))
            else:
                name = f"ops.{group_of.get(attr, 'other')}.{attr}"
                add([ops], attr, self._wrap(name, fn, count=_entries))

        add([ntensor.SplitMix64], "floats",
            self._wrap("rng.floats", ntensor.SplitMix64.floats, count=len))
        for attr in ("evaluate", "vjp", "jacobian"):
            add([autodiff], attr, self._wrap(f"autodiff.{attr}", getattr(autodiff, attr)))
        add([lift], "extend", self._wrap("lift.extend", lift.extend))
        add([lift.TensorFunction], "__call__",
            self._wrap("lift.base", lift.TensorFunction.__call__))
        add([lang], "parse", self._wrap("lang.parse", lang.parse))
        add([lang], "check", self._wrap("lang.check", lang.check))
        # grad_program reaches run_program through its own module's globals.
        add([lang, lang_run], "run_program", self._wrap("lang.run_program", lang.run_program))
        add([lang, lang_run], "grad_program", self._wrap("lang.grad_program", lang.grad_program))
        add([tensor.NamedTensor], "to_text",
            self._wrap("tensor.to_text", tensor.NamedTensor.to_text))
        for attr in ("transformer_lm", "lenet", "beam_step", "mvn_density"):
            add([zoo], attr, self._wrap(f"zoo.{attr}", getattr(zoo, attr)))
        return targets

    def install(self):
        if self._patched is None:
            self._patched = self._targets()
        for owner, attr, _, wrapper in self._patched:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patched:
            setattr(owner, attr, original)

    # -- requests ------------------------------------------------------------

    def begin(self):
        idx = len(self.names)
        self.names.append(ROOT)
        self.parents.append(-1)
        self.ends.append(0.0)
        self.entries.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self.requests.append((idx, len(self.names)))

    # -- results -------------------------------------------------------------

    def self_times(self) -> list:
        """Self time in seconds of every span."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def metrics(self, untraced_p50_ms: float, traced_p50_ms: float) -> dict:
        """Per-layer metrics as ``name: (value, unit)``, each per traced
        request unless it is a median, minimum or ratio."""
        n = len(self.requests)
        own = self.self_times()
        self_s = defaultdict(float)
        calls = defaultdict(int)
        small = []
        coverage = []
        for root, stop in self.requests:
            self_s[ROOT] += own[root]
            top = 0.0
            for i in range(root + 1, stop):
                name = self.names[i]
                self_s[name] += own[i]
                calls[name] += 1
                if self.parents[i] == root:
                    top += self.ends[i] - self.starts[i]
                if name.startswith("ops.") and self.entries[i] <= SMALL_OUTPUT:
                    small.append(own[i])
            coverage.append(top / (self.ends[root] - self.starts[root]))

        def ms(prefix):
            return 1e3 * sum(v for k, v in self_s.items() if k.startswith(prefix)) / n

        def count(prefix):
            return sum(v for k, v in calls.items() if k.startswith(prefix)) / n

        union_bytes = out_bytes = draws = 0
        for root, stop in self.requests:
            for i in range(root + 1, stop):
                if i in self.union:
                    union_bytes += 8 * self.union[i]
                    out_bytes += 8 * self.entries[i]
                elif self.names[i] == "rng.floats":
                    draws += self.entries[i]
        m = {
            "rng.floats.self_ms": (ms("rng.floats"), "ms"),
            "rng.draws": (draws / n, "count"),
            "lang.parse.self_ms": (ms("lang.parse"), "ms"),
            "lang.check.self_ms": (ms("lang.check"), "ms"),
            "lang.run_program.self_ms": (ms("lang.run_program"), "ms"),
            "lang.grad_program.self_ms": (ms("lang.grad_program"), "ms"),
            "tensor.to_text.self_ms": (ms("tensor.to_text"), "ms"),
            "autodiff.evaluate.self_ms": (ms("autodiff.evaluate"), "ms"),
            "autodiff.evaluate.calls": (count("autodiff.evaluate"), "count"),
            "autodiff.jacobian.self_ms": (ms("autodiff.jacobian"), "ms"),
            "ops.calls": (count("ops."), "count"),
            "ops.small_call_us": (1e6 * statistics.median(small) if small else 0.0, "us"),
            "ops.contract.calls": (count("ops.contract."), "count"),
            "ops.contract.union_mb": (union_bytes / 1e6 / n, "MB"),
            "ops.contract.out_mb": (out_bytes / 1e6 / n, "MB"),
            "ops.contract.union_ratio": (union_bytes / out_bytes if out_bytes else 0.0, "ratio"),
            "lift.extend.self_ms": (ms("lift.extend"), "ms"),
            "lift.extend.base_calls": (count("lift.base"), "count"),
            "zoo.models.self_ms": (ms("zoo."), "ms"),
            "request.self_ms": (ms(ROOT), "ms"),
            "trace.top_coverage": (min(coverage), "ratio"),
            "trace.overhead_ratio": (traced_p50_ms / untraced_p50_ms, "ratio"),
        }
        for group in (*OPS_GROUPS, "other"):
            m[f"ops.{group}.self_ms"] = (ms(f"ops.{group}."), "ms")
        for layer in LAYERS:
            # The self time of rng, tensor and zoo as a whole is already
            # reported above, as rng.floats, tensor.to_text and zoo.models.
            if layer not in ("rng", "tensor", "zoo"):
                m[f"{layer}.self_ms"] = (ms(f"{layer}."), "ms")
            m[f"{layer}.spans"] = (count(f"{layer}."), "count")
        return m

    def write(self, path, t0: float):
        """Write every span as a tab-separated line, times in microseconds
        from ``t0``."""
        own = self.self_times()
        with open(path, "w") as f:
            f.write("id\tparent\tname\tstart_us\tdur_us\tself_us\tout_entries\n")
            for i, name in enumerate(self.names):
                f.write(
                    f"{i}\t{self.parents[i]}\t{name}\t{(self.starts[i] - t0) * 1e6:.1f}\t"
                    f"{(self.ends[i] - self.starts[i]) * 1e6:.1f}\t{own[i] * 1e6:.1f}\t"
                    f"{self.entries[i]}\n"
                )
