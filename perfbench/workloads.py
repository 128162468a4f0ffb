"""The benchmark workloads and the four kinds of request they combine.

Each workload is built from one seed in set-up and then answers requests in
a closed loop.  The package sees only the inputs generated here.  A workload,
like each kind of request, offers four calls:

* ``prepare(i)`` returns the inputs of request ``i``; it runs outside the
  timed region, and inputs are a pure function of the seed and ``i``
  (drawn from ``_request_rng``);
* ``request(inputs)`` is the timed call into the package;
* ``check(inputs, out)`` is a cheap independent check made on every request;
* ``verify(inputs, out)`` compares one request against the plain-loop
  oracles in ``ntensor.zoo.oracles`` (or finite differences) and is made on
  a few sampled requests, because the oracles take up to a second.

Both checks run outside the timed region and return an error message, or
``None`` when the output is correct.  Package functions are looked up on
their modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import random

import numpy as np

import ntensor
from ntensor import lang, zoo
from ntensor.zoo import fixtures, oracles

NamedTensor = ntensor.NamedTensor

# Absolute tolerances of the zoo fixtures against the same oracles.
ZOO_ATOL = 1e-12
LENET_ATOL = 1e-10
# The language-model outputs saturate: one entry per position is 1.0 and
# the rest can be as small as 1e-40, far below ZOO_ATOL.  Entries above
# TINY are therefore also compared relatively, so that an error in the
# logits still shows.
LM_RTOL = 1e-9
TINY = 1e-250
# Relative tolerance of the gradient checks (acceptance criterion 3).
FD_RTOL = 1e-6
# Softmax outputs sum to one; their derivatives sum to zero.
SUM_ATOL = 1e-12


def _request_rng(part: str, seed: int, i: int) -> random.Random:
    """The random source of ``part`` in request ``i`` of the workload built
    from ``seed``."""
    return random.Random(f"{part}:{seed}:{i}")


def _fmt(values) -> str:
    if isinstance(values, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in values) + "]"
    return repr(float(values))


def _replace_binding(text: str, name: str, rhs: str) -> str:
    """``text`` with the line binding ``name`` rebound to ``rhs``."""
    lines = text.split("\n")
    (pos,) = [k for k, line in enumerate(lines) if line.startswith(f"{name} = ")]
    lines[pos] = f"{name} = {rhs}"
    return "\n".join(lines)


def _onehot_rows(tokens, vocab: int) -> list:
    return [[1.0 if v == tok else 0.0 for v in range(vocab)] for tok in tokens]


def _max_dev(got: np.ndarray, want) -> float:
    return float(np.max(np.abs(got - np.asarray(want, dtype=float))))


def _lm_error(got: np.ndarray, want) -> str:
    """Why a language-model output differs from its oracle, or ``None``."""
    want = np.asarray(want, dtype=float)
    dev = _max_dev(got, want)
    if not dev <= ZOO_ATOL:
        return f"deviates from the oracle by {dev:.3e}"
    big = np.abs(want) > TINY
    rel = float(np.max(np.abs(got[big] - want[big]) / np.abs(want[big])))
    if not rel <= LM_RTOL:
        return f"deviates from the oracle by {rel:.3e} relative"
    return None


def _softmax_sum_error(t: NamedTensor, axis: str) -> float:
    return float(np.max(np.abs(t.array.sum(axis=t.shape.names.index(axis)) - 1.0)))


def _transformer_oracle_params(env, depth: int):
    """Plain-list parameters of a ``zoo.transformer_program`` run."""
    def plain(name, axes):
        return env[name].to_array(axes).tolist()

    layers = []
    for n in range(1, depth + 1):
        layers.append(dict(
            wq=plain(f"WQ{n}", ["heads", "layer", "key"]),
            wk=plain(f"WK{n}", ["heads", "layer", "key"]),
            wv=plain(f"WV{n}", ["heads", "layer", "val"]),
            wo=plain(f"WO{n}", ["heads", "val", "layer"]),
            ln1_gamma=plain(f"Gatt{n}", ["layer"]),
            ln1_beta=plain(f"Batt{n}", ["layer"]),
            ln2_gamma=plain(f"Gffn{n}", ["layer"]),
            ln2_beta=plain(f"Bffn{n}", ["layer"]),
            w1=plain(f"W1_{n}", ["hidden", "layer"]),
            b1=plain(f"B1_{n}", ["hidden"]),
            w2=plain(f"W2_{n}", ["layer", "hidden"]),
            b2=plain(f"B2_{n}", ["layer"]),
        ))
    return plain("E", ["vocab", "layer"]), layers


class EvalTransformer:
    """In-process ``nt eval`` of a generated transformer program.

    Every request has its own token literal ``I`` and its own evaluation
    seed, so no two requests share source text or random parameters, while
    the sizes, and so the work, stay the same.
    """

    name = "eval-transformer"
    SIZES = dict(depth=2, seq=16, vocab=64, layer=64, heads=4, hidden=256)

    def __init__(self, seed: int):
        self.seed = seed
        self.template = zoo.transformer_program(**self.SIZES)

    def prepare(self, i: int):
        rnd = _request_rng(self.name, self.seed, i)
        tokens = [rnd.randrange(self.SIZES["vocab"]) for _ in range(self.SIZES["seq"])]
        run_seed = rnd.getrandbits(63)
        onehots = _onehot_rows(tokens, self.SIZES["vocab"])
        text = _replace_binding(self.template, "I", f"{_fmt(onehots)} over (seq, vocab)")
        return text, tokens, run_seed

    def request(self, inputs):
        text, _, run_seed = inputs
        program = lang.parse(text)
        diagnostics = lang.check(program)
        if diagnostics:
            raise RuntimeError(f"program does not check: {diagnostics[0]}")
        run = lang.run_program(program, seed=run_seed)
        return run, [(name, t.to_text()) for name, t in run.prints]

    def check(self, inputs, out):
        _, tokens, _ = inputs
        run, printed = out
        if [name for name, _ in printed] != ["O"]:
            return f"printed {[name for name, _ in printed]}, expected ['O']"
        tokens_read = run.env["I"].to_array(["seq", "vocab"]).argmax(axis=1).tolist()
        if tokens_read != tokens:
            return "token literal was not read back as written"
        o = run.env["O"]
        if NamedTensor.from_text(printed[0][1]) != o:
            return "printed text does not round-trip to O"
        err = _softmax_sum_error(o, "vocab")
        if not err <= SUM_ATOL:
            return f"O does not sum to one over vocab (error {err:.3e})"
        return None

    def verify(self, inputs, out):
        _, tokens, _ = inputs
        run, _ = out
        embed, layers = _transformer_oracle_params(run.env, self.SIZES["depth"])
        want = oracles.transformer_lm(
            _onehot_rows(tokens, self.SIZES["vocab"]), embed, layers, self.SIZES["hidden"]
        )
        error = _lm_error(run.env["O"].to_array(["seq", "vocab"]), want)
        return error and f"O {error}"


class GradTransformer:
    """``lang.grad_program`` of ``O`` with respect to the literal ``I``.

    The default ``zoo.transformer_program()`` has seq 4 and vocab 7, so each
    derivative takes 28 backward passes over small tensors.  Each request
    draws different random parameters through its own seed.
    """

    name = "grad-transformer"
    FD_ENTRIES = 3

    def __init__(self, seed: int):
        rnd = random.Random(seed)
        self.seed = seed
        self.text = zoo.transformer_program()
        self.program = lang.parse(self.text)
        self.onehots = lang.run_program(self.program).env["I"].to_array(["seq", "vocab"])
        seq, vocab = self.onehots.shape
        self.fd_entries = [
            (rnd.randrange(seq), rnd.randrange(vocab)) for _ in range(self.FD_ENTRIES)
        ]

    def prepare(self, i: int):
        return _request_rng(self.name, self.seed, i).getrandbits(63)

    def request(self, run_seed):
        return lang.grad_program(self.program, "O", "I", seed=run_seed)

    def check(self, run_seed, deriv):
        value = deriv.value
        if sorted(value.shape.names) != ["seq", "seq'", "vocab", "vocab'"]:
            return f"derivative has axes {value.shape.names}"
        arr = value.array
        if not np.all(np.isfinite(arr)):
            return "derivative is not finite"
        # d(sum over vocab of O)/dI is zero, since O sums to one over vocab.
        drift = np.max(np.abs(arr.sum(axis=value.shape.names.index("vocab'"))))
        if not drift <= SUM_ATOL * max(1.0, float(np.max(np.abs(arr)))):
            return f"derivative does not sum to zero over vocab' ({drift:.3e})"
        return None

    def _output(self, onehots: np.ndarray, run_seed: int) -> np.ndarray:
        text = _replace_binding(
            self.text, "I", f"{_fmt(onehots.tolist())} over (seq, vocab)"
        )
        run = lang.run_program(lang.parse(text), seed=run_seed)
        return run.env["O"].to_array(["seq", "vocab"])

    def verify(self, run_seed, deriv):
        """Central differences on sampled entries of ``I``, by re-running the
        program with the literal's text perturbed and the same seed."""
        jac = deriv.value.to_array(["seq", "vocab", "seq'", "vocab'"])
        worst = 0.0
        for p, v in self.fd_entries:
            h = 1e-6 * (1.0 + abs(self.onehots[p, v]))
            bumped = []
            for delta in (h, -h):
                x = self.onehots.copy()
                x[p, v] += delta
                bumped.append(self._output(x, run_seed))
            numeric = (bumped[0] - bumped[1]) / (2.0 * h)
            analytic = jac[p, v]
            rel = np.abs(numeric - analytic) / np.maximum(
                1.0, np.maximum(np.abs(numeric), np.abs(analytic))
            )
            worst = max(worst, float(np.max(rel)))
        return None if worst <= FD_RTOL else f"finite differences disagree (rel {worst:.3e})"


def _same_outputs(outs, first) -> bool:
    return all(a == b for a, b in zip(outs, first))


class ForwardModels:
    """One batched ``zoo.transformer_lm`` and one ``zoo.lenet`` forward pass.

    Parameters and inputs are drawn in set-up, so every request repeats the
    same computation: each is checked to reproduce the first exactly.  The
    first is checked against the loop oracles: ``lenet`` on the whole batch,
    ``transformer_lm`` (0.6 s per sequence) on one sampled sequence.
    """

    name = "forward-models"
    TRANSFORMER = dict(seq=32, vocab=64, layer=64, heads=4, hidden=256, depth=2)
    BATCH = 4
    LENET = dict(batch=16, image=28, c1=6, c2=16, kernel=5, hidden=120, classes=10)

    def __init__(self, seed: int):
        rnd = random.Random(seed)
        _, self.embed, self.plain_layers, self.params, _ = fixtures.build_transformer(
            seed, **self.TRANSFORMER
        )
        seq, vocab = self.TRANSFORMER["seq"], self.TRANSFORMER["vocab"]
        self.tokens = [[rnd.randrange(vocab) for _ in range(seq)] for _ in range(self.BATCH)]
        self.onehots = NamedTensor.from_nested(
            [_onehot_rows(t, vocab) for t in self.tokens], ["batch", "seq", "vocab"]
        )
        self.x0, self.lenet_plain, self.lenet_params = fixtures.build_lenet(seed, **self.LENET)
        self.images = NamedTensor.from_nested(self.x0, ["batch", "chans", "height", "width"])
        self.sample = rnd.randrange(self.BATCH)
        self.first = None

    def prepare(self, i: int):
        return None

    def request(self, _):
        return (
            zoo.transformer_lm(self.onehots, self.params),
            zoo.lenet(self.images, self.lenet_params),
        )

    def check(self, _, out):
        if self.first is None:
            self.first = out
        if not _same_outputs(out, self.first):
            return "output differs from the first request on the same inputs"
        err = max(_softmax_sum_error(out[0], "vocab"), _softmax_sum_error(out[1], "classes"))
        if not err <= SUM_ATOL:
            return f"softmax outputs do not sum to one (error {err:.3e})"
        return None

    def verify(self, _, out):
        lm, classes = out
        b = self.sample
        want = oracles.transformer_lm(
            _onehot_rows(self.tokens[b], self.TRANSFORMER["vocab"]),
            self.embed, self.plain_layers, self.TRANSFORMER["hidden"],
        )
        error = _lm_error(lm.to_array(["batch", "seq", "vocab"])[b], want)
        if error:
            return f"transformer_lm {error}"
        want = oracles.lenet(self.x0, self.lenet_plain)
        dev = _max_dev(classes.to_array(["batch", "classes"]), want)
        if not dev <= LENET_ATOL:
            return f"lenet deviates from the oracle by {dev:.3e}"
        return None


class ZooBatched:
    """A beam-search step lifted over batch x beam, and a batched
    multivariate-normal density over many small covariances.

    ``beam_step`` applies its transition through ``lift.extend`` once per
    (batch, beam) record; ``mvn_density`` runs ``ops.inv`` and ``ops.det``
    once per covariance matrix.
    """

    name = "zoo-batched"
    BATCH, BEAM, STATE = 128, 4, 16
    MVN_BATCH, DIM = 256, 8
    # Relative deviation allowed against the cofactor-expansion oracle.
    MVN_RTOL = 1e-10

    def __init__(self, seed: int):
        rnd = random.Random(seed)
        rng = ntensor.SplitMix64(seed)
        self.scores = [[rng.next_float() + 0.5 for _ in range(self.BEAM)]
                       for _ in range(self.BATCH)]
        self.states = [
            _onehot_rows([rnd.randrange(self.STATE) for _ in range(self.BEAM)], self.STATE)
            for _ in range(self.BATCH)
        ]
        self.trans = rng.nested([self.STATE, self.STATE])
        self.offset = rng.nested([self.STATE])
        self.transition = fixtures.make_transition(self.trans, self.offset)
        self.covs = [fixtures.build_spd(rng, self.DIM) for _ in range(self.MVN_BATCH)]
        self.mean = rng.nested([self.DIM])
        self.x = rng.nested([self.MVN_BATCH, self.DIM])
        self.inputs = dict(
            scores=NamedTensor.from_nested(self.scores, ["batch", "beam"]),
            states=NamedTensor.from_nested(self.states, ["batch", "beam", "state"]),
            cov=NamedTensor.from_nested(self.covs, ["batch", "d1", "d2"]),
            mean=NamedTensor.from_nested(self.mean, ["d"]),
            x=NamedTensor.from_nested(self.x, ["batch", "d"]),
        )
        self.beam_samples = [rnd.randrange(self.BATCH) for _ in range(2)]
        self.mvn_sample = rnd.randrange(self.MVN_BATCH)
        self.first = None

    def prepare(self, i: int):
        return None

    def request(self, _):
        t = self.inputs
        scores, states = zoo.beam_step(
            t["scores"], t["states"], self.transition, self.STATE, self.BEAM
        )
        return scores, states, zoo.mvn_density(t["x"], t["mean"], t["cov"])

    def check(self, _, out):
        if self.first is None:
            self.first = out
        if not _same_outputs(out, self.first):
            return "output differs from the first request on the same inputs"
        density = out[2].array
        if not (np.all(np.isfinite(density)) and np.all(density > 0.0)):
            return "densities are not finite and positive"
        return None

    def verify(self, _, out):
        scores, states, density = out
        got_scores = scores.to_array(["batch", "beam"])
        got_states = states.to_array(["batch", "state", "beam"])
        for b in self.beam_samples:
            want_scores, want_states = oracles.beam_step(
                self.scores[b], self.states[b], self.trans, self.offset, self.BEAM
            )
            dev = max(_max_dev(got_scores[b], want_scores), _max_dev(got_states[b], want_states))
            if not dev <= ZOO_ATOL:
                return f"beam_step deviates from the oracle by {dev:.3e}"
        m = self.mvn_sample
        want = oracles.mvn_density(self.x[m], self.mean, self.covs[m])
        got = float(density.to_array(["batch"])[m])
        if not math.isclose(got, want, rel_tol=self.MVN_RTOL, abs_tol=0.0):
            return f"mvn_density {got!r} deviates from the oracle {want!r}"
        return None


class Combined:
    """A workload whose every request makes one request of each part.

    Parts that share a layer go in the same workload, so that one workload
    exercises a layer and the other bypasses it.  One long workload is
    steadier than two short ones on a host whose speed drifts (README.md,
    "Stability").
    """

    PARTS = ()

    def __init__(self, seed: int):
        self.parts = [part(seed) for part in self.PARTS]

    def prepare(self, i: int):
        return tuple(part.prepare(i) for part in self.parts)

    def request(self, inputs):
        return tuple(part.request(x) for part, x in zip(self.parts, inputs))

    def _first_error(self, method: str, inputs, out):
        for part, x, y in zip(self.parts, inputs, out):
            error = getattr(part, method)(x, y)
            if error:
                return f"{part.name}: {error}"
        return None

    def check(self, inputs, out):
        return self._first_error("check", inputs, out)

    def verify(self, inputs, out):
        return self._first_error("verify", inputs, out)


class Language(Combined):
    name = "language"
    PARTS = (EvalTransformer, GradTransformer)


class Models(Combined):
    name = "models"
    PARTS = (ForwardModels, ZooBatched)


WORKLOADS = {w.name: w for w in (Language, Models)}
