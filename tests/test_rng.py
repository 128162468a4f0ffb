"""The splitmix64 stream: known answers, and the vectorised draws bit-equal
to the scalar definition."""

import hashlib

import numpy as np
import pytest

from helpers import pin_mismatch
from ntensor import SplitMix64, lang
from ntensor.zoo import transformer_program

SEEDS = [0, 7, 2**63 + 5, 2**64 - 1]


def _scalar(seed: int, n: int) -> list:
    rng = SplitMix64(seed)
    return [rng.next_symmetric() for _ in range(n)]


def _bits(values) -> list:
    return [float(v).hex() for v in values]


def _after(seed: int, n: int) -> int:
    rng = SplitMix64(seed)
    for _ in range(n):
        rng.next_u64()
    return rng.next_u64()


@pytest.mark.parametrize("seed, want", [
    (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
    (1234567, [6457827717110365317, 3203168211198807973]),
])
def test_known_answers(seed, want):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in want] == want


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 2, 1000])
def test_floats_match_the_scalar_definition(seed, n):
    rng = SplitMix64(seed)
    got = rng.floats(n)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == (n,)
    assert _bits(got) == _bits(_scalar(seed, n))
    # the stream continues where the scalar loop would
    assert rng.next_u64() == _after(seed, n)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("sizes", [[1], [2, 3], [4, 5, 6], [1000]])
def test_nested_matches_the_scalar_definition(seed, sizes):
    got = np.array(SplitMix64(seed).nested(sizes))
    assert got.shape == tuple(sizes)
    assert _bits(got.ravel()) == _bits(_scalar(seed, got.size))


def test_nested_of_no_sizes_is_a_float():
    value = SplitMix64(7).nested([])
    assert type(value) is float
    assert value.hex() == _scalar(7, 1)[0].hex()


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_scalar_and_vector_draws_are_one_stream(seed):
    rng = SplitMix64(seed)
    drawn = [rng.next_symmetric()]
    drawn += rng.floats(5).tolist()
    drawn += [rng.next_float() * 2.0 - 1.0]
    drawn += np.ravel(rng.nested([2, 3])).tolist()
    drawn += [rng.nested([])]
    drawn += rng.floats(1).tolist()
    assert _bits(drawn) == _bits(_scalar(seed, len(drawn)))


# The printed text of the default transformer program; a change to the
# stream, or to how literals draw from it, changes these digests.
PRINTED_SHA256 = {
    0: "f098a74b18546d490c4c009866f8e87e1f28d22895b991437f3620396a217e4d",
    3: "4480b57c5acedf60180debeb09c3fcd2980db18561c981feeb9a248043b98be9",
}


@pytest.mark.parametrize("seed", sorted(PRINTED_SHA256))
def test_transformer_program_prints_a_pinned_stream(seed):
    run = lang.run_program(lang.parse(transformer_program()), seed=seed)
    text = "".join(f"# {name}\n" + t.to_text() for name, t in run.prints)
    assert hashlib.sha256(text.encode()).hexdigest() == PRINTED_SHA256[seed], pin_mismatch()


# The derivative of the default transformer program's output; a change to
# the stream, to how ``grad`` draws literals, or to the backward pass
# changes these digests.
GRAD_SHA256 = {
    ("I", 0): "44a57d0c5c183b293b7390f966fbc7d118ce39da4e2b71612635f0ffaba64997",
    ("I", 3): "4a26daa032be73ccd2067342bc57564c82735e20e28e743d1056f1854092735b",
    ("WQ1", 0): "37a4a5279c31a5a2cd680091527a9edbda69e7bf841974a7976eaa47ad60927d",
}


@pytest.mark.parametrize("wrt, seed", sorted(GRAD_SHA256))
def test_transformer_program_gradient_is_pinned(wrt, seed):
    deriv = lang.grad_program(lang.parse(transformer_program()), "O", wrt, seed)
    digest = hashlib.sha256(deriv.value.to_text().encode()).hexdigest()
    assert digest == GRAD_SHA256[wrt, seed], pin_mismatch()
