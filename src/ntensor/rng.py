"""Deterministic 64-bit generator used for seeded fixtures and literals.

This is the splitmix64 sequence: state advances by the golden-gamma constant
0x9E3779B97F4A7C15 and each output is finalized with the xor-shift/multiply
constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.  The generator is tiny
and straightforward to reproduce in any language, so reference inputs
generated here can be regenerated exactly elsewhere.  Floats take the top
53 bits of an output word.

The scalar ``next_*`` methods are the definition.  The k-th output depends
only on ``seed + k * gamma``, so :meth:`SplitMix64.floats` computes a whole
block as one numpy ``uint64`` expression, bit for bit the same stream.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Seeded splitmix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int = 0):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_symmetric(self) -> float:
        """Uniform float in ``[-1, 1)``."""
        return 2.0 * self.next_float() - 1.0

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]`` (inclusive), by rejection-free modulo.

        The tiny modulo bias is irrelevant for test-input generation.
        """
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def floats(self, count: int) -> np.ndarray:
        """The next ``count`` values of :meth:`next_symmetric`, as a float64 array."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):  # uint64 arithmetic wraps mod 2**64
            z *= np.uint64(_GAMMA)
            z += np.uint64(self._state)
            z ^= z >> np.uint64(30)
            z *= np.uint64(_MIX1)
            z ^= z >> np.uint64(27)
            z *= np.uint64(_MIX2)
            z ^= z >> np.uint64(31)
        self._state = (self._state + count * _GAMMA) & _MASK
        return (z >> np.uint64(11)) * (2.0 ** -53) * 2.0 - 1.0

    def nested(self, sizes):
        """Nested lists of the given dimensions in ``[-1, 1)``, filled in odometer order."""
        if not sizes:
            return self.next_symmetric()
        return self.floats(math.prod(sizes)).reshape(sizes).tolist()
