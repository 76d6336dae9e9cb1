"""Deterministic 64-bit PRNG (SplitMix64) shared by every stochastic component.

The generator is deliberately tiny: one 64-bit state word, a fixed odd
increment, and an avalanche finalizer. Equal seeds give identical streams on
every platform, which is what makes workloads and search runs reproducible
down to the byte.
"""

from __future__ import annotations

import operator

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_TWO64 = float(2**64)


def mix64(x: int) -> int:
    """SplitMix64 finalizer: avalanche one 64-bit word.

    Also used standalone to derive child seeds from combined identifiers. Any
    integer is taken as a Python int (a numpy scalar would overflow), and
    anything else raises TypeError.
    """
    z = operator.index(x) & MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential SplitMix64 stream with exact vectorized reads.

    The state is a counter: the t-th draw from here is the finalizer applied to
    state + t * gamma, so any draws ahead can be read without making them.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = operator.index(seed) & MASK64  # a Python int, even for a numpy seed

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        return mix64(self.state)

    def uniform(self) -> float:
        """Uniform float in [0, 1]: next_u64() / 2**64, which is 1.0 for outputs >= 2**64 - 2**10.

        Scaled index draws are clamped: min(..., n - 1) in lca's swap move and the clip in lca._vm_index.
        """
        return self.next_u64() / _TWO64

    def peek(self, t: int | np.ndarray) -> float | np.ndarray:
        """The uniform the t-th draw from now will give, without drawing it; for an integer array, one per entry.

        Every t must be an integer >= 1; a refused t raises naming it and leaves the state as it was. The values
        are those uniforms() gives, by the same finalizer (_uniforms_at).
        """
        offsets = np.atleast_1d(t)
        if offsets.dtype.kind not in "iu":
            raise TypeError(f"t must be an integer or an integer array, got {offsets.dtype}")
        if (offsets < 1).any():
            raise ValueError(f"t must be an integer >= 1, got {offsets.min()}")
        u = _uniforms_at(self.state, offsets.astype(np.uint64))
        return u if np.ndim(t) else float(u[0])

    def skip(self, k: int) -> None:
        """Move the stream past its next k draws without making them; k is any integer >= 0."""
        k = operator.index(k)
        if k < 0:
            raise ValueError(f"k must be an integer >= 0, got {k}")
        self.state = (self.state + k * _GAMMA) & MASK64

    def uniforms(self, k: int) -> np.ndarray:
        """k uniforms in [0, 1] at once, draws 1..k from here (_uniforms_at): k successive uniform() calls bit
        for bit. k is any integer >= 0; a refused k raises and leaves the state as it was."""
        start = self.state
        self.skip(k)
        return _uniforms_at(start, np.arange(1, k + 1, dtype=np.uint64))


def _uniforms_at(state: int, z: np.ndarray) -> np.ndarray:
    """The uniforms of draws z (uint64 offsets, overwritten) of a stream at state: the finalizer of
    state + z * gamma in place with wrapping uint64 math, then z / 2**64 (_split_cast)."""
    z *= np.uint64(_GAMMA)
    z += np.uint64(state)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MULT1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MULT2)
    z ^= z >> np.uint64(31)
    return _split_cast(z)


def _split_cast(z: np.ndarray) -> np.ndarray:
    """z / 2**64 in float64, bit for bit, from z's two 32-bit halves; z is overwritten.

    Each half fits in 53 bits, so it casts exactly through numpy's fast int64
    loop (not the slow uint64 one), and scaling by a power of two is exact. The
    sum of the two exact terms is z * 2**-64 exactly, and the one rounding of
    that sum is the rounding z.astype(float64) makes: ties go to even and words
    >= 2**64 - 2**10 give exactly 1.0.
    """
    u = (z >> np.uint64(32)).view(np.int64).astype(np.float64)
    u *= 2.0**-32
    z &= np.uint64(0xFFFFFFFF)
    low = z.view(np.int64).astype(np.float64)
    low *= 2.0**-64
    u += low
    return u
