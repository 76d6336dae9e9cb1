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
    """SplitMix64 stream, read only at offsets: a block (uniforms), draws ahead (peek) or a jump (skip).

    The state is a counter: the t-th draw from here is the finalizer applied to
    state + t * gamma, so any draws ahead can be read without making them.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = operator.index(seed) & MASK64  # a Python int, even for a numpy seed

    def uniform(self) -> float:
        """The next draw alone: uniforms(1)[0] as a float. Kept only because perfbench/spans.py patches it by name;
        it goes with ROADMAP item 12, and nothing in the package calls it."""
        return float(self.uniforms(1)[0])

    def peek(self, t: int | np.ndarray) -> np.ndarray:
        """The uniforms() values of the draws t ahead (_uniforms_at), without making them: an array of t's shape,
        (1,) for one integer. Every t must be an integer >= 1; a refused t raises naming it and moves no state."""
        offsets = np.atleast_1d(t)
        if offsets.dtype.kind not in "iu":
            raise TypeError(f"t must be an integer or an integer array, got {offsets.dtype}")
        if (offsets < 1).any():
            raise ValueError(f"t must be an integer >= 1, got {offsets.min()}")
        return _uniforms_at(self.state, offsets.astype(np.uint64))

    def skip(self, k: int) -> None:
        """Move the stream past its next k draws without making them; k is any integer >= 0."""
        k = operator.index(k)
        if k < 0:
            raise ValueError(f"k must be an integer >= 0, got {k}")
        self.state = (self.state + k * _GAMMA) & MASK64

    def uniforms(self, k: int) -> np.ndarray:
        """Draws 1..k from here as k uniforms in [0, 1] (_uniforms_at), and the stream moves past them (skip). Each
        is its output / 2**64 rounded once, ties to even, so outputs >= 2**64 - 2**10 give exactly 1.0. k is any
        integer >= 0; a refused k raises and leaves the state as it was."""
        start = self.state
        self.skip(k)
        return _uniforms_at(start, np.arange(1, k + 1, dtype=np.uint64))


def _uniforms_at(state: int, z: np.ndarray) -> np.ndarray:
    """The uniforms of draws z (uint64 offsets, overwritten) of a stream at state: the finalizer of state + z * gamma
    in wrapping uint64 math, then z / 2**64 by astype and an exact *= 2**-64 (z * 2**-64 casts through buffers)."""
    z *= np.uint64(_GAMMA)
    z += np.uint64(state)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MULT1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MULT2)
    z ^= z >> np.uint64(31)
    u = z.astype(np.float64)
    u *= 2.0**-64
    return u
