"""Deterministic seeded PRNG used everywhere in place of global randomness.

The generator is a counter-mode splitmix64 stream: output i is the
xorshift-multiply mix of ``seed + (i+1) * GOLDEN``.  Because each output
depends only on the seed and the draw index, scalar draws and bulk numpy
fills produce the *same* stream, and results are bit-reproducible across
platforms and numpy versions.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class Rng:
    """Counter-based splitmix64 stream with scalar and vectorized draws."""

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK
        self._count = 0

    def next_u64(self) -> int:
        self._count += 1
        return _mix64((self._seed + self._count * _GOLDEN) & _MASK)

    def fill_u64(self, n: int) -> np.ndarray:
        """n raw 64-bit outputs; identical to n successive next_u64 calls."""
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return _mix64_array(np.uint64(self._seed) + idx * np.uint64(_GOLDEN))

    def skip(self, n: int) -> None:
        """Advance the stream by n draws without computing them; O(1)."""
        if n < 0:
            raise ValueError("cannot skip a negative number of draws")
        self._count += int(n)

    def uniform(self, n: int | None = None, low: float = 0.0, high: float = 1.0):
        """Uniform floats in [low, high) with 53-bit resolution."""
        if n is None:
            u = (self.next_u64() >> 11) * 2.0**-53
            return low + (high - low) * u
        return low + (high - low) * unit_interval(self.fill_u64(n))

    def normal(self, n: int | None = None, mu: float = 0.0, sigma: float = 1.0):
        """Gaussian draws via Box-Muller on consecutive stream pairs."""
        scalar = n is None
        count = 1 if scalar else int(n)
        out = mu + sigma * box_muller(self.fill_u64(2 * ((count + 1) // 2)), count)
        return float(out[0]) if scalar else out

    def randbelow(self, bound: int) -> int:
        """Integer in [0, bound); modulo bias is < bound / 2**64."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def shuffle(self, values: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle.

        Draws the swap for position i as randbelow(i + 1), i from the top
        down, all in one fill: the same stream as one scalar draw per swap.
        """
        n = len(values)
        if n < 2:
            return
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        swaps = (self.fill_u64(n - 1) % bounds).tolist()
        items = values.tolist()
        for i, j in zip(range(n - 1, 0, -1), swaps):
            items[i], items[j] = items[j], items[i]
        values[:] = items

    def permutation(self, n: int) -> np.ndarray:
        idx = np.arange(n)
        self.shuffle(idx)
        return idx


def draws_at(seed: int, starts, n: int) -> np.ndarray:
    """Rows of n raw draws of the Rng(seed) stream, (len(starts), n).

    Row i holds the n draws that follow the first starts[i] ones: what
    `Rng(seed)` gives from `fill_u64(n)` after `skip(starts[i])`.
    """
    idx = (np.asarray(starts, dtype=np.uint64)[:, None]
           + np.arange(1, n + 1, dtype=np.uint64))
    return _mix64_array(np.uint64(int(seed) & _MASK) + idx * np.uint64(_GOLDEN))


def unit_interval(raw: np.ndarray) -> np.ndarray:
    """Floats in [0, 1) with 53-bit resolution, one per raw draw."""
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53


def box_muller(raw: np.ndarray, stop: int, start: int = 0) -> np.ndarray:
    """Standard normals start to stop - 1 of each row of raw draws, (..., stop - start).

    A row of 2p draws is p Box-Muller pairs: the first p draws give the
    radii and the last p the angles. Normal j < p is the cosine of pair j,
    and normal j >= p the sine of pair j - p. Only the pairs the range
    reads are computed, and each element is the same whatever the shape
    or range around it.
    """
    pairs = raw.shape[-1] // 2
    radii, angles = raw[..., :pairs], raw[..., pairs:]

    def normals(q: slice, trig) -> np.ndarray:
        # (0,1] for the log argument, [0,1) for the angle
        u1 = ((radii[..., q] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        return np.sqrt(-2.0 * np.log(u1)) * trig(2.0 * np.pi * unit_interval(angles[..., q]))

    return np.concatenate(
        [normals(slice(min(start, pairs), min(stop, pairs)), np.cos),
         normals(slice(max(start, pairs) - pairs, max(stop, pairs) - pairs), np.sin)],
        axis=-1)


def derive_seed(seed: int, key: int) -> int:
    """Stable 64-bit child seed for a (seed, purpose-key) pair."""
    return _mix64((int(seed) & _MASK) ^ _mix64(int(key) & _MASK))
