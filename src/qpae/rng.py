"""Deterministic seeded PRNG used everywhere in place of global randomness.

The generator is a counter-mode splitmix64 stream: draw i is the
xorshift-multiply mix of ``seed + (i+1) * GOLDEN``.  Because each draw
depends only on the seed and its index, `Rng.fill_u64` and `draws_at`
read the *same* stream at any position, and results are bit-reproducible
across platforms and numpy versions.
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


def _draws(seed: int, index: np.ndarray) -> np.ndarray:
    """Draw i of the Rng(seed) stream for each uint64 index i.

    Mixes in place on the one array it allocates, never on `index`, so
    threads may call it at once.
    """
    z = index + np.uint64(1)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


class Rng:
    """A position in one seed's splitmix64 stream; each call draws onward."""

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK
        self._count = 0

    def fill_u64(self, n: int) -> np.ndarray:
        """The next n raw 64-bit draws."""
        index = np.arange(self._count, self._count + n, dtype=np.uint64)
        self._count += n
        return _draws(self._seed, index)

    def normal(self, n: int, sigma: float = 1.0) -> np.ndarray:
        """n Gaussian draws via Box-Muller on the next 2 * ceil(n / 2) draws."""
        x = box_muller(self.fill_u64(2 * ((n + 1) // 2)), n)
        x *= sigma
        return x

    def shuffle(self, values: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle.

        For i from n - 1 down to 1, swaps position i with position
        d % (i + 1), where d is the next raw draw: n - 1 draws in one fill.
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

    Row i holds draws starts[i] to starts[i] + n - 1: what a fresh
    `Rng(seed)` gives from `fill_u64(n)` once `fill_u64(starts[i])` has
    taken the draws before them.
    """
    index = np.asarray(starts, dtype=np.uint64)[:, None] + np.arange(n, dtype=np.uint64)
    return _draws(int(seed) & _MASK, index)


def unit_interval(raw: np.ndarray) -> np.ndarray:
    """Floats in [0, 1) with 53-bit resolution, one per raw draw."""
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53


def box_muller(raw: np.ndarray, stop: int, start: int = 0) -> np.ndarray:
    """Standard normals start to stop - 1 of each row of raw draws, (..., stop - start).

    A row of 2p draws is p Box-Muller pairs: the first p draws give the
    radii and the last p the angles. Normal j < p is the cosine of pair j,
    and normal j >= p the sine of pair j - p. Each pair's radius and angle
    is formed once, the cosines and sines only for the range, and each
    element is the same whatever the shape or range around it.
    """
    pairs = raw.shape[-1] // 2
    # (0,1] for the log argument, [0,1) for the angle
    radius = np.add(raw[..., :pairs] >> np.uint64(11), 1.0)
    radius *= 2.0**-53
    np.sqrt(np.multiply(np.log(radius, out=radius), -2.0, out=radius), out=radius)
    angle = np.multiply(unit_interval(raw[..., pairs:2 * pairs]), 2.0 * np.pi)
    cos = slice(min(start, pairs), min(stop, pairs))
    sin = slice(max(start, pairs) - pairs, max(stop, pairs) - pairs)
    out = np.empty(raw.shape[:-1] + (stop - start,))
    k = cos.stop - cos.start  # the cosines come first
    np.multiply(radius[..., cos], np.cos(angle[..., cos]), out=out[..., :k])
    np.multiply(radius[..., sin], np.sin(angle[..., sin]), out=out[..., k:])
    return out


def derive_seed(seed: int, key: int) -> int:
    """Stable 64-bit child seed for a (seed, purpose-key) pair."""
    return _mix64((int(seed) & _MASK) ^ _mix64(int(key) & _MASK))
