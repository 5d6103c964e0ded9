"""Assertion helpers shared by the test modules."""

import numpy as np


def equals_bits(a, b) -> bool:
    """True if two classifiers hold the same parameter blocks, bit for bit."""
    mine, theirs = a.parameters(), b.parameters()
    return len(mine) == len(theirs) and all(
        p.shape == q.shape and np.array_equal(p, q) for p, q in zip(mine, theirs))
