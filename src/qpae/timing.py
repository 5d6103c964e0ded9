"""Wall-clock spans of a run's stages."""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager


@contextmanager
def stage() -> Iterator[dict]:
    """Time the `with` block: the span's `wall_ms` is set when it ends."""
    span = {"wall_ms": 0.0}
    t0 = time.perf_counter()
    yield span
    span["wall_ms"] = 1e3 * (time.perf_counter() - t0)
