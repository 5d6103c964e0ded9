"""Binary checkpoint format for classifiers.

Layout (little-endian):

    magic   4 bytes  "QPAE" (51 50 41 45)
    version u16      currently 1
    layers  u16      len(Classifier.layers); the final layer is written last
    per layer:
        rows u32, cols u32, rows*cols f32 row-major weights,
        bias_len u32, bias_len f32 bias
    crc     u32      CRC32 of all preceding bytes

Weights are stored as f32 (models compute in f64), so the first save of a
freshly trained model quantizes; save -> load -> save is byte-stable.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .files import write_atomic
from .model import Classifier, NumericError

MAGIC = b"QPAE"
VERSION = 1
_MAX_DIM = 1 << 20          # single dimension sanity bound
_MAX_ELEMS = 1 << 26        # per-array element bound


class CheckpointError(Exception):
    """A checkpoint file that cannot be loaded."""


def save_checkpoint(model: Classifier, path: str | Path) -> None:
    model.ensure_finite()
    f32_max = float(np.finfo(np.float32).max)
    for p in model.parameters():
        if np.max(np.abs(p)) > f32_max:
            raise NumericError("parameter exceeds float32 range; refusing to "
                               "write an overflowing checkpoint")
    parts = [MAGIC, struct.pack("<HH", VERSION, len(model.layers))]
    for w, b in model.layers:
        parts.append(struct.pack("<II", w.shape[0], w.shape[1]))
        parts.append(np.ascontiguousarray(w, dtype="<f4").tobytes())
        parts.append(struct.pack("<I", b.shape[0]))
        parts.append(np.ascontiguousarray(b, dtype="<f4").tobytes())
    payload = b"".join(parts)
    blob = payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    write_atomic(path, blob)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"file ends inside {what}")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def f32_array(self, count: int, what: str) -> np.ndarray:
        return np.frombuffer(self.take(4 * count, what), dtype="<f4")


def load_checkpoint(path: str | Path) -> Classifier:
    """Parse and CRC-verify a checkpoint; never returns a partial model."""
    blob = Path(path).read_bytes()
    r = _Reader(blob)
    if r.take(4, "magic") != MAGIC:
        raise CheckpointError("not a QPAE checkpoint (bad magic)")
    version = r.u16("version")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    layer_count = r.u16("layer count")

    layers: list[tuple[np.ndarray, np.ndarray]] = []
    for i in range(layer_count):
        rows = r.u32(f"layer {i} rows")
        cols = r.u32(f"layer {i} cols")
        if rows < 1 or cols < 1 or rows > _MAX_DIM or cols > _MAX_DIM \
                or rows * cols > _MAX_ELEMS:
            raise CheckpointError(f"layer {i} dimensions {rows}x{cols} out of range")
        w = r.f32_array(rows * cols, f"layer {i} weights").reshape(rows, cols)
        b = r.f32_array(r.u32(f"layer {i} bias length"), f"layer {i} bias")
        layers.append((w, b))

    stored_crc = r.u32("checksum")
    if r.pos != len(blob):
        raise CheckpointError("trailing bytes after checksum")
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError("CRC32 mismatch")

    try:  # layer count, chain widths and bias lengths
        Classifier.validate(layers)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    # on the stored float32 values: casting a signalling NaN makes numpy warn
    if not all(np.all(np.isfinite(p)) for layer in layers for p in layer):
        raise NumericError("non-finite model parameter detected")
    return Classifier(layers)
