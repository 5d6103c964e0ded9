import struct
import warnings
import zlib

import numpy as np
import pytest

from qpae.checkpoint import (MAGIC, CheckpointError, check_layer_shape, load_checkpoint,
                              save_checkpoint)
from qpae.model import Classifier, NumericError
from qpae.rng import Rng

from helpers import equals_bits


def f32_model(seed=5, hidden=(5,)):
    """Model whose parameters are exactly float32-representable."""
    m = Classifier.random_init(6, list(hidden), 3, Rng(seed))
    return Classifier([(w.astype(np.float32).astype(np.float64),
                        b.astype(np.float32).astype(np.float64)) for w, b in m.layers])


def test_round_trip_bitwise(tmp_path):
    m = f32_model()
    p = tmp_path / "m.qpae"
    save_checkpoint(m, p)
    loaded = load_checkpoint(p)
    assert equals_bits(loaded, m)


@pytest.mark.parametrize("hidden", [(), (7, 4)])
def test_round_trip_bitwise_at_other_depths(tmp_path, hidden):
    m = f32_model(hidden=hidden)
    p = tmp_path / "m.qpae"
    save_checkpoint(m, p)
    loaded = load_checkpoint(p)
    assert [w.shape for w, _ in loaded.layers] == [w.shape for w, _ in m.layers]
    assert equals_bits(loaded, m)
    assert struct.unpack("<H", p.read_bytes()[6:8])[0] == len(hidden) + 1


def test_save_load_save_is_byte_stable(tmp_path):
    # an arbitrary f64 model quantizes exactly once
    m = Classifier.random_init(8, [7], 4, Rng(11))
    p1, p2 = tmp_path / "a.qpae", tmp_path / "b.qpae"
    save_checkpoint(m, p1)
    once = load_checkpoint(p1)
    save_checkpoint(once, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert equals_bits(load_checkpoint(p2), once)


def test_layout_starts_with_magic_and_version(tmp_path):
    p = tmp_path / "m.qpae"
    save_checkpoint(f32_model(), p)
    blob = p.read_bytes()
    assert blob[:4] == b"QPAE" == MAGIC
    version, layer_count = struct.unpack("<HH", blob[4:8])
    assert version == 1 and layer_count == 2
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    assert stored_crc == zlib.crc32(blob[:-4]) & 0xFFFFFFFF


def test_bad_magic(tmp_path):
    p = tmp_path / "m.qpae"
    save_checkpoint(f32_model(), p)
    blob = bytearray(p.read_bytes())
    blob[:4] = b"NOPE"
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=r"not a QPAE checkpoint \(bad magic\)"):
        load_checkpoint(p)


def test_bad_version(tmp_path):
    p = tmp_path / "m.qpae"
    save_checkpoint(f32_model(), p)
    blob = bytearray(p.read_bytes())
    blob[4:6] = struct.pack("<H", 9)
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 9"):
        load_checkpoint(p)


def test_truncated_payload_no_partial_model(tmp_path):
    p = tmp_path / "m.qpae"
    save_checkpoint(f32_model(), p)
    blob = p.read_bytes()
    p.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="file ends inside"):
        load_checkpoint(p)


def test_dimension_overflow(tmp_path):
    p = tmp_path / "m.qpae"
    save_checkpoint(f32_model(), p)
    blob = bytearray(p.read_bytes())
    blob[8:12] = struct.pack("<I", 0xFFFFFFFF)  # first layer's rows field
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="layer 0 dimensions 4294967295x.* out of range"):
        load_checkpoint(p)


@pytest.mark.parametrize("rows, cols, ok", [
    (1, 1, True), (2 ** 20, 64, True), (64, 2 ** 20, True),
    (0, 5, False), (5, 0, False), (2 ** 20 + 1, 1, False), (1, 2 ** 20 + 1, False),
    (2 ** 13, 2 ** 13 + 1, False),  # each side in range, 2**26 + 2**13 weights
])
def test_layer_shape_bound(rows, cols, ok):
    if ok:
        check_layer_shape(3, rows, cols)
    else:
        with pytest.raises(CheckpointError, match=f"layer 3 dimensions {rows}x{cols} out of range"):
            check_layer_shape(3, rows, cols)


def test_save_refuses_a_layer_load_would_refuse(tmp_path):
    """A model that no checkpoint can hold is refused before any byte is written."""
    wide = 2 ** 20 + 1
    model = Classifier([(np.zeros((1, wide)), np.zeros(wide))])
    with pytest.raises(CheckpointError, match=f"layer 0 dimensions 1x{wide} out of range"):
        save_checkpoint(model, tmp_path / "m.qpae")
    assert list(tmp_path.iterdir()) == []


def test_crc_detects_payload_corruption(tmp_path):
    p = tmp_path / "m.qpae"
    save_checkpoint(f32_model(), p)
    blob = bytearray(p.read_bytes())
    blob[20] ^= 0x40  # inside the first weight array
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="CRC32 mismatch"):
        load_checkpoint(p)


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "m.qpae"
    save_checkpoint(f32_model(), p)
    p.write_bytes(p.read_bytes() + b"junk")
    with pytest.raises(CheckpointError, match="trailing bytes after checksum"):
        load_checkpoint(p)


def test_save_refuses_f32_overflow(tmp_path):
    m = f32_model()
    m.final_w[0, 0] = 1e39
    with pytest.raises(NumericError):
        save_checkpoint(m, tmp_path / "m.qpae")


def test_load_refuses_non_finite_payload(tmp_path):
    p = tmp_path / "m.qpae"
    save_checkpoint(f32_model(), p)
    payload = bytearray(p.read_bytes())[:-4]
    # +inf, and a signalling NaN, which numpy warns about when it casts it
    # to float64: the check reads the stored float32 values, so no warning
    for word in (0x7F800000, 0x7F800001):
        payload[20:24] = struct.pack("<I", word)  # one weight, then re-seal the CRC
        crc = struct.pack("<I", zlib.crc32(bytes(payload)) & 0xFFFFFFFF)
        p.write_bytes(bytes(payload) + crc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite model parameter"):
                load_checkpoint(p)


def _sealed(layers) -> bytes:
    """A checkpoint of raw (rows, cols, weight words, bias words) layers, CRC
    intact; the words are float32 bit patterns."""
    parts = [MAGIC, struct.pack("<HH", 1, len(layers))]
    for rows, cols, weights, bias in layers:
        parts.append(struct.pack(f"<II{len(weights)}I", rows, cols, *weights))
        parts.append(struct.pack(f"<I{len(bias)}I", len(bias), *bias))
    payload = b"".join(parts)
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


SNAN, ONE = 0x7F800001, 0x3F800000


@pytest.mark.parametrize("layers, error", [
    ([(2, 3, [SNAN] + [ONE] * 5, [ONE] * 3), (4, 2, [ONE] * 8, [ONE] * 2)],
     "layer 1 input width 4 != 3"),
    ([(2, 3, [SNAN] + [ONE] * 5, [ONE] * 2)], "bias length"),
    ([(2, 1, [SNAN, ONE], [ONE])], "at least 2 classes"),
    ([], "at least one layer"),
], ids=["chain", "bias", "one_class", "no_layer"])
def test_dimension_fault_is_raised_before_a_non_finite_value(tmp_path, layers, error):
    p = tmp_path / "m.qpae"
    p.write_bytes(_sealed(layers))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CheckpointError, match=error):
            load_checkpoint(p)


def test_crc_mismatch_is_raised_before_a_non_finite_value(tmp_path):
    blob = bytearray(_sealed([(2, 2, [SNAN, ONE, ONE, ONE], [ONE] * 2)]))
    blob[-1] ^= 0xFF
    p = tmp_path / "m.qpae"
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="CRC32 mismatch"):
        load_checkpoint(p)
