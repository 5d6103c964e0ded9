"""Fuzzing of the readers of files from outside the program: byte
mutations of WAV files, checkpoints and manifests, and reports with
fields swapped for JSON values of other kinds or moved one ulp off their
recount. Each may only fail with its own error types."""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qpae.audio import (ManifestError, WavClip, WavParseError, load_manifest,
                        read_wav, write_wav)
from qpae.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from qpae.data import LabeledDataset
from qpae.metrics import (ReportError, compare_reports, evaluate, report_csv_row,
                          report_from_json, report_to_json)
from qpae.model import Classifier, NumericError
from qpae.rng import Rng

from helpers import uniform, write_manifest

# 4-byte words a mutation may write: zero, all ones, float32 NaN, +inf,
# max and a signalling NaN, and the largest u32 sizes, the values parsers
# most often mishandle
WORDS = [0, 0xFFFFFFFF, 0x7FC00000, 0x7F800000, 0x7F7FFFFF, 0x7F800001,
         0x7FFFFFFF, 1]

mutation = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(1, 255)),
    st.tuples(st.just("word"), st.integers(0, 1 << 16), st.sampled_from(WORDS)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.binary(min_size=1, max_size=8)))
mutations = st.lists(mutation, min_size=1, max_size=4)


def mutate(blob: bytes, ops) -> bytes:
    """Apply each op at a position taken modulo the current length."""
    out = bytearray(blob)
    for op, pos, *arg in ops:
        if op == "truncate":
            del out[pos % (len(out) + 1):]
        elif op == "insert":
            at = pos % (len(out) + 1)
            out[at:at] = arg[0]
        elif not out:
            continue
        elif op == "flip":
            out[pos % len(out)] ^= arg[0]
        else:  # a little-endian word at an offset of 4
            at = 4 * (pos % max(1, len(out) // 4))
            out[at:at + 4] = struct.pack("<I", arg[0])[:len(out) - at]
    return bytes(out)


def float32_wav(samples, channels=1) -> bytes:
    data = np.asarray(samples, dtype="<f4").tobytes()
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE", b"fmt ", 16, 3,
        channels, 8000, 8000 * 4 * channels, 4 * channels, 32, b"data", len(data)) + data


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """One valid input of each kind, and a directory to write mutants to."""
    root = tmp_path_factory.mktemp("fuzz")
    write_wav(WavClip(8000, uniform(Rng(1), 24, low=-1.0, high=1.0)), root / "pcm.wav")
    model = Classifier.random_init(3, [2], 2, Rng(2))
    save_checkpoint(model, root / "model.qpae")
    write_manifest(root / "dataset", [(WavClip(8000, Rng(3).normal(300, sigma=0.1)), c)
                                      for c in (0, 1, 1)])
    data = LabeledDataset(Rng(4).normal(12, sigma=2.0).reshape(4, 3), np.eye(2)[[0, 1, 1, 0]],
                          [0, 1, 1, 0], 2)
    return {"dir": root,
            "report": report_to_json(evaluate(model, data, {0}, original_fa=50.0)),
            "wavs": [(root / "pcm.wav").read_bytes(),
                     float32_wav([0.5, -0.25, 3.0e38, -1.0]),
                     float32_wav([0.1, 0.2, -0.3, 0.4], channels=2)],
            "checkpoint": (root / "model.qpae").read_bytes(),
            "labels": (root / "dataset" / "labels.csv").read_bytes()}


fuzz = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@fuzz
@given(which=st.integers(0, 2), ops=mutations)
def test_read_wav_raises_only_parse_errors(seeds, which, ops):
    path = seeds["dir"] / "mutant.wav"
    path.write_bytes(mutate(seeds["wavs"][which], ops))
    try:
        clip = read_wav(path)
    except WavParseError:
        return
    assert clip.sample_rate > 0 and np.all(np.isfinite(clip.samples))


@fuzz
@given(ops=mutations, fix_crc=st.booleans())
def test_load_checkpoint_raises_only_checkpoint_errors(seeds, ops, fix_crc):
    blob = mutate(seeds["checkpoint"], ops)
    if fix_crc and len(blob) >= 4:  # let the mutant past the checksum
        blob = blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]) & 0xFFFFFFFF)
    path = seeds["dir"] / "mutant.qpae"
    path.write_bytes(blob)
    try:
        model = load_checkpoint(path)
    except (CheckpointError, NumericError):
        return
    assert all(np.all(np.isfinite(p)) for p in model.parameters())


@fuzz
@given(ops=mutations)
def test_load_manifest_raises_only_manifest_and_io_errors(seeds, ops):
    (seeds["dir"] / "dataset" / "labels.csv").write_bytes(mutate(seeds["labels"], ops))
    try:
        data = load_manifest(seeds["dir"] / "dataset", num_classes=2, n_mels=8, n_frames=8)
    except (ManifestError, WavParseError, OSError):
        return
    assert data.n_samples >= 1 and np.all(np.isfinite(data.features))


REPORT_KEYS = ["fa", "ra", "il", "per", "far", "frr", "erb", "per_class",
               "confusion", "n_eval", "forget_set", "flags"]
# JSON values of every kind, NaN and the infinities included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=8)
# per field: delete it, or give it another value
swaps = st.dictionaries(st.sampled_from(REPORT_KEYS),
                        st.just("delete") | st.tuples(json_values), min_size=1, max_size=3)


@fuzz
@given(swap=swaps)
def test_report_from_json_raises_only_report_errors(seeds, swap):
    original = report_from_json(seeds["report"])
    raw = json.loads(seeds["report"])
    for key, value in swap.items():
        if value == "delete":
            del raw[key]
        else:
            raw[key] = value[0]
    try:
        report = report_from_json(json.dumps(raw))
    except ReportError:
        return
    report_csv_row("Fuzzed", report)
    compare_reports(report, report)
    if (report.forget_set, report.num_classes) == (original.forget_set, 2):
        compare_reports(original, report)
        compare_reports(report, original)


@pytest.mark.parametrize("toward", [-np.inf, np.inf], ids=["down", "up"])
@pytest.mark.parametrize("key", ["fa", "ra", "far", "frr", "erb", "per_class.0",
                                 "per_class.1"])
def test_a_recounted_field_one_ulp_off_raises_report_error(seeds, key, toward):
    """A report read back must agree with its own confusion matrix to the bit."""
    raw = json.loads(seeds["report"])
    name, _, index = key.partition(".")
    holder, slot = (raw[name], int(index)) if index else (raw, name)
    holder[slot] = float(np.nextafter(holder[slot], toward))
    with pytest.raises(ReportError, match=f"{name} disagrees with confusion"):
        report_from_json(json.dumps(raw))
