"""Output checks built apart from qpae.

Nothing here imports qpae. Checkpoints are parsed with `struct`/`zlib`
from the documented `.qpae` layout, scores come from a numpy forward pass
written here, report numbers are recounted from their confusion matrix,
and log-mel features are recomputed from WAV files read with the
standard-library `wave` module. Every check raises `CheckFailed`.
"""

from __future__ import annotations

import csv
import io
import struct
import wave
import zlib
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

TOL = 1e-9


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def close(got, want, what: str, tol: float = TOL) -> None:
    if want is None or got is None:
        require(got is None and want is None, f"{what}: got {got!r}, want {want!r}")
        return
    require(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r}")


# --- checkpoints ----------------------------------------------------------
# "QPAE", u16 version (1), u16 layer count; per layer u32 rows, u32 cols,
# rows*cols f32 weights, u32 bias length, f32 bias; then CRC32 of all
# preceding bytes. Little-endian throughout.

def parse_checkpoint(blob: bytes) -> list[tuple[np.ndarray, np.ndarray]]:
    require(len(blob) >= 12, "checkpoint shorter than its header")
    require(blob[:4] == b"QPAE", "checkpoint magic is not QPAE")
    (crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    require(zlib.crc32(blob[:-4]) & 0xFFFFFFFF == crc, "checkpoint CRC32 mismatch")
    version, n_layers = struct.unpack_from("<HH", blob, 4)
    require(version == 1, f"checkpoint version {version}")
    end = len(blob) - 4
    pos = 8
    layers = []
    for i in range(n_layers):
        require(pos + 8 <= end, f"layer {i} header past end")
        rows, cols = struct.unpack_from("<II", blob, pos)
        pos += 8
        require(pos + 4 * rows * cols + 4 <= end, f"layer {i} weights past end")
        w = np.frombuffer(blob, "<f4", rows * cols, pos).astype(np.float64)
        pos += 4 * rows * cols
        (blen,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        require(blen == cols and pos + 4 * blen <= end, f"layer {i} bias length")
        b = np.frombuffer(blob, "<f4", blen, pos).astype(np.float64)
        pos += 4 * blen
        layers.append((w.reshape(rows, cols), b))
    require(pos == end, "bytes between the last layer and the CRC")
    for (w0, _), (w1, _) in zip(layers, layers[1:]):
        require(w0.shape[1] == w1.shape[0], "layer widths do not chain")
    require(all(np.isfinite(w).all() and np.isfinite(b).all() for w, b in layers),
            "non-finite checkpoint parameter")
    return layers


QUANT_GAP = 1e-4   # logit gap below which float32 storage may flip an argmax
QUANT_IL = 1e-4    # IL change float32 storage may cause, in percent


def logits_of(layers, features: np.ndarray) -> np.ndarray:
    h = features
    for w, b in layers[:-1]:
        h = np.maximum(0.0, h @ w + b)
    return h @ layers[-1][0] + layers[-1][1]


def _il(logits: np.ndarray, fmask: np.ndarray, forget: list[int]) -> float:
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = z / z.sum(axis=1, keepdims=True)
    return 100.0 * float(np.mean(probs[fmask][:, sorted(forget)].sum(axis=1)))


def _pct(hits: np.ndarray, mask: np.ndarray) -> float:
    return 100.0 * (int(hits[mask].sum()) / int(mask.sum()))


def score(layers, features: np.ndarray, classes: np.ndarray,
          forget: list[int]) -> dict:
    """FA, RA and IL (percent) of a parsed checkpoint on labelled features."""
    logits = logits_of(layers, features)
    correct = logits.argmax(axis=1) == classes
    fmask = np.isin(classes, forget)
    return {"fa": _pct(correct, fmask), "ra": _pct(correct, ~fmask),
            "il": _il(logits, fmask, forget)}


def check_model_report(layers, features, classes, report: dict, what: str,
                       quantized: bool = False) -> dict:
    """The report's FA, RA and IL equal those of the checkpoint itself.

    `quantized` marks a report computed from the float64 model before it
    was stored as float32 (the original model, the ablation variants):
    a sample whose top two logits lie within QUANT_GAP may then count
    either way, and IL may differ by QUANT_IL.
    """
    forget = report["forget_set"]
    logits = logits_of(layers, features)
    correct = logits.argmax(axis=1) == classes
    lo = hi = correct
    if quantized:
        top2 = np.sort(logits, axis=1)[:, -2:]
        near = top2[:, 1] - top2[:, 0] < QUANT_GAP
        runner_up = np.argsort(logits, axis=1, kind="stable")[:, -2]
        lo, hi = correct & ~near, correct | (near & (runner_up == classes))
    fmask = np.isin(classes, forget)
    for key, mask in (("fa", fmask), ("ra", ~fmask)):
        require(_pct(lo, mask) - TOL <= report[key] <= _pct(hi, mask) + TOL,
                f"{what} {key}: report {report[key]!r}, checkpoint {_pct(correct, mask)!r}")
    il = _il(logits, fmask, forget)
    close(report["il"], il, f"{what} il vs checkpoint", QUANT_IL if quantized else TOL)
    return {"fa": _pct(correct, fmask), "ra": _pct(correct, ~fmask), "il": il}


# --- reports ---------------------------------------------------------------

def check_report(report: dict, forget: list[int], original_fa: float | None,
                 what: str) -> None:
    """Recount FA/RA/FAR/FRR/ERB/PER and per-class accuracy from `confusion`."""
    c = np.asarray(report["confusion"], dtype=np.int64)
    k = c.shape[0]
    require(c.shape == (k, k) and (c >= 0).all(), f"{what}: bad confusion shape")
    require(report["forget_set"] == sorted(forget),
            f"{what}: forget_set {report['forget_set']} != {sorted(forget)}")
    require(report["n_eval"] == int(c.sum()), f"{what}: n_eval != confusion total")
    f = sorted(forget)
    r = [j for j in range(k) if j not in forget]
    fa = 100.0 * (int(c[f, f].sum()) / int(c[f].sum()))
    ra = 100.0 * (int(c[r, r].sum()) / int(c[r].sum()))
    far = 100.0 * (int(c[np.ix_(r, f)].sum()) / int(c[r].sum()))
    close(report["fa"], fa, f"{what} FA")
    close(report["ra"], ra, f"{what} RA")
    close(report["far"], far, f"{what} FAR")
    require(report["fa"] + report["frr"] == 100.0, f"{what}: FA + FRR != 100")
    close(report["erb"], 0.0 if fa + ra == 0 else 2 * fa * ra / (fa + ra), f"{what} ERB")
    per = None
    if original_fa is not None and original_fa > 0:
        per = (original_fa - fa) / original_fa * 100.0
    close(report["per"], per, f"{what} PER")
    for j in range(k):
        row = int(c[j].sum())
        close(report["per_class"][j], 100.0 * (int(c[j, j]) / row) if row else None,
              f"{what} per_class[{j}]")


def fmt(value) -> str:
    """Two decimals, ties away from zero, '--' when absent."""
    if value is None:
        return "--"
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), ROUND_HALF_UP))


def report_cells(report: dict) -> list[str]:
    return [fmt(report[k]) for k in ("fa", "far", "ra", "frr", "per", "il", "erb")]


def check_table(csv_text: str, reports: dict[str, dict], required: list[str],
                what: str) -> None:
    """Each table row carries the numbers of one report; `required` rows exist."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    require(rows and rows[0] == ["Method", "FA", "FAR", "RA", "FRR", "PER", "IL", "ERB"],
            f"{what}: bad header")
    cells = {name: report_cells(rep) for name, rep in reports.items()}
    matched = set()
    for row in rows[1:]:
        hits = [name for name, want in cells.items() if row[1:] == want]
        require(bool(hits), f"{what}: row {row} matches no report")
        matched.update(hits)
    for name in required:
        require(name in matched, f"{what}: no row for report {name}")


# --- method properties -----------------------------------------------------

def check_qp_erasure(original: dict, unlearned: dict, n_forget: int, what: str) -> None:
    """IL well below the original's; RA within criterion 2 (one class) or
    criterion 8 (several classes) of the acceptance suite."""
    require(unlearned["il"] <= 0.5 * original["il"],
            f"{what}: IL {unlearned['il']:.2f} not well below original {original['il']:.2f}")
    if n_forget == 1:
        require(unlearned["ra"] >= original["ra"] - 5.0,
                f"{what}: RA {unlearned['ra']:.2f} < original {original['ra']:.2f} - 5")
    else:
        require(unlearned["ra"] >= 0.60 * original["ra"],
                f"{what}: RA {unlearned['ra']:.2f} < 60% of original {original['ra']:.2f}")


# --- audio front end -------------------------------------------------------

def read_wav_std(path) -> tuple[int, np.ndarray]:
    with wave.open(str(path), "rb") as fh:
        require(fh.getsampwidth() == 2, f"{path}: not 16-bit PCM")
        channels, rate = fh.getnchannels(), fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    x = np.frombuffer(raw, "<i2").astype(np.float64) / 32768.0
    return rate, x.reshape(-1, channels).mean(axis=1)


def log_mel(x: np.ndarray, rate: int, n_fft: int = 256, hop: int = 128,
            n_mels: int = 32, n_frames: int = 32) -> np.ndarray:
    """Periodic-Hann STFT power, HTK-mel triangles, log(1e-6 + power),
    centre-cropped to n_frames; flattened mel-major."""
    needed = n_fft + (n_frames - 1) * hop
    if x.size < needed:
        x = np.concatenate([x, np.zeros(needed - x.size)])
    count = 1 + (x.size - n_fft) // hop
    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop][:count]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    spec = np.fft.rfft(frames * window, axis=1)
    power = spec.real ** 2 + spec.imag ** 2
    top = 2595.0 * np.log10(1.0 + (rate / 2.0) / 700.0)
    edges = 700.0 * (10.0 ** (np.linspace(0.0, top, n_mels + 2) / 2595.0) - 1.0)
    freqs = np.arange(n_fft // 2 + 1) * (rate / n_fft)
    lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    bank = np.maximum(0.0, np.minimum((freqs - lo) / np.maximum(mid - lo, 1e-12),
                                      (hi - freqs) / np.maximum(hi - mid, 1e-12)))
    values = np.log(1e-6 + bank @ power.T)
    start = (count - n_frames) // 2
    return values[:, start:start + n_frames].reshape(-1)


def check_features(wav_paths, features: np.ndarray, what: str) -> None:
    for path, row in zip(wav_paths, features):
        rate, x = read_wav_std(path)
        want = log_mel(x, rate)
        require(row.shape == want.shape and float(np.max(np.abs(row - want))) <= 1e-8,
                f"{what}: log-mel of {path} differs from the recomputation")
