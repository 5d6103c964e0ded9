"""Helpers shared by the test modules: scalar and uniform draws over
`Rng.fill_u64` and a scalar splitmix64 reference for its stream, a
bitwise model comparison, predictions, the per-sample reference forms of
the losses, a one-sample gradient check, a manifest writer, a file that
fails part-way through a write, the WAV reader and log-mel batch as
first written, the mask-based evaluation the confusion-matrix counts
replaced, and the Fisher estimate that allocated every square."""

import errno
import struct
from pathlib import Path

import numpy as np

from qpae.audio import (POWER_FLOOR, WavClip, WavParseError, _clip_path, _write_labels,
                        mel_filterbank, write_wav)
from qpae.metrics import EvaluationReport, erb_score
from qpae.model import (LOG_EPS, NumericError, backprop, backward_batch, forward_batch,
                        softmax)
from qpae.rng import _GOLDEN, _MASK, _mix64, unit_interval


# Draws only tests take, over `Rng.fill_u64`: each reads the stream from
# the generator's position onward.

def next_u64(rng) -> int:
    """The next raw 64-bit draw."""
    return int(rng.fill_u64(1)[0])


def uniform(rng, n: int | None = None, low: float = 0.0, high: float = 1.0):
    """n uniform floats in [low, high) with 53-bit resolution, one per draw;
    one float when n is None."""
    u = unit_interval(rng.fill_u64(1 if n is None else n))
    return low + (high - low) * (float(u[0]) if n is None else u)


def randbelow(rng, bound: int) -> int:
    """Integer in [0, bound) from one draw; modulo bias is < bound / 2**64."""
    return next_u64(rng) % bound


def reference_draws(seed: int, skip: int, n: int) -> list[int]:
    """Draws skip to skip + n - 1 of the Rng(seed) stream, one scalar
    splitmix64 mix each: the oracle `fill_u64` and `draws_at` are compared
    against."""
    seed &= _MASK
    return [_mix64((seed + (skip + i) * _GOLDEN) & _MASK) for i in range(1, n + 1)]


def one_hot(class_id: int, num_classes: int) -> np.ndarray:
    v = np.zeros(num_classes)
    v[class_id] = 1.0
    return v


def reference_label_matrix(classes, num_classes: int, *steps: set[int]) -> np.ndarray:
    """An explicit (n, num_classes) label matrix: the one-hot rows of
    `classes`, then, for each phase-2 step in turn, a copy with the rows
    of that step's classes set to 1 / num_classes."""
    labels = np.eye(num_classes)[classes]
    for step in steps:
        labels = labels.copy()
        labels[np.isin(classes, sorted(step))] = 1.0 / num_classes
    return labels


def equals_bits(a, b) -> bool:
    """True if two classifiers hold the same parameter blocks, bit for bit."""
    mine, theirs = a.parameters(), b.parameters()
    return len(mine) == len(theirs) and all(
        p.shape == q.shape and np.array_equal(p, q) for p, q in zip(mine, theirs))


def predict_probs(model, xs) -> np.ndarray:
    """Softmax outputs for a batch, shape (n, K)."""
    return softmax(forward_batch(model, xs)[1])


def predict_classes(model, xs) -> np.ndarray:
    """Top-1 predictions; argmax breaks ties toward the lowest class index."""
    return np.argmax(forward_batch(model, xs)[1], axis=1)


# Per-sample forms of the losses: the oracles the batch forms
# (`model.cross_entropy_loss`, `eraser.quantum_loss`) are compared against.

def reference_cross_entropy(pred, target) -> float:
    """-sum target_j * log(pred_j + eps) with the package's eps clamp."""
    return float(-np.sum(target * np.log(pred + LOG_EPS)))


def reference_quantum_loss(pred, target, original_class: int, forget_set: set[int],
                           entropy_lambda: float) -> float:
    """Cross-entropy on retained samples; -lambda * entropy on forgotten ones.

    The forget branch is the *negative* scaled entropy, so minimizing the
    loss drives predictions toward the uniform distribution; its minimum
    is -lambda * log K, attained exactly at uniform.
    """
    if original_class not in forget_set:
        return reference_cross_entropy(pred, target)
    p = np.asarray(pred, dtype=np.float64)
    nz = p > 0.0
    return float(entropy_lambda * np.sum(p[nz] * np.log(p[nz])))


def reference_quantum_loss_logit_grad(pred, target, original_class: int,
                                      forget_set: set[int],
                                      entropy_lambda: float) -> np.ndarray:
    """Gradient of reference_quantum_loss with respect to the logits feeding `pred`.

    Forget branch: lambda * p_k * (log p_k + H(p)), which vanishes at the
    uniform distribution and always sums to zero. Retained branch: p - target.
    """
    p = np.asarray(pred, dtype=np.float64)
    if original_class not in forget_set:
        return p - np.asarray(target, dtype=np.float64)
    plogp = np.where(p > 0.0, p * np.log(np.maximum(p, 1e-300)), 0.0)
    h = -np.sum(plogp)
    return entropy_lambda * (plogp + p * h)


def sample_gradient(model, x, target, loss, original_class: int) -> list[np.ndarray]:
    """The package's analytic gradient of one sample's loss, per parameter
    block: `forward_batch`, `loss` and `backward_batch` on a batch of one."""
    acts, logits = forward_batch(model, x[None, :])
    _, dlogits = loss(softmax(logits), target[None, :], np.array([original_class]))
    return backward_batch(model, acts, dlogits, [np.empty_like(w) for w, _ in model.layers])


def gradient_check(model, x, target, loss, original_class: int | None = None,
                   step: float = 1e-5) -> float:
    """Max relative error between `sample_gradient` and central differences.

    Relative error for parameter p is |g_a - g_fd| / max(1, |g_a|, |g_fd|).
    Only meant for small models; refuses anything above 5000 parameters.
    """
    if sum(p.size for p in model.parameters()) > 5000:
        raise ValueError("gradient_check is limited to models with <= 5000 parameters")
    if original_class is None:
        original_class = int(np.argmax(target))

    def loss_at() -> float:
        _, logits = forward_batch(model, x[None, :])
        values, _ = loss(softmax(logits), target[None, :], np.array([original_class]))
        return float(values[0])

    analytic = sample_gradient(model, x, target, loss, original_class)
    worst = 0.0
    for block, grad in zip(model.parameters(), analytic):
        flat = block.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            up = loss_at()
            flat[i] = saved - step
            down = loss_at()
            flat[i] = saved
            fd = (up - down) / (2.0 * step)
            err = abs(gflat[i] - fd) / max(1.0, abs(gflat[i]), abs(fd))
            worst = max(worst, err)
    return worst


def write_manifest(dataset_dir, clips: list[tuple[WavClip, int]]) -> None:
    """Write clips as WAV files plus a labels.csv manifest, in the layout
    `audio.synth_manifest` writes."""
    root = Path(dataset_dir)
    (root / "wavs").mkdir(parents=True, exist_ok=True)
    for i, (clip, _) in enumerate(clips):
        write_wav(clip, root / _clip_path(i))
    _write_labels(root, [class_id for _, class_id in clips])


class FailingWrite:
    """Wraps an open file: write stores half its bytes, then the disk is full."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, blob):
        self.fh.write(blob[:len(blob) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


# The per-clip front end as first written: the oracles the lean `read_wav`
# and `log_mel_batch` are compared against, bit for bit.

def reference_read_wav(path) -> WavClip:
    """Parse a RIFF/WAVE file (PCM16 or float32; stereo averaged to mono)."""
    blob = Path(path).read_bytes()
    if len(blob) < 12:
        raise WavParseError("file too short for a RIFF header")
    if blob[:4] == b"RIFX":
        raise WavParseError("big-endian RIFX files are not supported")
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise WavParseError("not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(blob):
        cid = blob[pos:pos + 4]
        size = struct.unpack("<I", blob[pos + 4:pos + 8])[0]
        body_start = pos + 8
        if body_start + size > len(blob):
            raise WavParseError(f"chunk {cid!r} extends past end of file")
        body = blob[body_start:body_start + size]
        if cid == b"fmt ":
            if size < 16:
                raise WavParseError("fmt chunk too small")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            data = body
        pos = body_start + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavParseError("missing fmt chunk")
    if data is None:
        raise WavParseError("missing data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels < 1:
        raise WavParseError("channel count must be >= 1")
    if sample_rate < 1:
        raise WavParseError("sample rate must be >= 1")
    if audio_format == 1 and bits == 16:
        raw = np.frombuffer(data[:len(data) - len(data) % 2], dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    elif audio_format == 3 and bits == 32:
        raw = np.frombuffer(data[:len(data) - len(data) % 4], dtype="<f4")
        # checked before the cast, which warns on a signalling NaN
        if not np.all(np.isfinite(raw)):
            raise WavParseError("float samples must be finite")
        samples = raw.astype(np.float64)
    else:
        raise WavParseError(f"unsupported codec: format tag {audio_format}, {bits}-bit")

    if samples.size < channels or samples.size == 0:
        raise WavParseError("data chunk holds no complete frame")
    frames = samples.size // channels
    samples = samples[:frames * channels].reshape(frames, channels).mean(axis=1)
    return WavClip(sample_rate=sample_rate, samples=samples)


def reference_log_mel_batch(x, sample_rate, n_mels=32, target_frames=32) -> np.ndarray:
    """Log mel-band power of the m equal-length clips in x (m, n), shape
    (m, n_mels, target_frames): zero-pad, frame with a sliding window view,
    a Hann window computed per call, one stacked mel matmul, crop, log."""
    n_fft, hop = 256, 128
    x = np.asarray(x, dtype=np.float64)
    needed = n_fft + (target_frames - 1) * hop
    if x.shape[1] < needed:
        x = np.concatenate([x, np.zeros((x.shape[0], needed - x.shape[1]))], axis=1)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft, axis=1)[:, ::hop]
    spec = np.fft.rfft(frames * window, axis=-1)
    power = (spec.real ** 2 + spec.imag ** 2).transpose(0, 2, 1)
    mel_power = np.matmul(mel_filterbank(sample_rate, n_mels), power)
    start = (mel_power.shape[2] - target_frames) // 2
    return np.log(POWER_FLOOR + mel_power[:, :, start:start + target_frames])


def reference_evaluate(model, data, forget_set, original_fa=None) -> EvaluationReport:
    """`metrics.evaluate` as first written: one boolean-mask pass per
    accuracy and a per-class loop beside the confusion matrix. The oracle
    the confusion-matrix shares are compared against, bit for bit."""
    if data.n_samples == 0:
        raise ValueError("evaluation data must be non-empty")
    k = data.num_classes
    bad = [c for c in forget_set if c < 0 or c >= k]
    if not forget_set or bad:
        raise ValueError(f"invalid forget_set {sorted(forget_set)} for K={k}")

    _, logits = forward_batch(model, data.features)
    probs = softmax(logits)
    if not np.all(np.isfinite(probs)):
        raise NumericError("non-finite prediction encountered during evaluation")
    preds = np.argmax(logits, axis=1)
    truth = data.original_classes
    correct = preds == truth

    forget_cols = np.array(sorted(forget_set))
    forget_mask = np.isin(truth, forget_cols)
    retain_mask = ~forget_mask
    flags: list[str] = []

    if forget_mask.any():
        fa = 100.0 * float(np.mean(correct[forget_mask]))
        frr = 100.0 - fa
        il = 100.0 * float(np.mean(np.sum(probs[np.ix_(forget_mask, forget_cols)], axis=1)))
    else:
        fa, frr, il = None, None, 0.0
        flags.append("empty_forget_split")

    if retain_mask.any():
        ra = 100.0 * float(np.mean(correct[retain_mask]))
        far = 100.0 * float(np.mean(np.isin(preds[retain_mask], forget_cols)))
    else:
        ra, far = None, None
        flags.append("empty_retain_split")

    per = None
    if original_fa is not None and original_fa > 0.0 and fa is not None:
        per = (original_fa - fa) / original_fa * 100.0

    erb = erb_score(fa, ra) if fa is not None and ra is not None else None

    per_class: list[float | None] = []
    for c in range(k):
        mask = truth == c
        per_class.append(100.0 * float(np.mean(correct[mask])) if mask.any() else None)

    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (truth, preds), 1)

    return EvaluationReport(fa=fa, ra=ra, il=il, per=per, far=far, frr=frr,
                            erb=erb, per_class=per_class, confusion=confusion,
                            n_eval=data.n_samples, forget_set=sorted(forget_set),
                            flags=flags)


def reference_diag_fisher(model, samples) -> list[np.ndarray]:
    """`baselines.estimate_diag_fisher` before it gathered its own rows:
    it reads the rows it is given and allocates every square. The oracle
    the in-place square is compared against, bit for bit."""
    if samples.n_samples == 0:
        raise ValueError("need at least one sample")
    n = samples.n_samples
    acts, logits = forward_batch(model, samples.features)
    delta = softmax(logits) - samples.labels()
    fisher_rev: list[np.ndarray] = []
    for a, dz in backprop(model, acts, delta):
        dz2 = dz ** 2
        fisher_rev += [np.mean(dz2, axis=0), (a ** 2).T @ dz2 / n]
    return fisher_rev[::-1]
