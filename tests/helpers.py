"""Helpers shared by the test modules: a bitwise model comparison,
predictions, the per-sample reference forms of the losses, a one-sample
gradient check, and a manifest writer."""

from pathlib import Path

import numpy as np

from qpae.audio import WavClip, _clip_path, _write_labels, write_wav
from qpae.model import LOG_EPS, backward_batch, forward_batch, softmax


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
# (`CrossEntropyLoss.batch`, `QuantumLoss.batch`) are compared against.

def cross_entropy(pred, target) -> float:
    """-sum target_j * log(pred_j + eps) with the package's eps clamp."""
    return float(-np.sum(target * np.log(pred + LOG_EPS)))


def quantum_loss(pred, target, original_class: int, forget_set: set[int],
                 entropy_lambda: float) -> float:
    """Cross-entropy on retained samples; -lambda * entropy on forgotten ones.

    The forget branch is the *negative* scaled entropy, so minimizing the
    loss drives predictions toward the uniform distribution; its minimum
    is -lambda * log K, attained exactly at uniform.
    """
    if original_class not in forget_set:
        return cross_entropy(pred, target)
    p = np.asarray(pred, dtype=np.float64)
    nz = p > 0.0
    return float(entropy_lambda * np.sum(p[nz] * np.log(p[nz])))


def quantum_loss_logit_grad(pred, target, original_class: int,
                            forget_set: set[int], entropy_lambda: float) -> np.ndarray:
    """Gradient of quantum_loss with respect to the logits feeding `pred`.

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
    block: `forward_batch`, `loss.batch` and `backward_batch` on a batch of one."""
    acts, logits = forward_batch(model, x[None, :])
    _, dlogits = loss.batch(softmax(logits), target[None, :], np.array([original_class]))
    return backward_batch(model, acts, dlogits)


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
        values, _ = loss.batch(softmax(logits), target[None, :],
                               np.array([original_class]))
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
