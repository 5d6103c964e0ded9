"""Dense feed-forward softmax classifier with exact analytic backprop.

Weights are plain numpy float64 arrays, row-major. A classifier is a stack
of ReLU hidden layers followed by a final linear layer (d x K). The
eraser's phases 1 and 4 edit that final layer directly; its phase 3 and
every baseline change the hidden layers too.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .rng import Rng

if TYPE_CHECKING:
    from .data import LabeledDataset

LOG_EPS = 1e-12  # clamp inside log() so one-hot targets do not produce -inf


class NumericError(RuntimeError):
    """Raised when NaN/Inf shows up in model parameters or predictions."""


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax; works on vectors and (n, K) batches."""
    return _softmax_in_place(np.array(logits, dtype=np.float64))


def _softmax_in_place(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a float64 array, written over it."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        # learning_rate 0 is allowed so a zero-step run is expressible
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class TrainLog:
    epoch_losses: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


class Classifier:
    """ReLU MLP stored as one list of (W, b) layers, input side first.

    Every layer but the last applies ReLU; the last is linear and holds one
    column per class. Forward, SGD, the Fisher estimate and the checkpoint
    codec all walk this one list.
    """

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]]):
        self.layers = [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
                       for w, b in layers]
        self.validate(self.layers)

    @property
    def final_w(self) -> np.ndarray:
        return self.layers[-1][0]

    @property
    def final_b(self) -> np.ndarray:
        return self.layers[-1][1]

    @property
    def feature_dim(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.final_w.shape[1]

    @staticmethod
    def validate(layers: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Raise ValueError unless the (W, b) pairs chain into a classifier."""
        if not layers:
            raise ValueError("need at least one layer")
        width = None
        for i, (w, b) in enumerate(layers):
            if w.ndim != 2 or b.ndim != 1:
                raise ValueError(f"layer {i} must be a matrix and a bias vector")
            if width is not None and w.shape[0] != width:
                raise ValueError(f"layer {i} input width {w.shape[0]} != {width}")
            if w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i} bias length must equal its width")
            width = w.shape[1]
        if width < 2:
            raise ValueError("need at least 2 classes")

    def ensure_finite(self) -> None:
        for w in self.parameters():
            if not np.all(np.isfinite(w)):
                raise NumericError("non-finite model parameter detected")

    def parameters(self) -> list[np.ndarray]:
        """Mutable views of every parameter block: W0, b0, W1, b1, ..."""
        return [p for layer in self.layers for p in layer]

    def copy(self) -> "Classifier":
        return Classifier([(w.copy(), b.copy()) for w, b in self.layers])

    @classmethod
    def random_init(cls, feature_dim: int, hidden_sizes: list[int],
                    num_classes: int, rng: Rng) -> "Classifier":
        """He-normal hidden layers, 1/sqrt(fan_in) final layer, zero biases."""
        widths = list(hidden_sizes) + [num_classes]
        layers = []
        fan_in = feature_dim
        for i, width in enumerate(widths):
            gain = 2.0 if i < len(hidden_sizes) else 1.0
            w = rng.normal(fan_in * width, sigma=np.sqrt(gain / fan_in)).reshape(fan_in, width)
            layers.append((w, np.zeros(width)))
            fan_in = width
        return cls(layers)


def forward_batch(model: Classifier, xs: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Batched forward pass keeping all activations for backprop.

    Returns (activations, logits) where activations[i] is the input of
    layer i: the input batch, then the output of each hidden layer.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != model.feature_dim:
        raise ValueError(f"expected (n, {model.feature_dim}) batch, got {xs.shape}")
    acts = [xs]
    h = xs
    for w, b in model.layers[:-1]:
        h = h @ w
        h += b
        # 0.0 first, so that a -0.0 in z comes out as +0.0
        np.maximum(0.0, h, out=h)
        acts.append(h)
    logits = h @ model.final_w
    logits += model.final_b
    return acts, logits


def backprop(model: Classifier, acts: list[np.ndarray],
             dlogits: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Walk the layers top-down, yielding (a, dz) for each: the layer's
    input and d(loss)/dz at its affine output z = a @ W + b.

    The first pair is the final layer's, with dz = `dlogits`; the walk
    stops after the first layer, so no gradient with respect to the input
    batch is formed.
    """
    dz = dlogits
    for i in range(len(model.layers) - 1, -1, -1):
        yield acts[i], dz
        if i:
            dz = (dz @ model.layers[i][0].T) * (acts[i] > 0.0)


def backward_batch(model: Classifier, acts: list[np.ndarray], dlogits: np.ndarray,
                   out: list[np.ndarray]) -> list[np.ndarray]:
    """Gradients for every parameter block given d(loss)/d(logits), aligned
    with model.parameters(); dlogits must already carry any batch averaging.

    Each weight gradient is written into its layer's array of `out`, shaped
    like its weights and input side first, which the list then returns.
    """
    grads_rev: list[np.ndarray] = []
    for (a, dz), w_out in zip(backprop(model, acts, dlogits), reversed(out)):
        grads_rev += [dz.sum(axis=0), np.matmul(a.T, dz, out=w_out)]
    return grads_rev[::-1]


# A loss on softmax outputs, with its gradient in logit space:
# (probs, targets, classes) -> per-sample values (n,) and d(loss)/d(logits)
# (n, K), neither with batch averaging. `classes` holds the class each
# sample carried before any label rewriting; losses that do not care
# about it ignore the argument. A single sample is a batch of one. A loss
# may overwrite `probs`, and may return it as the gradient, which the
# caller may then scale in place.
Loss = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def cross_entropy_loss(probs, targets, classes):
    values = -(targets * np.log(probs + LOG_EPS)).sum(axis=1)
    probs -= targets
    return values, probs


def train(model: Classifier, data: "LabeledDataset", cfg: TrainConfig,
          loss: Loss, rows: np.ndarray | None = None) -> TrainLog:
    """Mini-batch SGD on the given loss over `data.subset(rows)`, or over
    all of `data` when `rows` is None; mutates the model in place.

    Deterministic: the same seed, data and config always produce
    bit-identical parameters, and `rows` trains exactly as
    `data.subset(rows)` would without copying its rows. Each epoch
    gathers the targets and classes of its shuffled order once, and each
    step only its batch's features; the weight gradients go into arrays
    allocated once per call. `data` is only read.
    """
    log = TrainLog()
    picked = np.arange(data.n_samples)
    if rows is not None:
        picked = picked[rows]
    n = len(picked)
    if n == 0:
        log.warnings.append("empty dataset: training skipped")
        return log
    if data.feature_dim != model.feature_dim:
        raise ValueError("dataset feature_dim does not match model")
    rng = Rng(cfg.seed)
    labels = data.labels()
    w_grads = [np.empty_like(w) for w, _ in model.layers]
    for _ in range(cfg.epochs):
        order = picked[rng.permutation(n)]
        targets = labels[order]
        classes = data.original_classes[order]
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            xs = data.features[order[batch]]
            acts, logits = forward_batch(model, xs)
            # the logits are this step's own: softmax and the loss may write over them
            values, dlogits = loss(_softmax_in_place(logits), targets[batch], classes[batch])
            total += float(values.sum())
            dlogits /= len(xs)
            grads = backward_batch(model, acts, dlogits, w_grads)
            if cfg.learning_rate != 0.0:
                for p, g in zip(model.parameters(), grads):
                    g *= cfg.learning_rate  # each gradient is spent here; scale in place
                    p -= g
        log.epoch_losses.append(total / n)
    model.ensure_finite()
    return log
