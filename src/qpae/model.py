"""Dense feed-forward softmax classifier with exact analytic backprop.

Weights are plain numpy float64 arrays, row-major. A classifier is a stack
of ReLU hidden layers followed by a final linear layer (d x K); every
unlearning method in this package manipulates that final layer directly,
so the representation is kept deliberately transparent.
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
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


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
        h = np.maximum(0.0, h @ w + b)
        acts.append(h)
    logits = h @ model.final_w + model.final_b
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


def backward_batch(model: Classifier, acts: list[np.ndarray],
                   dlogits: np.ndarray) -> list[np.ndarray]:
    """Gradients for every parameter block given d(loss)/d(logits).

    dlogits must already carry any batch averaging. The returned list is
    aligned with model.parameters().
    """
    grads_rev: list[np.ndarray] = []
    for a, dz in backprop(model, acts, dlogits):
        grads_rev += [np.sum(dz, axis=0), a.T @ dz]
    return grads_rev[::-1]


# A loss on softmax outputs, with its gradient in logit space:
# (probs, targets, classes) -> per-sample values (n,) and d(loss)/d(logits)
# (n, K), neither with batch averaging. `classes` holds the class each
# sample carried before any label rewriting; losses that do not care
# about it ignore the argument. A single sample is a batch of one.
Loss = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def cross_entropy_loss(probs, targets, classes):
    return -np.sum(targets * np.log(probs + LOG_EPS), axis=1), probs - targets


def train(model: Classifier, data: "LabeledDataset", cfg: TrainConfig,
          loss: Loss) -> TrainLog:
    """Mini-batch SGD on the given loss; mutates the model in place.

    Deterministic: the same seed, data and config always produce
    bit-identical parameters.
    """
    log = TrainLog()
    if data.n_samples == 0:
        log.warnings.append("empty dataset: training skipped")
        return log
    if data.feature_dim != model.feature_dim:
        raise ValueError("dataset feature_dim does not match model")
    rng = Rng(cfg.seed)
    n = data.n_samples
    labels = data.labels()
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xs = data.features[idx]
            ts = labels[idx]
            cs = data.original_classes[idx]
            acts, logits = forward_batch(model, xs)
            probs = softmax(logits)
            values, dlogits = loss(probs, ts, cs)
            total += float(np.sum(values))
            grads = backward_batch(model, acts, dlogits / len(idx))
            if cfg.learning_rate != 0.0:
                for p, g in zip(model.parameters(), grads):
                    g *= cfg.learning_rate  # grads are fresh arrays; scale in place
                    p -= g
        log.epoch_losses.append(total / n)
    model.ensure_finite()
    return log
