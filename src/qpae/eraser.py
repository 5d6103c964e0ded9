"""Four-phase class-forgetting pipeline for softmax classifiers.

Phase 1 flips and shrinks the forgotten class's final-layer column
(destructive interference), phase 2 rewrites forgotten labels to the
uniform distribution (superposition), phase 3 retrains briefly with a
loss that keeps retained classes on cross-entropy while rewarding high
predictive entropy on forgotten samples, and phase 4 post-multiplies the
final weights by a mixing matrix that entangles the forgotten column
with the retained ones.

All of it acts on the final linear layer plus ordinary SGD; the quantum
vocabulary is naming, not hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .data import LabeledDataset, check_forget_set, forget_table
from .metrics import confusion_matrix, confusion_scores
from .model import Classifier, TrainConfig, cross_entropy_loss, forward_batch, train
from .timing import stage


@dataclass
class UnlearnConfig:
    """Pipeline hyperparameters; the config's `unlearn` section.

    `epochs`, `learning_rate` and `batch_size` are phase 3's SGD settings.
    The three skip flags ablate individual phases. `seed` is no config
    key: the harness derives it from the master seed. The forget set is
    checked where the class count is known, by `data.check_forget_set`.
    """

    forget_set: list[int] = field(default_factory=lambda: [0])
    phi: float = math.pi
    entropy_lambda: float = 1.0
    alpha: float = 0.3
    epochs: int = 5
    learning_rate: float = 0.15
    batch_size: int = 32
    skip_weight_transform: bool = False
    skip_uncertainty_max: bool = False
    skip_mixing: bool = False
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.entropy_lambda <= 0.0:
            raise ValueError("entropy_lambda must be positive")
        self.train_config()  # the SGD settings, by TrainConfig's rules

    def train_config(self) -> TrainConfig:
        """SGD settings of phase 3."""
        return TrainConfig(learning_rate=self.learning_rate, epochs=self.epochs,
                           batch_size=self.batch_size, seed=self.seed)


def interference_transform(model: Classifier, forget_set: set[int],
                           phi: float) -> Classifier:
    """Phase 1: scale each forgotten column by cos(phi)/sqrt(2), its bias
    by cos(phi). Everything else is untouched.
    """
    check_forget_set(forget_set, model.num_classes)
    c = math.cos(phi)
    if abs(c) < 4e-16:
        c = 0.0  # phi at an odd multiple of pi/2 must zero the column exactly
    w_factor = c / math.sqrt(2.0)
    b_factor = c
    for j in sorted(forget_set):
        model.final_w[:, j] *= w_factor
        model.final_b[j] *= b_factor
    return model


def superpose_labels(data: LabeledDataset, forget_set: set[int]) -> LabeledDataset:
    """Phase 2: forgotten samples get the uniform label over all K classes.

    The result is `data` with forget_set added to its superposed classes;
    it shares every array with the input (datasets are treated as
    immutable) and copies none, so relabeling costs nothing per sample.
    """
    check_forget_set(forget_set, data.num_classes)
    return replace(data, superposed=data.superposed | frozenset(forget_set))


def quantum_loss(probs, targets, classes, forgotten: np.ndarray, entropy_lambda: float):
    """The dual-branch loss, keyed on original class: cross-entropy on
    retained samples, lambda times the negated entropy on forgotten ones.

    `forgotten` is the `forget_table` of the forget set. Cross-entropy is
    formed for the whole batch, and the entropy branch is then written
    over its forgotten rows. Phase 3 binds the last two arguments, once
    per request, to make it a `Loss`."""
    forget_rows = forgotten[classes]
    p = probs[forget_rows]  # a copy, taken before cross-entropy writes over probs
    plogp = np.where(p > 0.0, p * np.log(np.maximum(p, 1e-300)), 0.0)
    sum_plogp = plogp.sum(axis=1)
    values, grads = cross_entropy_loss(probs, targets, classes)
    lam = float(entropy_lambda)
    values[forget_rows] = lam * sum_plogp
    grads[forget_rows] = lam * (plogp + p * -sum_plogp[:, None])
    return values, grads


def build_mixing_matrix(num_classes: int, forget_set: set[int],
                        alpha: float) -> np.ndarray:
    """Phase-4 mixing matrix: unit diagonal, alpha between a forgotten and
    a retained class, zero between two forgotten classes.
    """
    check_forget_set(forget_set, num_classes)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    forgotten = forget_table(forget_set, num_classes)
    cross = forgotten[:, None] ^ forgotten[None, :]
    m = np.where(cross, alpha, 0.0)
    np.fill_diagonal(m, 1.0)
    return m


def apply_mixing(model: Classifier, mixing: np.ndarray) -> Classifier:
    """Phase 4: final_weights <- final_weights @ M, written in place. Bias is
    left alone; the forgotten bias was already inverted in phase 1.
    """
    k = model.num_classes
    if mixing.shape != (k, k):
        raise ValueError(f"mixing matrix must be ({k}, {k}), got {mixing.shape}")
    model.final_w[...] = model.final_w @ mixing
    return model


def penultimate(model: Classifier, data: LabeledDataset) -> np.ndarray:
    """Output of the model's last hidden layer on every sample of `data`."""
    acts, _ = forward_batch(model, data.features)
    return acts[-1]


def accuracy_snapshot(model: Classifier, data: LabeledDataset, forget_set: frozenset[int],
                      hidden: np.ndarray) -> tuple[float | None, float | None]:
    """Forget and retain accuracy (%) of the model on `data`, counted as a
    report counts them, from `hidden` = `penultimate(model, data)`, which a
    caller shares across final layers; a side with no rows is None."""
    preds = np.argmax(hidden @ model.final_w + model.final_b, axis=1)
    confusion = confusion_matrix(data.original_classes, preds, model.num_classes)
    scores = confusion_scores(confusion, sorted(forget_set))
    return scores["fa"], scores["ra"]


def phase_entry(phase: str, span: dict | None, model: Classifier, data: LabeledDataset,
                forget_set: frozenset[int], hidden: np.ndarray) -> dict:
    """The phase log's entry for `phase`: `accuracy_snapshot` on `hidden`
    after it, and the wall time of its `stage` span; a phase with no span was skipped."""
    fa, ra = accuracy_snapshot(model, data, forget_set, hidden)
    return {"phase": phase, "forget_accuracy": fa, "retain_accuracy": ra,
            "wall_ms": span["wall_ms"] if span else 0.0, "skipped": span is None}


def run_qp_audio_eraser(model: Classifier, data: LabeledDataset,
                        cfg: UnlearnConfig) -> tuple[Classifier, list[dict]]:
    """Run the four phases in order, mutating the model in place.

    Returns the model and a phase log of one `phase_entry` per phase,
    scored on `data`. Only phase 3 changes the hidden layers, so their
    output on `data` is computed before phase 1 and again after phase 3
    runs; the other snapshots score just the final layer on it.
    """
    check_forget_set(cfg.forget_set, model.num_classes)
    forget = frozenset(cfg.forget_set)
    log: list[dict] = []
    hidden = penultimate(model, data)

    def record(phase: str, span: dict | None) -> None:
        log.append(phase_entry(phase, span, model, data, forget, hidden))

    span = None  # a phase that an ablation flag skips keeps no span
    if not cfg.skip_weight_transform:
        with stage() as span:
            interference_transform(model, forget, cfg.phi)
    record("interference", span)

    with stage() as span:
        relabeled = superpose_labels(data, forget)
    record("superposition", span)

    span = None
    if not cfg.skip_uncertainty_max:
        loss = partial(quantum_loss, forgotten=forget_table(forget, model.num_classes),
                       entropy_lambda=cfg.entropy_lambda)
        with stage() as span:
            train(model, relabeled, cfg.train_config(), loss)
        # SGD updated the hidden arrays in place
        hidden = penultimate(model, data)
    record("optimization", span)

    span = None
    if not cfg.skip_mixing:
        with stage() as span:
            mixing = build_mixing_matrix(model.num_classes, forget, cfg.alpha)
            apply_mixing(model, mixing)
    record("mixing", span)

    model.ensure_finite()
    return model, log


__all__ = [
    "UnlearnConfig", "interference_transform", "phase_entry",
    "superpose_labels", "quantum_loss", "build_mixing_matrix",
    "apply_mixing", "run_qp_audio_eraser", "penultimate", "accuracy_snapshot",
]
