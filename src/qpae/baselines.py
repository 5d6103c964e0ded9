"""Comparison unlearners: gradient ascent, negative gradient, Fisher
noise scrubbing, and selective synaptic dampening.

These are minimal reconstructions of the methods' core update rules,
sharing the SGD machinery from the model module. Their knobs live in
one BaselineConfig that all four share; defaults are tuned for the
desk-scale benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, check_forget_set
from .model import (Classifier, TrainConfig, backprop, cross_entropy_loss,
                    forward_batch, softmax, train)
from .rng import Rng, derive_seed

FISHER_EPS = 1e-8


@dataclass
class BaselineConfig:
    ascent_epochs: int = 4
    finetune_epochs: int = 1
    learning_rate: float = 0.12
    batch_size: int = 24
    fisher_noise_scale: float = 1e-4   # gamma; conservative by default
    ssd_threshold: float = 0.01        # tau; aggressive by default
    ssd_dampening_floor: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for phase in ("ascent", "finetune"):
            self.train_config(phase)  # the SGD settings, by TrainConfig's rules
        if self.fisher_noise_scale < 0:
            raise ValueError("fisher_noise_scale must be >= 0")
        if self.ssd_threshold <= 0:
            raise ValueError("ssd_threshold must be positive")
        if self.ssd_dampening_floor < 0:
            raise ValueError("ssd_dampening_floor must be >= 0")

    def train_config(self, phase: str) -> TrainConfig:
        """SGD settings of the "ascent" or the "finetune" pass."""
        epochs, stage = {"ascent": (self.ascent_epochs, 0xA5CE),
                         "finetune": (self.finetune_epochs, 0xF17E)}[phase]
        return TrainConfig(learning_rate=self.learning_rate, epochs=epochs,
                           batch_size=self.batch_size, seed=derive_seed(self.seed, stage))


def negated_cross_entropy_loss(probs, targets, classes):
    """Cross-entropy with flipped sign: SGD on it *ascends* the CE surface.

    IEEE negation is exact, so this is bit for bit -CE.
    """
    values, dlogits = cross_entropy_loss(probs, targets, classes)
    return -values, -dlogits


def _ascend(model: Classifier, data: LabeledDataset, forget_set: set[int],
            cfg: BaselineConfig) -> Classifier:
    forgotten = data.forgotten(forget_set)
    if forgotten.any():
        train(model, data.subset(forgotten), cfg.train_config("ascent"),
              negated_cross_entropy_loss)
    return model


def gradient_ascent_unlearn(model: Classifier, data: LabeledDataset,
                            forget_set: set[int], cfg: BaselineConfig) -> Classifier:
    """Ascent on the forget split, then CE fine-tuning on the retain split."""
    _ascend(model, data, forget_set, cfg)
    retained = ~data.forgotten(forget_set)
    if retained.any() and cfg.finetune_epochs:
        train(model, data.subset(retained), cfg.train_config("finetune"),
              cross_entropy_loss)
    return model


def negative_gradient_unlearn(model: Classifier, data: LabeledDataset,
                              forget_set: set[int], cfg: BaselineConfig) -> Classifier:
    """Ascent on the forget split with no repair pass afterwards."""
    return _ascend(model, data, forget_set, cfg)


def estimate_diag_fisher(model: Classifier, data: LabeledDataset,
                         rows: np.ndarray | None = None) -> list[np.ndarray]:
    """Diagonal empirical Fisher: mean squared per-sample CE gradient over
    `data.subset(rows)`, or over all of `data` when `rows` is None.

    Uses the outer-product structure of dense-layer gradients: the squared
    per-sample weight gradient is activation^2 (x) delta^2, so the whole
    dataset reduces to one matmul per layer. The rows are gathered here,
    once; that copy is the estimate's own, so the first layer's a^2 is
    squared into it in place. With `rows` None the caller's arrays are
    read, never written, and a^2 is a new array. Returns one array per
    parameter block, aligned with model.parameters().
    """
    samples = data if rows is None else data.subset(rows)
    n = samples.n_samples
    if n == 0:
        raise ValueError("need at least one sample")
    acts, logits = forward_batch(model, samples.features)
    delta = softmax(logits) - samples.labels()      # per-sample logit grads
    fisher_rev: list[np.ndarray] = []
    for a, dz in backprop(model, acts, delta):
        dz2 = dz ** 2
        # the gathered rows are read for the last time here, so their
        # square may take their place
        out = a if rows is not None and a is acts[0] else None
        fisher_rev += [np.mean(dz2, axis=0), np.square(a, out=out).T @ dz2 / n]
    return fisher_rev[::-1]


def fisher_forgetting(model: Classifier, data: LabeledDataset,
                      forget_set: set[int], cfg: BaselineConfig) -> Classifier:
    """Add seeded Gaussian noise scaled by the forget/retain Fisher ratio."""
    forgotten = data.forgotten(forget_set)
    if not forgotten.any() or cfg.fisher_noise_scale == 0.0:
        return model
    f_forget = estimate_diag_fisher(model, data, forgotten)
    f_retain = [np.zeros_like(f) for f in f_forget] if forgotten.all() \
        else estimate_diag_fisher(model, data, ~forgotten)
    rng = Rng(derive_seed(cfg.seed, 0xF15E))
    for param, ff, fr in zip(model.parameters(), f_forget, f_retain):
        sigma = cfg.fisher_noise_scale * np.sqrt(ff / (fr + FISHER_EPS))
        noise = rng.normal(param.size).reshape(param.shape)
        param += sigma * noise
    model.ensure_finite()
    return model


def synaptic_dampening(model: Classifier, data: LabeledDataset,
                       forget_set: set[int], cfg: BaselineConfig) -> Classifier:
    """Shrink parameters whose forget-set Fisher dominates the overall one.

    A parameter is selected when F_forget > tau * F_full and is scaled by
    min(floor * F_full / F_forget, 1); dampening never amplifies.
    """
    forgotten = data.forgotten(forget_set)
    if not forgotten.any():
        return model
    f_forget = estimate_diag_fisher(model, data, forgotten)
    f_full = estimate_diag_fisher(model, data)
    for param, ff, fa in zip(model.parameters(), f_forget, f_full):
        selected = ff > cfg.ssd_threshold * fa
        beta = np.where(selected,
                        np.minimum(cfg.ssd_dampening_floor * fa / np.maximum(ff, 1e-300), 1.0),
                        1.0)
        param *= beta
    model.ensure_finite()
    return model


def run_baseline(model: Classifier, data: LabeledDataset, forget_set: set[int],
                 method: str, cfg: BaselineConfig) -> Classifier:
    """Run the baseline named `method`; mutates and returns the model."""
    # looked up at call time, so a wrapped module function is the one run
    runners = {
        "gradient_ascent": gradient_ascent_unlearn,
        "negative_gradient": negative_gradient_unlearn,
        "fisher_forgetting": fisher_forgetting,
        "synaptic_dampening": synaptic_dampening,
    }
    if method not in runners:
        raise ValueError(f"unknown baseline method {method!r}; expected one of "
                         f"{tuple(runners)}")
    check_forget_set(forget_set, model.num_classes)
    return runners[method](model, data, forget_set, cfg)
