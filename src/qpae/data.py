"""Labeled feature datasets with soft labels and forget-set bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng

LABEL_SUM_TOL = 1e-9


@dataclass
class LabeledDataset:
    """Feature vectors plus soft-label distributions over num_classes.

    `original_classes` records the class each sample carried at creation
    time; label rewriting (e.g. superposition) never touches it, so
    `forgotten`, the one forget-row rule, recovers the split at any time.
    """

    features: np.ndarray          # (n, feature_dim) float64
    labels: np.ndarray            # (n, num_classes) float64, rows sum to 1
    original_classes: np.ndarray  # (n,) int64
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.original_classes = np.asarray(self.original_classes, dtype=np.int64)
        self.validate()

    def validate(self) -> None:
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise ValueError("features and labels must be 2-D")
        n = self.features.shape[0]
        if self.labels.shape != (n, self.num_classes):
            raise ValueError("labels must be (n, num_classes)")
        if self.original_classes.shape != (n,):
            raise ValueError("original_classes must be (n,)")
        if n and (self.original_classes.min() < 0
                  or self.original_classes.max() >= self.num_classes):
            raise ValueError("original class out of range")
        if n and np.max(np.abs(self.labels.sum(axis=1) - 1.0)) > LABEL_SUM_TOL:
            raise ValueError("every label must sum to 1")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, rows: np.ndarray) -> "LabeledDataset":
        """The rows given by an index array or a boolean mask, in order."""
        return LabeledDataset(self.features[rows], self.labels[rows],
                              self.original_classes[rows], self.num_classes)

    def forgotten(self, forget_set: set[int]) -> np.ndarray:
        """Boolean row mask: True where the original class is in forget_set."""
        return np.isin(self.original_classes, sorted(forget_set))


def train_count(n: int, train_frac: float) -> int:
    """How many of a class's n samples train_eval_split puts on the train side."""
    return int(round(n * train_frac))


def train_eval_split(classes: np.ndarray, num_classes: int, train_frac: float,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class split of row indices: (train rows, held-out rows),
    each sorted, so both sides see every class.

    Only each row's class is read, so the split is known before any
    features are built.
    """
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must be in (0, 1)")
    rng = Rng(seed)
    train_idx: list[int] = []
    eval_idx: list[int] = []
    for c in range(num_classes):
        idx = np.where(classes == c)[0]
        rng.shuffle(idx)
        cut = train_count(len(idx), train_frac)
        train_idx.extend(idx[:cut])
        eval_idx.extend(idx[cut:])
    return (np.array(sorted(train_idx), dtype=np.int64),
            np.array(sorted(eval_idx), dtype=np.int64))
