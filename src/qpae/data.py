"""Labeled feature datasets: features, their classes, and the superposed classes."""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, replace

import numpy as np

from .rng import Rng

TRAIN_FRACTION = 0.8  # of each class's samples; the rest are held out


@dataclass
class LabeledDataset:
    """Feature vectors, the class of each, and the superposed classes.

    A sample's label is the one-hot row of its class, or the uniform row
    over all num_classes when its class is in `superposed`; `labels()`
    forms those rows. `original_classes` never changes, so `forgotten`
    recovers the rows of any set of classes at any time.
    """

    features: np.ndarray          # (n, feature_dim) float64
    original_classes: np.ndarray  # (n,) int64
    num_classes: int
    superposed: frozenset[int] = frozenset()

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.original_classes = np.asarray(self.original_classes, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be 2-D")
        n = self.features.shape[0]
        if self.original_classes.shape != (n,):
            raise ValueError("original_classes must be (n,)")
        if n and (self.original_classes.min() < 0
                  or self.original_classes.max() >= self.num_classes):
            raise ValueError("original class out of range")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def labels(self) -> np.ndarray:
        """(n, num_classes) float64 label rows, a fresh array: one-hot, or
        1 / num_classes throughout where the sample's class is superposed."""
        labels = np.eye(self.num_classes)[self.original_classes]
        labels[self.forgotten(self.superposed)] = 1.0 / self.num_classes
        return labels

    def subset(self, rows: np.ndarray) -> "LabeledDataset":
        """The rows given by an index array or a boolean mask, in order."""
        return replace(self, features=self.features[rows],
                       original_classes=self.original_classes[rows])

    def forgotten(self, forget_set: Collection[int]) -> np.ndarray:
        """Boolean row mask: True where the original class is in forget_set."""
        return forget_table(forget_set, self.num_classes)[self.original_classes]


def check_forget_set(forget_set: Collection[int], num_classes: int,
                     what: str = "forget_set") -> None:
    """The one forget-set rule; `what` names the set in the ValueError it raises."""
    if not forget_set:
        raise ValueError(f"{what} must name at least one class")
    bad = [c for c in forget_set if not 0 <= c < num_classes]
    if bad:
        raise ValueError(f"{what} holds {bad}, not class ids in [0, {num_classes})")
    if len(set(forget_set)) >= num_classes:
        raise ValueError(f"{what} must leave at least one class retained")


def forget_table(forget_set: Collection[int], num_classes: int) -> np.ndarray:
    """(num_classes,) boolean class table: True at each class in forget_set."""
    return np.isin(np.arange(num_classes), sorted(forget_set))


def train_count(n: int) -> int:
    """How many of a class's n samples train_eval_split puts on the train side."""
    return int(round(n * TRAIN_FRACTION))


def train_eval_split(classes: np.ndarray, num_classes: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class TRAIN_FRACTION split of row indices: (train rows,
    held-out rows), each sorted, so both sides see every class.

    Only each row's class is read, so the split is known before any
    features are built.
    """
    rng = Rng(seed)
    train_idx: list[int] = []
    eval_idx: list[int] = []
    for c in range(num_classes):
        idx = np.where(classes == c)[0]
        rng.shuffle(idx)
        cut = train_count(len(idx))
        train_idx.extend(idx[:cut])
        eval_idx.extend(idx[cut:])
    return (np.array(sorted(train_idx), dtype=np.int64),
            np.array(sorted(eval_idx), dtype=np.int64))
