"""Shared fixtures: a tiny dataset for unit tests and the full desk-scale
benchmark (trained once per session) for the heavier suites."""

import numpy as np
import pytest

from qpae import harness
from qpae.checkpoint import save_checkpoint
from qpae.data import LabeledDataset
from qpae.metrics import evaluate
from qpae.model import Classifier, CrossEntropyLoss, train
from qpae.rng import Rng, derive_seed

from helpers import one_hot


@pytest.fixture(scope="session")
def tiny_data():
    """4-class blob dataset in 12 dims; quick to train on."""
    rng = Rng(42)
    k, per_class, dim = 4, 30, 12
    feats, classes = [], []
    for c in range(k):
        center = rng.normal(dim, sigma=3.0)
        for _ in range(per_class):
            feats.append(center + rng.normal(dim, sigma=0.4))
            classes.append(c)
    labels = np.stack([one_hot(c, k) for c in classes])
    return LabeledDataset(np.stack(feats), labels,
                          np.array(classes, dtype=np.int64), k)


@pytest.fixture()
def tiny_model(tiny_data):
    """Freshly trained small classifier over tiny_data (function-scoped so
    tests may mutate it)."""
    model = Classifier.random_init(tiny_data.feature_dim, [16],
                                   tiny_data.num_classes, Rng(5))
    from qpae.model import TrainConfig
    train(model, tiny_data, TrainConfig(learning_rate=0.05, epochs=12, seed=9),
          CrossEntropyLoss())
    return model


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    """The default single-class desk benchmark: splits, trained original
    model, checkpoint path, and the original evaluation report."""
    cfg = harness.default_config("single")
    train_data, eval_data = harness.prepare_splits(cfg)
    model = Classifier.random_init(train_data.feature_dim, cfg.model.hidden,
                                   train_data.num_classes,
                                   Rng(derive_seed(cfg.seed, 3)))
    train(model, train_data, harness._train_config(cfg), CrossEntropyLoss())
    path = tmp_path_factory.mktemp("desk") / "original.qpae"
    save_checkpoint(model, path)
    report = evaluate(model, eval_data, set(cfg.unlearn.forget_set))
    return {"cfg": cfg, "train": train_data, "eval": eval_data,
            "model": model, "checkpoint": path, "original_report": report}
