import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpae.baselines import negated_cross_entropy_loss
from qpae.data import LabeledDataset
from qpae.eraser import forget_table, quantum_loss, superpose_labels
from qpae.model import (Classifier, TrainConfig, backward_batch, cross_entropy_loss,
                        forward_batch, softmax, train)
from qpae.rng import Rng

from helpers import (equals_bits, gradient_check, one_hot, predict_classes, randbelow,
                     reference_cross_entropy, reference_label_matrix,
                     reference_quantum_loss, reference_quantum_loss_logit_grad, uniform)


def linear_model(w, b):
    return Classifier([(np.asarray(w, dtype=float), np.asarray(b, dtype=float))])


class TestClassifier:
    @pytest.mark.parametrize("layers", [
        [],                                                     # no layer
        [(np.zeros((3, 4)), np.zeros(4)), (np.zeros((5, 2)), np.zeros(2))],  # width break
        [(np.zeros((3, 4)), np.zeros(4)), (np.zeros((4, 2)), np.zeros(3))],  # bias length
        [(np.zeros((3, 2)), np.zeros(3))],                      # bias length, final layer
        [(np.zeros((3, 4)), np.zeros(4)), (np.zeros((4, 1)), np.zeros(1))],  # one class
        [(np.zeros(3), np.zeros(3))],                           # not a matrix
    ])
    def test_rejects_malformed_layer_lists(self, layers):
        with pytest.raises(ValueError):
            Classifier(layers)

    def test_final_layer_is_the_last_list_entry(self):
        m = Classifier.random_init(5, [7, 6], 3, Rng(2))
        assert [w.shape for w, _ in m.layers] == [(5, 7), (7, 6), (6, 3)]
        assert m.final_w is m.layers[-1][0] and m.final_b is m.layers[-1][1]
        assert (m.feature_dim, m.num_classes) == (5, 3)
        with pytest.raises(AttributeError):
            m.final_w = np.zeros((6, 3))


def single_forward(model, x):
    """Logits of one sample, as a batch of one."""
    return forward_batch(model, np.asarray(x, dtype=float)[None, :])[1][0]


class TestForward:
    def test_identity_weights(self):
        m = linear_model([[1, 0], [0, 1]], [0, 0])
        assert single_forward(m, [3.0, -1.0]).tolist() == [3.0, -1.0]

    def test_single_column_affine(self):
        # z = w.h + b with w=2, h=0.5, b=1
        m = linear_model([[2.0, 0.0]], [1.0, 0.0])
        assert single_forward(m, [0.5])[0] == 2.0 * 0.5 + 1.0

    def test_zero_hidden_layer_gives_bias_logits(self):
        m = Classifier([(np.zeros((3, 4)), np.zeros(4)),
                        (np.ones((4, 2)), np.array([0.5, -0.25]))])
        acts, logits = forward_batch(m, np.array([[1.0, 2.0, 3.0]]))
        assert np.all(acts[-1] == 0.0)
        assert logits[0].tolist() == [0.5, -0.25]

    def test_shape_mismatch_raises(self):
        m = linear_model([[1.0, 0.0]], [0.0, 0.0])
        with pytest.raises(ValueError):
            forward_batch(m, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            forward_batch(m, np.array([1.0]))

    def test_batch_matches_single(self):
        rng = Rng(3)
        m = Classifier.random_init(5, [7], 3, rng)
        xs = rng.normal(4 * 5).reshape(4, 5)
        _, batch_logits = forward_batch(m, xs)
        for i in range(4):
            assert np.allclose(batch_logits[i], single_forward(m, xs[i]), atol=1e-12)


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax(np.zeros(4)), 0.25, atol=1e-15)

    def test_extreme_logits_stable(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.0, abs=1e-300)

    def test_analytic_binary(self):
        p = softmax(np.array([math.log(2.0), 0.0]))
        assert np.allclose(p, [2 / 3, 1 / 3], atol=1e-15)

    def test_sum_and_shift_invariance_1000_random(self):
        rng = Rng(17)
        for _ in range(1000):
            k = 2 + randbelow(rng, 9)
            z = rng.normal(k, sigma=5.0)
            p = softmax(z)
            assert abs(p.sum() - 1.0) <= 1e-9
            shifted = softmax(z + uniform(rng, low=-100.0, high=100.0))
            assert np.max(np.abs(p - shifted)) <= 1e-9


def entropy(pred):
    """Shannon entropy in nats, read off reference_quantum_loss's forget
    branch, which is -lambda * H(p)."""
    return -reference_quantum_loss(pred, pred, 0, {0}, 1.0)


class TestEntropyAndCrossEntropy:
    def test_ce_uniform_vs_onehot(self):
        pred = np.full(10, 0.1)
        ce = reference_cross_entropy(pred, one_hot(3, 10))
        assert ce == pytest.approx(math.log(10), abs=1e-9)

    def test_ce_perfect_prediction_near_zero(self):
        t = one_hot(1, 4)
        assert reference_cross_entropy(t.copy(), t) < 1e-11

    def test_ce_binary_symmetric(self):
        half = np.array([0.5, 0.5])
        assert reference_cross_entropy(half, half) == pytest.approx(math.log(2), abs=1e-9)

    def test_entropy_uniform_and_onehot(self):
        assert entropy(np.full(10, 0.1)) == pytest.approx(math.log(10), abs=1e-12)
        assert entropy(one_hot(0, 6)) == 0.0

    def test_entropy_dyadic(self):
        assert entropy(np.array([0.5, 0.25, 0.25])) == pytest.approx(1.5 * math.log(2), abs=1e-12)

    def test_entropy_bounds_uniform_is_max(self):
        for k in range(2, 65):
            assert entropy(np.full(k, 1.0 / k)) == pytest.approx(math.log(k), abs=1e-12)
        rng = Rng(23)
        for _ in range(1000):
            k = 2 + randbelow(rng, 15)
            p = uniform(rng, k) + 1e-9
            p /= p.sum()
            assert entropy(p) <= math.log(k) + 1e-12


def separable_two_class(n_per=20):
    rng = Rng(31)
    feats = []
    classes = []
    for c in range(2):
        for _ in range(n_per):
            base = np.array([3.0, 0.0]) if c == 0 else np.array([-3.0, 0.0])
            feats.append(base + rng.normal(2, sigma=0.5))
            classes.append(c)
    return LabeledDataset(np.stack(feats), np.array(classes), 2)


class TestTrain:
    def test_zero_epochs_is_identity(self, tiny_data):
        m = Classifier.random_init(tiny_data.feature_dim, [8], 4, Rng(1))
        before = m.copy()
        train(m, tiny_data, TrainConfig(epochs=0, seed=2), cross_entropy_loss)
        assert equals_bits(m, before)

    def test_zero_learning_rate_is_identity(self, tiny_data):
        m = Classifier.random_init(tiny_data.feature_dim, [8], 4, Rng(1))
        before = m.copy()
        train(m, tiny_data, TrainConfig(learning_rate=0.0, epochs=5, seed=2),
              cross_entropy_loss)
        assert equals_bits(m, before)

    def test_separable_set_reaches_100_percent(self):
        # oracle: a convergent linear classifier on a separable set must
        # classify every training point correctly
        data = separable_two_class()
        m = Classifier.random_init(2, [], 2, Rng(8))
        train(m, data, TrainConfig(learning_rate=0.1, epochs=50, seed=3),
              cross_entropy_loss)
        preds = predict_classes(m, data.features)
        assert np.all(preds == data.original_classes)

    def test_empty_dataset_warns_and_noops(self):
        data = LabeledDataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 2)
        m = Classifier.random_init(3, [], 2, Rng(4))
        before = m.copy()
        log = train(m, data, TrainConfig(epochs=3, seed=1), cross_entropy_loss)
        assert log.warnings and equals_bits(m, before) and log.epoch_losses == []

    def test_trains_on_a_read_only_split(self, tiny_data):
        """A split is kept read-only once prepared; train only reads it."""
        data = tiny_data.subset(np.arange(tiny_data.n_samples))
        for a in (data.features, data.original_classes):
            a.setflags(write=False)
        cfg = TrainConfig(learning_rate=0.05, epochs=2, seed=6)
        m = Classifier.random_init(tiny_data.feature_dim, [8], 4, Rng(1))
        oracle = m.copy()
        log = train(m, data, cfg, cross_entropy_loss)
        assert log.epoch_losses == train(oracle, tiny_data, cfg, cross_entropy_loss).epoch_losses
        assert equals_bits(m, oracle)

    def test_same_seed_bit_identical(self, tiny_data):
        results = []
        for _ in range(2):
            m = Classifier.random_init(tiny_data.feature_dim, [8], 4, Rng(1))
            train(m, tiny_data, TrainConfig(learning_rate=0.05, epochs=4, seed=77),
                  cross_entropy_loss)
            results.append(m)
        assert equals_bits(results[0], results[1])

    def test_loss_decreases(self, tiny_data):
        m = Classifier.random_init(tiny_data.feature_dim, [8], 4, Rng(1))
        log = train(m, tiny_data, TrainConfig(learning_rate=0.05, epochs=6, seed=5),
                    cross_entropy_loss)
        assert log.epoch_losses[-1] < log.epoch_losses[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


# Reference forms of the backward walk, the batch losses and the SGD step,
# which the program must match bit for bit: the walk also forms the input
# gradient, each loss computes its values and gradients in separate passes,
# and the update builds lr * g.

def reference_backward(model, acts, dlogits):
    """Gradients per parameter block, plus the input gradient the walk
    used to form and drop."""
    grads_rev = [np.sum(dlogits, axis=0), acts[-1].T @ dlogits]
    da = dlogits @ model.final_w.T
    for i in range(len(model.layers) - 2, -1, -1):
        w, _ = model.layers[i]
        dz = da * (acts[i + 1] > 0.0)
        grads_rev += [np.sum(dz, axis=0), acts[i].T @ dz]
        da = dz @ w.T
    return grads_rev[::-1], da


def reference_ce(probs, targets, classes):
    return -np.sum(targets * np.log(probs + 1e-12), axis=1), probs - targets


def reference_negated_ce(probs, targets, classes):
    return np.sum(targets * np.log(probs + 1e-12), axis=1), targets - probs


def reference_quantum(forget_set, lam):
    def terms(probs, targets, classes):
        mask = np.isin(classes, sorted(forget_set))
        plogp = np.where(probs > 0.0, probs * np.log(np.maximum(probs, 1e-300)), 0.0)
        ce = -np.sum(targets * np.log(probs + 1e-12), axis=1)
        values = np.where(mask, lam * np.sum(plogp, axis=1), ce)
        plogp = np.where(probs > 0.0, probs * np.log(np.maximum(probs, 1e-300)), 0.0)
        h = -np.sum(plogp, axis=1, keepdims=True)
        grads = np.where(mask[:, None], lam * (plogp + probs * h), probs - targets)
        return values, grads
    return terms


def reference_train(model, data, labels, cfg, terms):
    rng = Rng(cfg.seed)
    n = data.n_samples
    epoch_losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            acts, logits = forward_batch(model, data.features[idx])
            values, dlogits = terms(softmax(logits), labels[idx],
                                    data.original_classes[idx])
            total += float(np.sum(values))
            grads, _ = reference_backward(model, acts, dlogits / len(idx))
            for p, g in zip(model.parameters(), grads):
                p -= cfg.learning_rate * g
        epoch_losses.append(total / n)
    return epoch_losses


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBackward:
    @pytest.mark.parametrize("hidden", [[], [7], [9, 5]])
    def test_matches_walk_with_input_gradient(self, hidden):
        rng = Rng(61)
        m = Classifier.random_init(6, hidden, 4, rng)
        acts, logits = forward_batch(m, rng.normal(11 * 6).reshape(11, 6))
        dlogits = (softmax(logits) - np.eye(4)[np.arange(11) % 4]) / 11
        out = [np.full_like(w, np.nan) for w, _ in m.layers]
        grads = backward_batch(m, acts, dlogits, out)
        expected, input_grad = reference_backward(m, acts, dlogits)
        assert input_grad.shape == (11, 6)
        assert len(grads) == len(expected) == len(m.parameters())
        assert all(g is o for g, o in zip(grads[0::2], out))
        for g, e, p in zip(grads, expected, m.parameters()):
            assert g.shape == p.shape and same_bits(g, e)


def cases(names, variants):
    """Parameters for each (name, variant), the first variant's named by
    the name alone."""
    return [pytest.param(name, variant, id=name if variant == variants[0] else f"{name}-{variant}")
            for variant in variants for name in names]


# the classes of each loss batch: both branches, retained classes only,
# forgotten classes only
LOSS_BATCHES = {"mixed": [0, 1, 2, 3, 4], "no_forget_row": [0, 2, 4],
                "forget_rows_only": [1, 3]}

# each variant of the SGD step changes one thing from the first: a model
# with no hidden layer; 120 rows in batches of 7, so the last batch has one
# row; no step; rows picked by an index array or a mask, against the oracle
# on `data.subset(rows)`
STEP_VARIANTS = {"base": ([16, 8], 16, 0.07, None),
                 "no_hidden": ([], 16, 0.07, None),
                 "batch_7": ([16, 8], 7, 0.07, None),
                 "lr_0": ([16, 8], 16, 0.0, None),
                 "rows": ([16, 8], 16, 0.07, "index"),
                 "rows_mask": ([16, 8], 16, 0.07, "mask")}


class TestLossBatch:
    ORACLES = {
        "cross_entropy": (cross_entropy_loss,
                          lambda p, t, c: reference_cross_entropy(p, t),
                          lambda p, t, c: p - t),
        "negated": (negated_cross_entropy_loss,
                    lambda p, t, c: -reference_cross_entropy(p, t),
                    lambda p, t, c: t - p),
        "quantum": (partial(quantum_loss, forgotten=forget_table({1, 3}, 5),
                            entropy_lambda=1.7),
                    lambda p, t, c: reference_quantum_loss(p, t, c, {1, 3}, 1.7),
                    lambda p, t, c: reference_quantum_loss_logit_grad(p, t, c, {1, 3}, 1.7)),
    }

    @pytest.mark.parametrize("name, batch", cases(sorted(ORACLES), list(LOSS_BATCHES)))
    def test_matches_per_sample_oracles(self, name, batch):
        loss, value, logit_grad = self.ORACLES[name]
        rng = Rng(41)
        k, n = 5, 12
        probs = uniform(rng, n * k).reshape(n, k) + 1e-4
        probs /= probs.sum(axis=1, keepdims=True)
        kinds = LOSS_BATCHES[batch]
        classes = np.array([kinds[i % len(kinds)] for i in range(n)])
        targets = np.stack([one_hot(int(c), k) for c in classes])
        targets[classes == 3] = 1.0 / k      # a superposed label
        # a loss may write over the probabilities it is given
        values, grads = loss(probs.copy(), targets, classes)
        assert values.shape == (n,) and grads.shape == (n, k)
        for i in range(n):
            c = int(classes[i])
            assert values[i] == value(probs[i], targets[i], c)
            assert np.array_equal(grads[i], logit_grad(probs[i], targets[i], c))


class TestTrainStep:
    @pytest.mark.parametrize("name, variant", cases(
        ["cross_entropy", "quantum", "quantum_later_step", "negated"], list(STEP_VARIANTS)))
    def test_bit_equal_to_reference_step_loop(self, tiny_data, name, variant):
        hidden, batch_size, lr, pick = STEP_VARIANTS[variant]
        classes = tiny_data.original_classes
        if name == "cross_entropy":
            data, loss, terms = tiny_data, cross_entropy_loss, reference_ce
            labels = reference_label_matrix(classes, 4)
        elif name == "quantum":
            data = superpose_labels(tiny_data, {1})
            loss = partial(quantum_loss, forgotten=forget_table({1}, 4), entropy_lambda=1.3)
            terms = reference_quantum({1}, 1.3)
            labels = reference_label_matrix(classes, 4, {1})
        elif name == "quantum_later_step":
            # a second sequential step: class 0, superposed by the first,
            # is retained and trained by cross-entropy toward uniform
            data = superpose_labels(superpose_labels(tiny_data, {0}), {1})
            loss = partial(quantum_loss, forgotten=forget_table({1}, 4), entropy_lambda=1.3)
            terms = reference_quantum({1}, 1.3)
            labels = reference_label_matrix(classes, 4, {0}, {1})
        else:
            data = tiny_data.subset(tiny_data.forgotten({2}))
            loss, terms = negated_cross_entropy_loss, reference_negated_ce
            labels = reference_label_matrix(data.original_classes, 4)
        cfg = TrainConfig(learning_rate=lr, epochs=3, batch_size=batch_size, seed=19)
        model = Classifier.random_init(data.feature_dim, hidden, 4, Rng(13))
        oracle = model.copy()
        if pick is None:
            log = train(model, data, cfg, loss)
            assert log.epoch_losses == reference_train(oracle, data, labels, cfg, terms)
        else:
            # every third row, in a shuffled order, or as a mask
            rows = Rng(23).permutation(data.n_samples)[::3]
            if pick == "mask":
                rows = np.isin(np.arange(data.n_samples), rows)
            log = train(model, data, cfg, loss, rows=rows)
            want = reference_train(oracle, data.subset(rows), labels[rows], cfg, terms)
            assert log.epoch_losses == want
        for p, q in zip(model.parameters(), oracle.parameters()):
            assert same_bits(p, q)


def small_random_model(seed, feature_dim=6, hidden=5, k=4):
    return Classifier.random_init(feature_dim, [hidden], k, Rng(seed))


class TestGradientCheck:
    def test_cross_entropy_gradients(self):
        rng = Rng(101)
        for s in range(5):
            m = small_random_model(s)
            x = rng.normal(6)
            target = one_hot(int(randbelow(rng, 4)), 4)
            assert gradient_check(m, x, target, cross_entropy_loss) <= 1e-4

    def test_quantum_loss_forget_branch(self):
        rng = Rng(202)
        loss = partial(quantum_loss, forgotten=forget_table({1}, 4), entropy_lambda=1.3)
        for s in range(5):
            m = small_random_model(s + 50)
            x = rng.normal(6)
            err = gradient_check(m, x, np.full(4, 0.25), loss, original_class=1)
            assert err <= 1e-4

    def test_twenty_random_models_both_losses(self):
        rng = Rng(303)
        q = partial(quantum_loss, forgotten=forget_table({0}, 4), entropy_lambda=0.7)
        for s in range(20):
            m = small_random_model(1000 + s)
            x = rng.normal(6)
            assert gradient_check(m, x, one_hot(2, 4), cross_entropy_loss) <= 1e-4
            branch_class = 0 if s % 2 == 0 else 2  # alternate forget/retain
            err = gradient_check(m, x, one_hot(2, 4), q, original_class=branch_class)
            assert err <= 1e-4

    def test_constant_loss_both_gradients_zero(self):
        # lambda = 0 makes the forget branch constant in every parameter
        m = small_random_model(9)
        loss = partial(quantum_loss, forgotten=forget_table({3}, 4), entropy_lambda=0.0)
        err = gradient_check(m, Rng(1).normal(6), one_hot(3, 4), loss,
                             original_class=3)
        assert err <= 1e-12

    def test_refuses_large_models(self):
        m = Classifier.random_init(100, [100], 10, Rng(0))
        with pytest.raises(ValueError):
            gradient_check(m, np.zeros(100), one_hot(0, 10), cross_entropy_loss)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=12))
@settings(max_examples=200)
def test_softmax_is_distribution_property(logits):
    p = softmax(np.array(logits))
    assert abs(p.sum() - 1.0) <= 1e-9
    assert np.all(p >= 0.0)
