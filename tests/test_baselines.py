import tracemalloc

import numpy as np
import pytest

from qpae import harness
from qpae.baselines import (BaselineConfig, estimate_diag_fisher, fisher_forgetting,
                            gradient_ascent_unlearn, negated_cross_entropy_loss,
                            negative_gradient_unlearn, run_baseline, synaptic_dampening)
from qpae.data import LabeledDataset
from qpae.model import Classifier, cross_entropy_loss, forward_batch, softmax
from qpae.rng import Rng

from helpers import (equals_bits, one_hot, reference_diag_fisher, sample_gradient,
                     uniform)


def reference_fisher(model, samples):
    """The Fisher estimate as first written: its own walk, final layer
    first, then each hidden layer."""
    n = samples.n_samples
    acts, logits = forward_batch(model, samples.features)
    delta = softmax(logits) - samples.labels()
    d2 = delta ** 2
    fisher_rev = [np.mean(d2, axis=0), (acts[-1] ** 2).T @ d2 / n]
    w_above = model.final_w
    dz = delta
    for i in range(len(model.layers) - 2, -1, -1):
        dz = (dz @ w_above.T) * (acts[i + 1] > 0.0)
        dz2 = dz ** 2
        fisher_rev += [np.mean(dz2, axis=0), (acts[i] ** 2).T @ dz2 / n]
        w_above = model.layers[i][0]
    return fisher_rev[::-1]


class TestConfig:
    def test_unknown_method(self, tiny_model, tiny_data):
        before = tiny_model.copy()
        with pytest.raises(ValueError, match="retrain_from_scratch"):
            run_baseline(tiny_model, tiny_data, {0}, "retrain_from_scratch",
                         BaselineConfig())
        assert equals_bits(tiny_model, before)

    def test_negative_counts(self):
        with pytest.raises(ValueError, match="epochs must be >= 0"):
            BaselineConfig(ascent_epochs=-1)
        with pytest.raises(ValueError, match="epochs must be >= 0"):
            BaselineConfig(finetune_epochs=-1)
        # the SGD settings both passes share
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            BaselineConfig(batch_size=0)
        with pytest.raises(ValueError, match="learning_rate must be >= 0"):
            BaselineConfig(learning_rate=-1)
        with pytest.raises(ValueError):
            BaselineConfig(ssd_threshold=0.0)
        with pytest.raises(ValueError, match="ssd_dampening_floor must be >= 0"):
            BaselineConfig(ssd_dampening_floor=-0.01)


class TestGradientAscent:
    def test_zero_epochs_noop(self, tiny_model, tiny_data):
        before = tiny_model.copy()
        cfg = BaselineConfig(ascent_epochs=0, finetune_epochs=0, seed=1)
        gradient_ascent_unlearn(tiny_model, tiny_data, {0}, cfg)
        assert equals_bits(tiny_model, before)

    def test_forget_class_with_no_samples_skips_ascent(self, tiny_model, tiny_data):
        # class 3 removed from the data; ascent has nothing to climb
        keep = np.where(tiny_data.original_classes != 3)[0]
        data = tiny_data.subset(keep)
        before = tiny_model.copy()
        cfg = BaselineConfig(ascent_epochs=5, finetune_epochs=0, seed=1)
        gradient_ascent_unlearn(tiny_model, data, {3}, cfg)
        assert equals_bits(tiny_model, before)

    def test_negative_gradient_equals_ga_without_finetune(self, tiny_model, tiny_data):
        cfg = BaselineConfig(ascent_epochs=2, finetune_epochs=0, learning_rate=0.05,
                             seed=11)
        a = tiny_model.copy()
        b = tiny_model.copy()
        gradient_ascent_unlearn(a, tiny_data, {1}, cfg)
        negative_gradient_unlearn(b, tiny_data, {1}, cfg)
        assert equals_bits(a, b)

    def test_negated_loss_is_minus_cross_entropy(self):
        rng = Rng(2)
        probs = uniform(rng, 6 * 4).reshape(6, 4) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        classes = np.array([2, 0, 3, 1, 2, 2])
        targets = np.stack([one_hot(int(c), 4) for c in classes])
        # copies: a loss may write over the probabilities it is given
        neg_values, neg_grads = negated_cross_entropy_loss(probs.copy(), targets, classes)
        ce_values, ce_grads = cross_entropy_loss(probs.copy(), targets, classes)
        assert np.array_equal(neg_values, -ce_values)
        assert np.array_equal(neg_grads, -ce_grads)
        # and equal to the sign-flipped formulas written out
        assert np.array_equal(neg_values, np.sum(targets * np.log(probs + 1e-12), axis=1))
        assert np.array_equal(neg_grads, targets - probs)


class TestFisherEstimate:
    @pytest.mark.parametrize("hidden", [[], [7], [9, 5]])
    def test_bit_equal_to_reference_walk(self, tiny_data, hidden):
        m = Classifier.random_init(tiny_data.feature_dim, hidden, 4, Rng(17))
        got = estimate_diag_fisher(m, tiny_data)
        want = reference_fisher(m, tiny_data)
        assert len(got) == len(want) == len(m.parameters())
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("hidden", [[64], [32, 16]])
    @pytest.mark.parametrize("k", range(2, 13))
    def test_bit_equal_to_the_estimate_that_squares_into_new_arrays(self, hidden, k):
        # the in-place square of the gathered rows is the same IEEE
        # operation as a**2: a row mask, its complement and None all give
        # the blocks of the estimate over the rows the caller gathered
        rng = Rng(300 + k)
        n, dim = 40 + 5 * k, 20
        classes = np.arange(n) % k
        data = LabeledDataset(rng.normal(n * dim, sigma=2.0).reshape(n, dim), classes, k)
        model = Classifier.random_init(dim, hidden, k, Rng(k))
        forgotten = data.forgotten({k // 2, k - 1})
        for rows in (forgotten, ~forgotten, None):
            got = estimate_diag_fisher(model, data, rows)
            want = reference_diag_fisher(model, data if rows is None else data.subset(rows))
            assert len(got) == len(want) == len(model.parameters())
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_matches_per_sample_loop(self, tiny_model, tiny_data):
        # independent recount: square the per-sample analytic gradients
        sub = tiny_data.subset(np.arange(25))
        fast = estimate_diag_fisher(tiny_model, sub)
        slow = [np.zeros_like(p) for p in tiny_model.parameters()]
        for i in range(sub.n_samples):
            grads = sample_gradient(tiny_model, sub.features[i], sub.labels()[i],
                                    cross_entropy_loss, int(sub.original_classes[i]))
            for acc, g in zip(slow, grads):
                acc += g ** 2
        for f, s in zip(fast, slow):
            assert np.allclose(f, s / sub.n_samples, atol=1e-12)

    def test_entries_nonnegative(self, tiny_model, tiny_data):
        for block in estimate_diag_fisher(tiny_model, tiny_data):
            assert np.all(block >= 0.0)

    def test_duplicating_samples_keeps_mean(self, tiny_model, tiny_data):
        sub = tiny_data.subset(np.arange(20))
        doubled = tiny_data.subset(np.concatenate([np.arange(20), np.arange(20)]))
        a = estimate_diag_fisher(tiny_model, sub)
        b = estimate_diag_fisher(tiny_model, doubled)
        for x, y in zip(a, b):
            assert np.allclose(x, y, atol=1e-12)

    def test_confident_model_has_near_zero_fisher(self):
        # a model that nails every label with huge margin has ~zero CE grads
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        data = LabeledDataset(feats, np.array([0, 1]), 2)
        m = Classifier([(np.array([[60.0, -60.0], [-60.0, 60.0]]), np.zeros(2))])
        for block in estimate_diag_fisher(m, data):
            assert np.all(block <= 1e-20)

    def test_empty_samples_rejected(self, tiny_model, tiny_data):
        with pytest.raises(ValueError):
            estimate_diag_fisher(tiny_model, tiny_data.subset(np.arange(0)))


class TestFisherForgetting:
    def test_gamma_zero_noop(self, tiny_model, tiny_data):
        before = tiny_model.copy()
        cfg = BaselineConfig(fisher_noise_scale=0.0, seed=3)
        fisher_forgetting(tiny_model, tiny_data, {0}, cfg)
        assert equals_bits(tiny_model, before)

    def test_same_seed_identical(self, tiny_model, tiny_data):
        cfg = BaselineConfig(fisher_noise_scale=1e-3, seed=4)
        a, b = tiny_model.copy(), tiny_model.copy()
        fisher_forgetting(a, tiny_data, {1}, cfg)
        fisher_forgetting(b, tiny_data, {1}, cfg)
        assert equals_bits(a, b)
        assert not equals_bits(a, tiny_model)

    def test_finite_and_shape_preserving(self, tiny_model, tiny_data):
        shapes = [p.shape for p in tiny_model.parameters()]
        cfg = BaselineConfig(fisher_noise_scale=1e-3, seed=4)
        fisher_forgetting(tiny_model, tiny_data, {1}, cfg)
        assert [p.shape for p in tiny_model.parameters()] == shapes
        tiny_model.ensure_finite()


class TestSynapticDampening:
    def test_huge_threshold_noop(self, tiny_model, tiny_data):
        before = tiny_model.copy()
        cfg = BaselineConfig(ssd_threshold=1e12, seed=5)
        synaptic_dampening(tiny_model, tiny_data, {0}, cfg)
        assert equals_bits(tiny_model, before)

    @pytest.mark.parametrize("floor", [0.0, 0.01, 5.0])
    def test_never_amplifies(self, tiny_model, tiny_data, floor):
        before = tiny_model.copy()
        cfg = BaselineConfig(ssd_threshold=0.01, ssd_dampening_floor=floor, seed=5)
        synaptic_dampening(tiny_model, tiny_data, {2}, cfg)
        for p_new, p_old in zip(tiny_model.parameters(), before.parameters()):
            assert np.all(np.abs(p_new) <= np.abs(p_old) + 1e-15)

    def test_deterministic(self, tiny_model, tiny_data):
        cfg = BaselineConfig(seed=6)
        a, b = tiny_model.copy(), tiny_model.copy()
        synaptic_dampening(a, tiny_data, {1}, cfg)
        synaptic_dampening(b, tiny_data, {1}, cfg)
        assert equals_bits(a, b)


def test_ascent_methods_deterministic_under_fixed_seed(tiny_model, tiny_data):
    for method in ("gradient_ascent", "negative_gradient"):
        cfg = BaselineConfig(ascent_epochs=2, finetune_epochs=1,
                             learning_rate=0.05, seed=31)
        a, b = tiny_model.copy(), tiny_model.copy()
        run_baseline(a, tiny_data, {1}, method, cfg)
        run_baseline(b, tiny_data, {1}, method, cfg)
        assert equals_bits(a, b)
        assert not equals_bits(a, tiny_model)


def test_dispatch_covers_all_methods(tiny_model, tiny_data):
    for method in ("gradient_ascent", "negative_gradient",
                   "fisher_forgetting", "synaptic_dampening"):
        m = tiny_model.copy()
        cfg = BaselineConfig(ascent_epochs=1, finetune_epochs=1,
                             learning_rate=0.01, seed=8)
        out = run_baseline(m, tiny_data, {0}, method, cfg)
        assert out is m
        m.ensure_finite()
        assert m.final_w.shape == tiny_model.final_w.shape


@pytest.mark.parametrize("method, built", [
    ("gradient_ascent", []),
    ("negative_gradient", []),
    ("fisher_forgetting", ["forget", "retain"]),
    ("synaptic_dampening", ["forget"]),
])
def test_each_baseline_builds_only_the_rows_it_reads(tiny_model, tiny_data, monkeypatch,
                                                     method, built):
    """`ga` and `ng` train on their rows where they lie and copy none. Each
    side a Fisher baseline reads is copied out of the data once, and a side
    it does not read is not copied at all; ssd takes its full Fisher from
    the data itself."""
    forget_set = {1, 3}
    sides = []
    real_subset = LabeledDataset.subset

    def counting_subset(self, rows):
        out = real_subset(self, rows)
        forgotten = np.isin(out.original_classes, sorted(forget_set))
        sides.append("forget" if forgotten.all() else
                     "retain" if not forgotten.any() else "mixed")
        return out

    monkeypatch.setattr(LabeledDataset, "subset", counting_subset)
    cfg = BaselineConfig(ascent_epochs=1, finetune_epochs=1, learning_rate=0.01,
                         fisher_noise_scale=1e-3, seed=8)
    run_baseline(tiny_model, tiny_data, forget_set, method, cfg)
    assert sides == built


@pytest.mark.parametrize("method", ["fisher_forgetting", "synaptic_dampening"])
def test_fisher_baselines_leave_a_writeable_split_unchanged(tiny_model, tiny_data, method):
    """A manifest split is writeable; only the rows an estimate gathers
    itself may be squared in place."""
    data = tiny_data.subset(np.arange(tiny_data.n_samples))
    assert data.features.flags.writeable
    before = [a.copy() for a in (data.features, data.original_classes)]
    run_baseline(tiny_model, data, {1, 3}, method,
                 BaselineConfig(fisher_noise_scale=1e-3, seed=8))
    for a, b in zip((data.features, data.original_classes), before):
        assert a.tobytes() == b.tobytes()


def test_fisher_request_peaks_below_one_and_a_half_retain_copies(desk):
    """The retain rows are gathered once and squared in place: one desk
    `fisher` request never holds a second retain-sized array beside them.
    The desk split is cached and read-only, so a write into it raises."""
    cfg, data = desk["cfg"], desk["train"]
    retain_bytes = data.features[~data.forgotten(set(cfg.unlearn.forget_set))].nbytes
    model = desk["model"].copy()
    tracemalloc.start()
    try:
        harness.forget(model, data, "fisher", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * retain_bytes, peak / retain_bytes
