import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpae.data import LabeledDataset, forget_table
from qpae.eraser import (UnlearnConfig, accuracy_snapshot, apply_mixing,
                         build_mixing_matrix, interference_transform,
                         penultimate, quantum_loss, run_qp_audio_eraser, superpose_labels)
from qpae.harness import ABLATION_VARIANTS
from qpae.metrics import evaluate
from qpae.model import Classifier, TrainConfig, forward_batch, softmax
from qpae.rng import Rng

from helpers import (equals_bits, one_hot, predict_probs, randbelow, reference_quantum_loss,
                     reference_quantum_loss_logit_grad, uniform)

distributions = st.lists(st.floats(min_value=1e-6, max_value=1.0),
                         min_size=2, max_size=12).map(
    lambda w: np.array(w) / np.sum(w))


def linear_model(w, b):
    return Classifier([(np.asarray(w, dtype=float), np.asarray(b, dtype=float))])


def suppression_check(model_before, model_after, forget_samples):
    """Mean drop in the softmax probability of each sample's own class."""
    idx = np.arange(forget_samples.n_samples)
    own = forget_samples.original_classes
    p_before = predict_probs(model_before, forget_samples.features)[idx, own]
    p_after = predict_probs(model_after, forget_samples.features)[idx, own]
    return float(np.mean(p_before - p_after))


class TestInterferenceTransform:
    def test_phi_pi_example_values(self):
        m = linear_model([[0.8, 1.0], [-0.4, 2.0]], [0.5, 3.0])
        interference_transform(m, {0}, math.pi)
        assert m.final_w[:, 0] == pytest.approx([-0.565685424949238, 0.282842712474619], abs=1e-12)
        assert m.final_b[0] == -0.5

    def test_phi_half_pi_zeroes_column(self):
        m = linear_model([[0.8, 1.0], [-0.4, 2.0]], [0.5, 3.0])
        interference_transform(m, {0}, math.pi / 2.0)
        assert np.all(m.final_w[:, 0] == 0.0)
        assert m.final_b[0] == 0.0

    def test_retained_parameters_bit_identical(self):
        rng = Rng(1)
        for s in range(50):
            m = Classifier.random_init(6, [5], 4, Rng(s))
            before = m.copy()
            forget = {int(randbelow(rng, 4))}
            interference_transform(m, forget, math.pi)
            retained = [j for j in range(4) if j not in forget]
            assert np.array_equal(m.final_w[:, retained], before.final_w[:, retained])
            assert np.array_equal(m.final_b[retained], before.final_b[retained])
            for (w, b), (w0, b0) in zip(m.layers[:-1], before.layers[:-1]):
                assert np.array_equal(w, w0) and np.array_equal(b, b0)

    def test_phi_pi_is_negated_over_sqrt2_within_2ulp(self):
        for s in range(20):
            m = Classifier.random_init(5, [], 3, Rng(100 + s))
            ref = -m.final_w[:, 1] / np.sqrt(2.0)
            interference_transform(m, {1}, math.pi)
            diff = np.abs(m.final_w[:, 1] - ref)
            assert np.all(diff <= 2.0 * np.spacing(np.abs(ref)))

    def test_invalid_class(self):
        m = linear_model([[1.0, 0.0]], [0.0, 0.0])
        with pytest.raises(ValueError, match=r"holds \[5\], not class ids in \[0, 2\)"):
            interference_transform(m, {5}, math.pi)
        with pytest.raises(ValueError, match="must leave at least one class retained"):
            interference_transform(m, {0, 1}, math.pi)  # nothing retained


class TestSuppressionCheck:
    def _forget_samples(self):
        x = np.array([[2.0, 0.1], [1.5, -0.2]])
        return LabeledDataset(x, np.zeros(2, dtype=np.int64), 2)

    def test_confident_model_drops(self):
        m = linear_model([[4.0, -4.0], [0.0, 0.0]], [0.0, 0.0])
        after = m.copy()
        interference_transform(after, {0}, math.pi)
        drop = suppression_check(m, after, self._forget_samples())
        assert drop > 0.0

    def test_identical_models_zero_drop(self):
        m = linear_model([[4.0, -4.0], [0.0, 0.0]], [0.0, 0.0])
        assert suppression_check(m, m.copy(), self._forget_samples()) == 0.0

    def test_zero_column_is_noop(self):
        m = linear_model([[0.0, 1.0], [0.0, 1.0]], [0.0, 0.5])
        after = m.copy()
        interference_transform(after, {0}, math.pi)
        assert suppression_check(m, after, self._forget_samples()) == 0.0

    def test_monotone_when_margin_positive(self):
        # whenever the model genuinely prefers the forgotten class on its own
        # samples, phase 1 never raises that probability
        for s in range(20):
            rng = Rng(500 + s)
            m = Classifier.random_init(4, [], 3, Rng(s))
            m.final_w[:, 0] += 1.0  # bias the margin toward class 0
            x = np.abs(rng.normal(4 * 6).reshape(6, 4))
            data = LabeledDataset(x, np.zeros(6, dtype=np.int64), 3)
            probs = predict_probs(m, data.features)
            if np.mean(probs[:, 0]) <= 1.0 / 3.0:
                continue
            after = m.copy()
            interference_transform(after, {0}, math.pi)
            assert suppression_check(m, after, data) >= 0.0


class TestSuperposeLabels:
    def test_forget_labels_become_uniform(self):
        data = LabeledDataset(np.zeros((3, 2)), np.array([2, 1, 2]), 4)
        out = superpose_labels(data, {2})
        assert out.labels()[0].tolist() == [0.25, 0.25, 0.25, 0.25]
        assert out.labels()[2].tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_retained_labels_bit_identical_and_bookkeeping_kept(self):
        data = LabeledDataset(np.zeros((2, 2)), np.array([1, 3]), 4)
        out = superpose_labels(data, {3})
        assert np.array_equal(out.labels()[0], data.labels()[0])
        assert np.array_equal(out.original_classes, data.original_classes)
        assert np.array_equal(data.labels()[1], one_hot(3, 4))  # input untouched

    def test_multi_class_forget_set(self):
        data = LabeledDataset(np.zeros((3, 2)), np.array([0, 4, 7]), 10)
        out = superpose_labels(data, {0, 4})
        assert np.allclose(out.labels()[0], 0.1) and np.allclose(out.labels()[1], 0.1)
        assert np.array_equal(out.labels()[2], one_hot(7, 10))

    def test_labels_still_sum_to_one(self):
        data = LabeledDataset(np.zeros((20, 3)), np.array([i % 5 for i in range(20)]), 5)
        out = superpose_labels(data, {1, 3})
        assert np.max(np.abs(out.labels().sum(axis=1) - 1.0)) <= 1e-9


class TestQuantumLoss:
    def test_retained_branch_is_cross_entropy(self):
        pred = np.full(10, 0.1)
        val = reference_quantum_loss(pred, one_hot(3, 10), 3, {7}, 1.0)
        assert val == pytest.approx(math.log(10), abs=1e-9)

    def test_forget_branch_minimum_at_uniform(self):
        pred = np.full(10, 0.1)
        val = reference_quantum_loss(pred, one_hot(7, 10), 7, {7}, 1.0)
        assert val == pytest.approx(-math.log(10), abs=1e-12)

    def test_forget_branch_near_onehot_is_near_zero(self):
        pred = np.array([1.0 - 9e-9] + [1e-9] * 9)
        val = reference_quantum_loss(pred, one_hot(0, 10), 0, {0}, 1.0)
        assert -1e-6 < val <= 0.0
        assert val > -math.log(10)

    def test_bounded_below_and_attained_only_at_uniform(self):
        rng = Rng(77)
        k = 6
        floor = -math.log(k)
        for _ in range(500):
            p = uniform(rng, k) + 1e-9
            p /= p.sum()
            val = reference_quantum_loss(p, one_hot(0, k), 0, {0}, 1.0)
            assert val >= floor - 1e-12
            if abs(val - floor) < 1e-9:
                assert np.max(np.abs(p - 1.0 / k)) < 1e-4
        at_uniform = reference_quantum_loss(np.full(k, 1.0 / k), one_hot(0, k), 0, {0}, 1.0)
        assert at_uniform == pytest.approx(floor, abs=1e-12)

    def test_lambda_scales_forget_branch(self):
        p = np.array([0.6, 0.3, 0.1])
        v1 = reference_quantum_loss(p, one_hot(0, 3), 0, {0}, 1.0)
        v2 = reference_quantum_loss(p, one_hot(0, 3), 0, {0}, 2.5)
        assert v2 == pytest.approx(2.5 * v1, rel=1e-12)


def fd_entropy_grad(p, lam=1.0, h=1e-6):
    """Independent oracle: central differences of -lam*H(softmax(z))."""
    z = np.log(p)
    out = np.zeros_like(z)
    for k in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        def val(zz):
            q = softmax(zz)
            nz = q > 0
            return lam * float(np.sum(q[nz] * np.log(q[nz])))
        out[k] = (val(zp) - val(zm)) / (2.0 * h)
    return out


class TestQuantumLossLogitGrad:
    def test_uniform_is_exactly_stationary(self):
        for k in (2, 5, 10):
            uniform = np.full(k, 1.0 / k)
            g = reference_quantum_loss_logit_grad(uniform, one_hot(0, k), 0, {0}, 1.0)
            assert np.max(np.abs(g)) <= 1e-15

    def test_frozen_oracle_value_07_03(self):
        # frozen from the central-difference oracle of -H(softmax(z))
        p = np.array([0.7, 0.3])
        g = reference_quantum_loss_logit_grad(p, one_hot(0, 2), 0, {0}, 1.0)
        assert g == pytest.approx([0.17793255, -0.17793255], abs=1e-7)
        assert g == pytest.approx(fd_entropy_grad(np.array([0.7, 0.3])), abs=1e-9)

    def test_retained_branch_is_softmax_minus_target(self):
        p = np.array([0.2, 0.5, 0.3])
        t = one_hot(1, 3)
        g = reference_quantum_loss_logit_grad(p, t, 1, {0}, 1.0)
        assert np.allclose(g, p - t, atol=1e-15)

    def test_matches_finite_differences_1000_random(self):
        rng = Rng(404)
        worst = 0.0
        for _ in range(1000):
            k = 2 + randbelow(rng, 9)
            lam = 0.25 + uniform(rng)
            p = uniform(rng, k) + 1e-4
            p /= p.sum()
            g = reference_quantum_loss_logit_grad(p, one_hot(0, k), 0, {0}, lam)
            fd = fd_entropy_grad(p, lam)
            err = np.max(np.abs(g - fd) / np.maximum(1.0, np.maximum(np.abs(g), np.abs(fd))))
            worst = max(worst, float(err))
        assert worst <= 1e-4

    @given(distributions)
    @settings(max_examples=200)
    def test_gradient_sums_to_zero(self, p):
        g = reference_quantum_loss_logit_grad(p, one_hot(0, len(p)), 0, {0}, 1.0)
        assert abs(float(np.sum(g))) <= 1e-12

    def test_batch_forms_match_scalar_ops(self):
        rng = Rng(21)
        k = 5
        loss = partial(quantum_loss, forgotten=forget_table({0, 2}, k), entropy_lambda=1.7)
        probs = uniform(rng, 8 * k).reshape(8, k) + 1e-4
        probs /= probs.sum(axis=1, keepdims=True)
        targets = np.stack([one_hot(int(randbelow(rng, k)), k) for _ in range(8)])
        classes = np.array([int(randbelow(rng, k)) for _ in range(8)])
        values, grads = loss(probs.copy(), targets, classes)  # a loss may write over probs
        for i in range(8):
            args = (probs[i], targets[i], int(classes[i]), {0, 2}, 1.7)
            assert values[i] == pytest.approx(reference_quantum_loss(*args), abs=1e-9)
            assert grads[i] == pytest.approx(reference_quantum_loss_logit_grad(*args),
                                             abs=1e-12)


class TestMixing:
    def test_k3_example(self):
        m = build_mixing_matrix(3, {1}, 0.3)
        assert m.tolist() == [[1.0, 0.3, 0.0], [0.3, 1.0, 0.3], [0.0, 0.3, 1.0]]

    def test_symmetric_unit_diagonal(self):
        rng = Rng(14)
        for _ in range(25):
            k = 3 + randbelow(rng, 8)
            f = {int(randbelow(rng, k))}
            alpha = 0.2 + 0.6 * uniform(rng)
            m = build_mixing_matrix(k, f, alpha)
            assert np.array_equal(m, m.T)
            assert np.all(np.diag(m) == 1.0)

    def test_multi_class_no_mixing_between_forgotten(self):
        m = build_mixing_matrix(4, {0, 2}, 0.2)
        assert m[0, 2] == 0.0 and m[2, 0] == 0.0
        for i, j in ((0, 1), (1, 0), (0, 3), (2, 1), (2, 3)):
            assert m[i, j] == 0.2
        assert m[1, 3] == 0.0 and m[3, 1] == 0.0

    def test_apply_mixing_d1_example(self):
        model = linear_model([[1.0, 2.0, 3.0]], [0.0, 0.0, 0.0])
        apply_mixing(model, build_mixing_matrix(3, {0}, 0.5))
        assert model.final_w[0].tolist() == [3.5, 2.5, 3.5]
        _, logits = forward_batch(model, np.array([[1.0]]))
        assert logits[0].tolist() == [3.5, 2.5, 3.5]

    def test_mixing_writes_the_held_weight_array(self):
        model = Classifier.random_init(4, [3], 3, Rng(8))
        held = model.parameters()
        expected = model.final_w @ build_mixing_matrix(3, {1}, 0.4)
        apply_mixing(model, build_mixing_matrix(3, {1}, 0.4))
        assert held[-2] is model.final_w is model.layers[-1][0]
        assert np.array_equal(held[-2], expected)

    def test_identity_matrix_is_noop(self):
        model = linear_model([[1.0, 2.0], [0.5, -0.5]], [0.1, 0.2])
        before = model.copy()
        apply_mixing(model, np.eye(2))
        assert equals_bits(model, before)

    def test_closed_form_identities_random(self):
        # oracle: Eq-style closed forms computed element by element
        rng = Rng(31)
        for _ in range(100):
            d, k = 8, 5
            w = rng.normal(d * k).reshape(d, k)
            h = rng.normal(d)
            f = int(randbelow(rng, k))
            alpha = 0.2 + 0.6 * uniform(rng)
            model = linear_model(w.copy(), np.zeros(k))
            apply_mixing(model, build_mixing_matrix(k, {f}, alpha))
            mixed = forward_batch(model, h[None, :])[1][0]
            base = w.T @ h
            for j in range(k):
                if j == f:
                    expected = base[f] + alpha * sum(base[i] for i in range(k) if i != f)
                else:
                    expected = base[j] + alpha * base[f]
                assert abs(mixed[j] - expected) <= 1e-10

    def test_bias_unchanged(self):
        model = linear_model([[1.0, 2.0, 3.0]], [0.4, 0.5, 0.6])
        apply_mixing(model, build_mixing_matrix(3, {0}, 0.3))
        assert model.final_b.tolist() == [0.4, 0.5, 0.6]

    def test_shape_mismatch(self):
        model = linear_model([[1.0, 2.0, 3.0]], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            apply_mixing(model, np.eye(4))


class TestUnlearnConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            UnlearnConfig(forget_set={0}, alpha=1.5)
        with pytest.raises(ValueError):
            UnlearnConfig(forget_set={0}, entropy_lambda=0.0)
        # phase 3's SGD settings, refused before any phase runs
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            UnlearnConfig(forget_set={0}, batch_size=0)
        with pytest.raises(ValueError, match="learning_rate must be >= 0"):
            UnlearnConfig(forget_set={0}, learning_rate=-0.1)


class TestPipeline:
    @pytest.mark.parametrize("forget_set, message", [
        ([], "must name at least one class"),
        ([-1], r"holds \[-1\], not class ids in \[0, 4\)")], ids=["empty", "negative"])
    def test_bad_forget_set_is_refused_before_the_model_changes(
            self, tiny_model, tiny_data, forget_set, message):
        """The config builds with any forget set; the run checks it against
        the model's class count before the first phase."""
        before = tiny_model.copy()
        with pytest.raises(ValueError, match=message):
            run_qp_audio_eraser(tiny_model, tiny_data,
                                UnlearnConfig(forget_set=forget_set, seed=1))
        assert equals_bits(tiny_model, before)

    def test_all_phases_disabled_is_bit_identical(self, tiny_model, tiny_data):
        before = tiny_model.copy()
        cfg = UnlearnConfig(forget_set={0}, skip_weight_transform=True,
                            skip_uncertainty_max=True, skip_mixing=True,
                            learning_rate=0.05, seed=1)
        model, log = run_qp_audio_eraser(tiny_model, tiny_data, cfg)
        assert equals_bits(model, before)
        assert [e["skipped"] for e in log] == [True, False, True, True]

    def test_tiny_run_erases_class(self, tiny_model, tiny_data):
        cfg = UnlearnConfig(forget_set={1}, epochs=5, learning_rate=0.05, seed=3)
        model, log = run_qp_audio_eraser(tiny_model, tiny_data, cfg)
        assert log[-1]["forget_accuracy"] == 0.0
        assert log[-1]["retain_accuracy"] >= 80.0

    def test_sequential_two_requests(self):
        from qpae.audio import synth_dataset
        from qpae.model import cross_entropy_loss, train
        data = synth_dataset(6, 20, seed=13, n_mels=8, n_frames=8)
        model = Classifier.random_init(data.feature_dim, [24], 6, Rng(2))
        train(model, data, TrainConfig(learning_rate=0.01, epochs=3, seed=5),
              cross_entropy_loss)
        cfg1 = UnlearnConfig(forget_set={0}, epochs=5, learning_rate=0.1, seed=3)
        model, _ = run_qp_audio_eraser(model, data, cfg1)
        data2 = superpose_labels(data, {0})
        cfg2 = UnlearnConfig(forget_set={1}, epochs=5, learning_rate=0.1, seed=4)
        model, _ = run_qp_audio_eraser(model, data2, cfg2)
        fa_union, ra = accuracy_snapshot(model, data, frozenset({0, 1}),
                                         penultimate(model, data))
        assert fa_union == 0.0
        assert ra >= 50.0

    @pytest.mark.parametrize("forget", [[0], [5], [3, 7]])
    def test_superposition_is_inert_in_a_single_request(self, desk, monkeypatch, forget):
        # quantum_loss keys on the original class and writes over all it
        # computed from a forgotten row's target, so one request ends in
        # the same parameters when phase 2 leaves the labels as they are
        from qpae import eraser, harness
        ucfg = replace(harness._unlearn_config(desk["cfg"]), forget_set=forget)
        want, _ = run_qp_audio_eraser(desk["model"].copy(), desk["train"], ucfg)
        monkeypatch.setattr(eraser, "superpose_labels", lambda data, forget_set: data)
        got, _ = run_qp_audio_eraser(desk["model"].copy(), desk["train"], ucfg)
        assert equals_bits(got, want)

    def test_a_later_request_reads_the_superposed_labels(self, tiny_model, tiny_data):
        # in step 2 the class forgotten in step 1 is a retained row, trained
        # by cross-entropy toward the uniform target step 1 left it
        first = UnlearnConfig(forget_set=[0], epochs=2, learning_rate=0.05, seed=3)
        model, _ = run_qp_audio_eraser(tiny_model, tiny_data, first)
        second = replace(first, forget_set=[1], seed=4)
        superposed, _ = run_qp_audio_eraser(model.copy(), superpose_labels(tiny_data, {0}),
                                            second)
        one_hot_kept, _ = run_qp_audio_eraser(model.copy(), tiny_data, second)
        assert not equals_bits(superposed, one_hot_kept)

    def test_snapshot_of_a_side_with_no_rows_is_none(self, tiny_model, tiny_data):
        # as in a report: an empty forget side is absent, not 0% accurate
        retained = tiny_data.subset(~tiny_data.forgotten({0}))
        fa, ra = accuracy_snapshot(tiny_model, retained, frozenset({0}),
                                   penultimate(tiny_model, retained))
        assert fa is None
        assert ra == evaluate(tiny_model, retained, {0}).ra

    def test_phase_log_schema(self, tiny_model, tiny_data):
        cfg = UnlearnConfig(forget_set={2}, epochs=1, learning_rate=0.05, seed=2)
        _, log = run_qp_audio_eraser(tiny_model, tiny_data, cfg)
        assert [e["phase"] for e in log] == ["interference", "superposition",
                                             "optimization", "mixing"]
        for entry in log:
            assert set(entry) == {"phase", "forget_accuracy", "retain_accuracy",
                                  "wall_ms", "skipped"}
            assert entry["wall_ms"] >= 0.0

    def test_side_phases_at_least_10x_faster_than_one_epoch(self, desk):
        from qpae import harness
        model = desk["model"].copy()
        ucfg = harness._unlearn_config(desk["cfg"])
        _, log = run_qp_audio_eraser(model, desk["train"], ucfg)
        entries = {e["phase"]: e for e in log}
        epoch_ms = entries["optimization"]["wall_ms"] / ucfg.epochs
        for phase in ("interference", "superposition", "mixing"):
            assert entries[phase]["wall_ms"] * 10.0 <= epoch_ms, (
                f"{phase} took {entries[phase]['wall_ms']:.3f} ms vs "
                f"{epoch_ms:.3f} ms per optimization epoch")

    @pytest.mark.parametrize("variant", [name for name, _ in ABLATION_VARIANTS])
    def test_phase_log_equals_snapshot_of_a_copy(self, desk, monkeypatch, variant):
        # the log scores phases 1, 2 and 4 on hidden activations computed
        # earlier; a copy taken at each snapshot, scored afresh, must agree
        from qpae import eraser, harness
        fresh_snapshot = eraser.accuracy_snapshot
        copies = []

        def keep_copy(model, data, forget_set, hidden):
            copies.append(model.copy())
            return fresh_snapshot(model, data, forget_set, hidden)

        monkeypatch.setattr(eraser, "accuracy_snapshot", keep_copy)
        ucfg = replace(harness._unlearn_config(desk["cfg"]),
                       **dict(ABLATION_VARIANTS)[variant])
        _, log = run_qp_audio_eraser(desk["model"].copy(), desk["train"], ucfg)
        assert len(copies) == len(log) == 4
        for copy, entry in zip(copies, log):
            assert (entry["forget_accuracy"], entry["retain_accuracy"]) == \
                fresh_snapshot(copy, desk["train"], ucfg.forget_set,
                               penultimate(copy, desk["train"]))
