import json
from dataclasses import fields as dataclass_fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpae.data import LabeledDataset
from qpae.metrics import (TABLE_COLUMNS, EvaluationReport, ReportError,
                          compare_reports, erb_score, evaluate, format_metric,
                          report_csv_row, report_from_json, report_to_json)
from qpae.model import Classifier, softmax
from qpae.rng import Rng

from helpers import one_hot, randbelow, reference_evaluate


def prediction_set(logits, classes, k):
    """Dataset + identity model so evaluate() sees exactly these logits."""
    logits = np.asarray(logits, dtype=float)
    data = LabeledDataset(logits,
                          np.stack([one_hot(c, k) for c in classes]),
                          np.array(classes, dtype=np.int64), k)
    model = Classifier([(np.eye(k), np.zeros(k))])
    return model, data


def logits_for_probs(probs):
    return np.log(np.asarray(probs, dtype=float))


class TestErbAndPerFormulas:
    def test_erb_values(self):
        assert erb_score(100.0, 98.51) == pytest.approx(99.25, abs=0.01)
        assert erb_score(97.85, 63.45) == pytest.approx(76.98, abs=0.01)

    def test_erb_degenerate(self):
        assert erb_score(0.0, 0.0) == 0.0
        assert erb_score(0.0, 88.0) == 0.0

    @given(st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100))
    @settings(max_examples=300)
    def test_erb_symmetric_harmonic(self, fa, ra):
        assert erb_score(fa, ra) == erb_score(ra, fa)
        if fa + ra > 0:
            assert erb_score(fa, ra) == pytest.approx(2 * fa * ra / (fa + ra), rel=1e-12)
        if fa == 0.0:
            assert erb_score(fa, ra) == 0.0


class TestEvaluateCountingExamples:
    def test_far_and_frr_counting(self):
        # 4 forget samples (class 0): 3 predicted away; 3 retain samples
        # (class 1): 1 predicted into the forget class
        k = 2
        logits = [
            [5.0, 0.0],   # forget, predicted 0 (stays)
            [0.0, 5.0],   # forget, predicted 1
            [0.0, 5.0],   # forget, predicted 1
            [0.0, 5.0],   # forget, predicted 1
            [0.0, 5.0],   # retain, predicted 1
            [0.0, 5.0],   # retain, predicted 1
            [5.0, 0.0],   # retain, predicted 0 (false acceptance)
        ]
        model, data = prediction_set(logits, [0, 0, 0, 0, 1, 1, 1], k)
        rep = evaluate(model, data, {0})
        assert rep.fa == pytest.approx(25.0)
        assert rep.frr == pytest.approx(75.0)
        assert rep.far == pytest.approx(100.0 / 3.0)
        assert rep.fa + rep.frr == 100.0

    def test_il_mean_of_forget_probability_mass(self):
        probs = [[0.9, 0.1], [0.7, 0.3]]
        model, data = prediction_set(logits_for_probs(probs), [0, 0], 2)
        rep = evaluate(model, data, {0})
        assert rep.il == pytest.approx(80.0, abs=1e-9)

    def test_fa_zero_gives_erb_zero_and_per_100(self):
        model, data = prediction_set([[0.0, 5.0], [0.0, 5.0], [5.0, 0.0]],
                                     [0, 0, 1], 2)
        rep = evaluate(model, data, {0}, original_fa=100.0)
        assert rep.fa == 0.0 and rep.erb == 0.0 and rep.per == 100.0

    def test_per_fraction(self):
        # 200 forget samples for two-decimal FA resolution
        n_kept = 40  # 20% keep -> FA 20.0
        logits = [[5.0, 0.0]] * n_kept + [[0.0, 5.0]] * (200 - n_kept) + [[0.0, 5.0]] * 50
        classes = [0] * 200 + [1] * 50
        model, data = prediction_set(logits, classes, 2)
        rep = evaluate(model, data, {0}, original_fa=100.0)
        assert rep.per == pytest.approx(80.0)

    def test_per_absent_without_original(self):
        model, data = prediction_set([[1.0, 0.0], [0.0, 1.0]], [0, 1], 2)
        assert evaluate(model, data, {0}).per is None
        assert evaluate(model, data, {0}, original_fa=0.0).per is None

    def test_empty_forget_split_il_zero_with_flag(self):
        model, data = prediction_set([[1.0, 0.0], [0.0, 1.0]], [1, 1], 2)
        rep = evaluate(model, data, {0})
        assert rep.il == 0.0 and rep.fa is None and rep.frr is None
        assert "empty_forget_split" in rep.flags

    def test_empty_retain_split_flagged(self):
        model, data = prediction_set([[1.0, 0.0]], [0], 2)
        rep = evaluate(model, data, {0, 1} - {1})
        rep2 = evaluate(model, data, {0})
        assert rep2.ra is None and rep2.far is None
        assert "empty_retain_split" in rep2.flags

    def test_argmax_tie_breaks_low_index(self):
        model, data = prediction_set([[1.0, 1.0, 0.0]], [1], 3)
        rep = evaluate(model, data, {0})
        assert rep.confusion[1, 0] == 1  # tie between 0 and 1 goes to 0

    def test_confusion_and_per_class(self):
        model, data = prediction_set(
            [[5, 0, 0], [0, 5, 0], [0, 5, 0], [0, 0, 5]], [0, 0, 1, 2], 3)
        rep = evaluate(model, data, {0})
        assert rep.confusion.tolist() == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
        assert rep.per_class == [50.0, 100.0, 100.0]
        assert rep.n_eval == 4


def brute_force_recount(logits, classes, forget_set, k, original_fa=None):
    """Straight-line recount of every metric, no vectorization."""
    probs = [softmax(np.asarray(row, dtype=float)) for row in logits]
    preds = []
    for row in logits:
        best, best_v = 0, row[0]
        for j in range(1, k):
            if row[j] > best_v:
                best, best_v = j, row[j]
        preds.append(best)
    f_total = f_correct = f_reject = 0
    r_total = r_correct = r_into = 0
    il_sum = 0.0
    for i, c in enumerate(classes):
        if c in forget_set:
            f_total += 1
            il_sum += sum(probs[i][j] for j in forget_set)
            if preds[i] == c:
                f_correct += 1
            else:
                f_reject += 1
        else:
            r_total += 1
            if preds[i] == c:
                r_correct += 1
            if preds[i] in forget_set:
                r_into += 1
    out = {
        "fa": 100.0 * f_correct / f_total if f_total else None,
        "frr": 100.0 * f_reject / f_total if f_total else None,
        "il": 100.0 * il_sum / f_total if f_total else 0.0,
        "ra": 100.0 * r_correct / r_total if r_total else None,
        "far": 100.0 * r_into / r_total if r_total else None,
    }
    if out["fa"] is not None and out["ra"] is not None:
        s = out["fa"] + out["ra"]
        out["erb"] = 2 * out["fa"] * out["ra"] / s if s else 0.0
    else:
        out["erb"] = None
    if original_fa and out["fa"] is not None:
        out["per"] = (original_fa - out["fa"]) / original_fa * 100.0
    else:
        out["per"] = None
    return out


class TestBruteForceOracle:
    def test_hundred_random_prediction_sets(self):
        rng = Rng(606)
        for case in range(100):
            k = 2 + randbelow(rng, 11)          # K <= 12
            n = 1 + randbelow(rng, 200)         # <= 200 samples
            logits = rng.normal(n * k, sigma=3.0).reshape(n, k)
            classes = [int(randbelow(rng, k)) for _ in range(n)]
            n_forget = 1 + randbelow(rng, k - 1)
            forget = set()
            while len(forget) < n_forget:
                forget.add(int(randbelow(rng, k)))
            original_fa = 100.0 if case % 2 == 0 else None
            model, data = prediction_set(logits, classes, k)
            rep = evaluate(model, data, forget, original_fa=original_fa)
            want = brute_force_recount(logits, classes, forget, k, original_fa)
            for key in ("fa", "ra", "il", "far", "frr", "erb", "per"):
                got = getattr(rep, key)
                if want[key] is None:
                    assert got is None, key
                else:
                    assert got == pytest.approx(want[key], abs=1e-9), key
            if rep.fa is not None:
                assert rep.fa + rep.frr == 100.0

    def test_single_class_reduces_to_aggregate(self):
        # |forget_set| = 1 must agree with the plain single-class formulas
        rng = Rng(19)
        k, n = 6, 150
        logits = rng.normal(n * k, sigma=2.0).reshape(n, k)
        classes = [int(randbelow(rng, k)) for _ in range(n)]
        model, data = prediction_set(logits, classes, k)
        rep = evaluate(model, data, {2})
        preds = np.argmax(logits, axis=1)
        truth = np.array(classes)
        fmask = truth == 2
        assert rep.fa == pytest.approx(100.0 * np.mean(preds[fmask] == 2))
        assert rep.frr == pytest.approx(100.0 * np.mean(preds[fmask] != 2))
        assert rep.far == pytest.approx(100.0 * np.mean(preds[~fmask] == 2))


def exact_fields(report: EvaluationReport) -> str:
    """Every field of a report, floats by repr, so equal text is equal bits."""
    return repr([(f.name, getattr(report, f.name)) for f in dataclass_fields(report)
                 if f.name != "confusion"] + [report.confusion.tolist()])


class TestConfusionShares:
    @pytest.mark.parametrize("sides", ["both", "no_forget_rows", "no_retain_rows"])
    def test_bit_equal_to_mask_based_reference(self, sides):
        # FA, RA, FAR and per-class accuracy read from the confusion matrix
        # must equal the per-mask means of the first evaluate, bit for bit
        rng = Rng({"both": 71, "no_forget_rows": 72, "no_retain_rows": 73}[sides])
        for k in range(2, 13):
            for trial in range(6):
                dim = 2 + randbelow(rng, 6)
                model = Classifier.random_init(dim, [3 + randbelow(rng, 8)], k,
                                               Rng(1000 * k + trial))
                forget = set()
                n_forget = 1 + randbelow(rng, k - 1)
                while len(forget) < n_forget:
                    forget.add(int(randbelow(rng, k)))
                pool = {"both": range(k),
                        "no_forget_rows": sorted(set(range(k)) - forget),
                        "no_retain_rows": sorted(forget)}[sides]
                n = 2 + randbelow(rng, 150)
                classes = np.array([pool[randbelow(rng, len(pool))] for _ in range(n)])
                if sides == "both":  # a row on each side of the split, at least
                    classes[:2] = min(forget), min(set(range(k)) - forget)
                data = LabeledDataset(rng.normal(n * dim, sigma=2.0).reshape(n, dim),
                                      np.eye(k)[classes], classes, k)
                original_fa = [None, 0.0, 100.0, 37.5, 3.0, 62.5][trial]
                got = evaluate(model, data, forget, original_fa=original_fa)
                want = reference_evaluate(model, data, forget, original_fa=original_fa)
                assert exact_fields(got) == exact_fields(want), (k, trial)
                flag = {"both": None, "no_forget_rows": "empty_forget_split",
                        "no_retain_rows": "empty_retain_split"}[sides]
                assert got.flags == ([flag] if flag else [])

    def test_each_table_column_names_a_report_field(self):
        names = {f.name for f in dataclass_fields(EvaluationReport)}
        assert TABLE_COLUMNS[0] == "Method"
        assert [c for c in TABLE_COLUMNS[1:] if c.lower() not in names] == []


class TestCompareReports:
    def _rep(self, logits, classes, k, forget, original_fa=None):
        model, data = prediction_set(logits, classes, k)
        return evaluate(model, data, forget, original_fa=original_fa)

    def test_identical_reports_zero_deltas(self):
        rep = self._rep([[1.0, 0.0], [0.0, 1.0]], [0, 1], 2, {0})
        deltas = compare_reports(rep, rep)
        for key in ("fa", "ra", "il", "far", "frr", "erb"):
            assert deltas[key] == 0.0

    def test_full_erasure_deltas(self):
        orig = self._rep([[5.0, 0.0], [0.0, 5.0]], [0, 1], 2, {0})
        unl = self._rep([[0.0, 5.0], [0.0, 5.0]], [0, 1], 2, {0})
        deltas = compare_reports(orig, unl)
        assert deltas["fa"] == -100.0
        assert deltas["per"] == 100.0

    def test_ra_delta(self):
        # 10000 retain samples -> RA granularity 0.01
        n = 10000
        keep = 9851
        orig_logits = [[0.0, 5.0]] * keep + [[5.0, 0.0]] * (n - keep) + [[5.0, 0.0]]
        unl_logits = [[0.0, 5.0]] * 9703 + [[5.0, 0.0]] * (n - 9703) + [[5.0, 0.0]]
        classes = [1] * n + [0]
        orig = self._rep(orig_logits, classes, 2, {0})
        unl = self._rep(unl_logits, classes, 2, {0})
        assert orig.ra == pytest.approx(98.51)
        assert compare_reports(orig, unl)["ra"] == pytest.approx(-1.48, abs=1e-9)

    def test_mismatched_forget_sets_rejected(self):
        a = self._rep([[1.0, 0.0], [0.0, 1.0]], [0, 1], 2, {0})
        b = self._rep([[1.0, 0.0], [0.0, 1.0]], [0, 1], 2, {1})
        with pytest.raises(ValueError):
            compare_reports(a, b)


# a value of another kind for each report field, NaN and Infinity among them
WRONG_KINDS = [
    ("fa", "x"), ("ra", "x"), ("fa", float("inf")), ("per", float("nan")),
    ("erb", True), ("frr", [1.0]), ("far", 10 ** 400), ("il", None),
    ("per_class", [100.0]), ("per_class", [100.0, "x"]), ("per_class", 5),
    ("confusion", [[1, 0], [0, -1]]), ("confusion", [[1, 0], [0]]),
    ("confusion", [[1, 0], [0, 1.0]]), ("confusion", [[1, 0], [0, 2 ** 63]]),
    ("confusion", [[True, 0], [0, 1]]), ("confusion", []),
    ("n_eval", 2.0), ("forget_set", [0.5]), ("forget_set", 0), ("flags", [1]),
    ("flags", "empty_forget_split"),
]


class TestSerialization:
    def test_json_round_trip(self):
        model, data = prediction_set([[2.0, 0.0, 1.0], [0.0, 3.0, 1.0]], [0, 1], 3)
        rep = evaluate(model, data, {0}, original_fa=100.0)
        back = report_from_json(report_to_json(rep))
        assert back.fa == rep.fa and back.per == rep.per and back.flags == rep.flags
        assert np.array_equal(back.confusion, rep.confusion)
        assert back.per_class == rep.per_class

    @pytest.mark.parametrize("text", [
        "{nope", '{"fa": 0.0}', "[1, 2]", "5",
        pytest.param(b"\xff{}", id="not_utf8"), pytest.param("[" * 100000, id="deep_nesting")])
    def test_text_that_is_no_report_raises_report_error(self, text):
        with pytest.raises(ReportError, match="not an evaluation report"):
            report_from_json(text)

    def test_json_round_trip_is_byte_stable(self):
        model, data = prediction_set([[2.0, 0.0, 1.0], [0.0, 3.0, 1.0]], [0, 2], 3)
        text = report_to_json(evaluate(model, data, {0}, original_fa=50.0))
        assert report_to_json(report_from_json(text)) == text

    def test_absent_flags_read_as_empty(self):
        model, data = prediction_set([[1.0, 0.0], [0.0, 1.0]], [0, 1], 2)
        raw = json.loads(report_to_json(evaluate(model, data, {0})))
        del raw["flags"]
        assert report_from_json(json.dumps(raw)).flags == []

    @pytest.mark.parametrize("key, value", WRONG_KINDS,
                             ids=[f"{key}{i}" for i, (key, _) in enumerate(WRONG_KINDS)])
    def test_field_of_the_wrong_kind_raises_report_error(self, key, value):
        model, data = prediction_set([[1.0, 0.0], [0.0, 1.0]], [0, 1], 2)
        raw = json.loads(report_to_json(evaluate(model, data, {0})))
        raw[key] = value
        with pytest.raises(ReportError, match="not an evaluation report"):
            report_from_json(json.dumps(raw))

    @pytest.mark.parametrize("forget_set", [[], [1, 0], [0, 0], [2], [-1, 0]],
                             ids=["empty", "unsorted", "repeated", "past_k", "negative"])
    def test_forget_set_that_names_no_classes_in_order_raises_report_error(self, forget_set):
        model, data = prediction_set([[1.0, 0.0], [0.0, 1.0]], [0, 1], 2)
        raw = json.loads(report_to_json(evaluate(model, data, {0})))
        raw["forget_set"] = forget_set
        with pytest.raises(ReportError, match="forget_set must list classes of 0..1"):
            report_from_json(json.dumps(raw))

    @pytest.mark.parametrize("key, value", [("fa", 5e-324), ("ra", 12.5), ("far", 0.0),
                                            ("n_eval", 4), ("flags", ["empty_forget_split"]),
                                            ("per_class", [100.0, None])])
    def test_field_the_confusion_does_not_give_raises_report_error(self, key, value):
        model, data = prediction_set([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], [0, 1, 1], 2)
        raw = json.loads(report_to_json(evaluate(model, data, {0})))
        raw[key] = value
        with pytest.raises(ReportError, match=f"{key} disagrees with confusion"):
            report_from_json(json.dumps(raw))

    def test_fixed_json_field_names(self):
        import json
        model, data = prediction_set([[1.0, 0.0], [0.0, 1.0]], [0, 1], 2)
        payload = json.loads(report_to_json(evaluate(model, data, {0})))
        for key in ("fa", "ra", "il", "per", "far", "frr", "erb",
                    "per_class", "confusion", "n_eval"):
            assert key in payload

    def test_format_metric_half_away_from_zero(self):
        assert format_metric(None) == "--"
        assert format_metric(2.675) == "2.68"
        assert format_metric(0.005) == "0.01"
        assert format_metric(-0.005) == "-0.01"
        assert format_metric(99.249) == "99.25"
        assert format_metric(100.0) == "100.00"

    def test_csv_row_order(self):
        model, data = prediction_set([[1.0, 0.0], [0.0, 1.0]], [0, 1], 2)
        rep = evaluate(model, data, {0})
        row = report_csv_row("Original", rep)
        assert row[0] == "Original"
        assert len(row) == 8
        assert row[5] == "--"  # PER column without an original report
