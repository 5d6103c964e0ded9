"""Erasure evaluation metrics and report serialization.

Accuracy-style metrics are percentages in [0, 100]. When a split is
empty the metrics that need it are reported as absent (None) and a flag
records why; information leakage alone falls back to 0 by definition.

For multi-class forget sets, forget accuracy counts a sample correct
only when it is predicted as its *own* class, and the false rejection
rate counts the complement, so FA + FRR = 100 holds by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .data import LabeledDataset
from .model import Classifier, NumericError, forward_batch, softmax


def erb_score(fa: float, ra: float) -> float:
    """Harmonic-mean balance of forget and retain accuracy; 0 when both 0."""
    if fa + ra == 0.0:
        return 0.0
    return 2.0 * fa * ra / (fa + ra)


@dataclass
class EvaluationReport:
    fa: float | None            # forget accuracy, %
    ra: float | None            # retain accuracy, %
    il: float                   # information leakage, %
    per: float | None           # privacy erasure rate, %; needs original FA
    far: float | None           # false acceptance rate, %
    frr: float | None           # false rejection rate, %
    erb: float | None           # erasing-retention balance score
    per_class: list[float | None]
    confusion: np.ndarray       # (K, K) counts, rows = true class
    n_eval: int
    forget_set: list[int]
    flags: list[str] = field(default_factory=list)

    @property
    def num_classes(self) -> int:
        return len(self.per_class)


def evaluate(model: Classifier, data: LabeledDataset, forget_set: set[int],
             original_fa: float | None = None) -> EvaluationReport:
    """Score a model on labeled data, split by the forget set.

    Predictions are the argmax of the softmax with ties broken toward
    the lowest class index. `original_fa` (the pre-unlearning forget
    accuracy) enables the privacy erasure rate.
    """
    if data.n_samples == 0:
        raise ValueError("evaluation data must be non-empty")
    k = data.num_classes
    bad = [c for c in forget_set if c < 0 or c >= k]
    if not forget_set or bad:
        raise ValueError(f"invalid forget_set {sorted(forget_set)} for K={k}")

    _, logits = forward_batch(model, data.features)
    probs = softmax(logits)
    if not np.all(np.isfinite(probs)):
        raise NumericError("non-finite prediction encountered during evaluation")
    preds = np.argmax(logits, axis=1)
    truth = data.original_classes
    correct = preds == truth

    forget_cols = np.array(sorted(forget_set))
    forget_mask = np.isin(truth, forget_cols)
    retain_mask = ~forget_mask
    flags: list[str] = []

    if forget_mask.any():
        fa = 100.0 * float(np.mean(correct[forget_mask]))
        # the complement-count ratio, written so FA + FRR == 100 holds
        # exactly in floating point
        frr = 100.0 - fa
        il = 100.0 * float(np.mean(np.sum(probs[np.ix_(forget_mask, forget_cols)], axis=1)))
    else:
        fa, frr, il = None, None, 0.0
        flags.append("empty_forget_split")

    if retain_mask.any():
        ra = 100.0 * float(np.mean(correct[retain_mask]))
        far = 100.0 * float(np.mean(np.isin(preds[retain_mask], forget_cols)))
    else:
        ra, far = None, None
        flags.append("empty_retain_split")

    per = None
    if original_fa is not None and original_fa > 0.0 and fa is not None:
        per = (original_fa - fa) / original_fa * 100.0

    erb = erb_score(fa, ra) if fa is not None and ra is not None else None

    per_class: list[float | None] = []
    for c in range(k):
        mask = truth == c
        per_class.append(100.0 * float(np.mean(correct[mask])) if mask.any() else None)

    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (truth, preds), 1)

    return EvaluationReport(fa=fa, ra=ra, il=il, per=per, far=far, frr=frr,
                            erb=erb, per_class=per_class, confusion=confusion,
                            n_eval=data.n_samples, forget_set=sorted(forget_set),
                            flags=flags)


def compare_reports(original: EvaluationReport,
                    unlearned: EvaluationReport) -> dict:
    """Signed per-metric deltas (unlearned - original); PER is recomputed
    from the original report's forget accuracy.
    """
    if original.num_classes != unlearned.num_classes:
        raise ValueError("reports cover different class counts")
    if original.forget_set != unlearned.forget_set:
        raise ValueError("reports cover different forget sets")

    def delta(a: float | None, b: float | None) -> float | None:
        return None if a is None or b is None else b - a

    per = None
    if original.fa is not None and original.fa > 0.0 and unlearned.fa is not None:
        per = (original.fa - unlearned.fa) / original.fa * 100.0
    return {
        "fa": delta(original.fa, unlearned.fa),
        "ra": delta(original.ra, unlearned.ra),
        "il": delta(original.il, unlearned.il),
        "far": delta(original.far, unlearned.far),
        "frr": delta(original.frr, unlearned.frr),
        "erb": delta(original.erb, unlearned.erb),
        "per": per,
    }


def format_metric(value: float | None) -> str:
    """Two decimals, ties rounded away from zero; '--' for absent values."""
    if value is None:
        return "--"
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"),
                                                    rounding=ROUND_HALF_UP))


TABLE_COLUMNS = ["Method", "FA", "FAR", "RA", "FRR", "PER", "IL", "ERB"]


def report_csv_row(method: str, report: EvaluationReport) -> list[str]:
    """One table row in the shared column order."""
    return [method,
            format_metric(report.fa), format_metric(report.far),
            format_metric(report.ra), format_metric(report.frr),
            format_metric(report.per), format_metric(report.il),
            format_metric(report.erb)]


def report_to_json(report: EvaluationReport) -> str:
    payload = {
        "fa": report.fa, "ra": report.ra, "il": report.il, "per": report.per,
        "far": report.far, "frr": report.frr, "erb": report.erb,
        "per_class": report.per_class,
        "confusion": report.confusion.tolist(),
        "n_eval": report.n_eval,
        "forget_set": report.forget_set,
        "flags": report.flags,
    }
    return json.dumps(payload, indent=2)


class ReportError(ValueError):
    """Text that does not hold a report as `report_to_json` writes it."""


def report_from_json(text: str) -> EvaluationReport:
    try:
        raw = json.loads(text)
        return EvaluationReport(
            fa=raw["fa"], ra=raw["ra"], il=raw["il"], per=raw["per"],
            far=raw["far"], frr=raw["frr"], erb=raw["erb"],
            per_class=raw["per_class"],
            confusion=np.array(raw["confusion"], dtype=np.int64),
            n_eval=raw["n_eval"], forget_set=list(raw["forget_set"]),
            flags=list(raw.get("flags", [])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ReportError(f"not an evaluation report "
                          f"({type(exc).__name__}: {exc})") from exc
