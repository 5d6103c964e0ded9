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
from dataclasses import asdict, dataclass, field, fields
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .data import LabeledDataset, check_forget_set
from .files import FIELD_KINDS
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


def per_score(original_fa: float | None, fa: float | None) -> float | None:
    """Privacy erasure rate: % of the original FA that is gone; None unless that FA > 0."""
    if original_fa is not None and original_fa > 0.0 and fa is not None:
        return (original_fa - fa) / original_fa * 100.0
    return None


def _share(hits, rows) -> float | None:
    """hits / rows in percent; absent (None) when no row counts."""
    return 100.0 * (int(hits) / int(rows)) if rows else None


def confusion_matrix(classes: np.ndarray, preds: np.ndarray, k: int) -> np.ndarray:
    """(k, k) int64 counts of (true class, predicted class) pairs."""
    return np.bincount(classes * k + preds, minlength=k * k).astype(np.int64).reshape(k, k)


def confusion_scores(confusion: np.ndarray, forget_set: list[int]) -> dict:
    """The report fields that are counts of `confusion` split by the sorted
    `forget_set`: fa, ra, far, frr, erb, per_class, n_eval and flags.

    FA, RA, FAR and per-class accuracy are shares of the matrix, each one
    correctly rounded division of two exact counts, so `evaluate` and a
    report read back give the same bits.
    """
    counts = np.asarray(confusion).astype(object)  # Python ints: no sum wraps
    hits, rows = np.diag(counts), counts.sum(axis=1)
    forget_cls = np.isin(np.arange(len(counts)), forget_set)  # by class, not by row
    fa = _share(hits[forget_cls].sum(), rows[forget_cls].sum())
    ra = _share(hits[~forget_cls].sum(), rows[~forget_cls].sum())
    far = _share(counts[np.ix_(~forget_cls, forget_cls)].sum(), rows[~forget_cls].sum())
    # the complement-count ratio, written so FA + FRR == 100 holds exactly
    # in floating point
    frr = None if fa is None else 100.0 - fa
    erb = erb_score(fa, ra) if fa is not None and ra is not None else None
    flags = [name for name, value in (("empty_forget_split", fa),
                                      ("empty_retain_split", ra)) if value is None]
    return {"fa": fa, "ra": ra, "far": far, "frr": frr, "erb": erb,
            "per_class": [_share(h, n) for h, n in zip(hits, rows)],
            "n_eval": int(rows.sum()), "flags": flags}


def evaluate(model: Classifier, data: LabeledDataset, forget_set: set[int],
             original_fa: float | None = None) -> EvaluationReport:
    """Score a model on labeled data, split by the forget set.

    Predictions are the argmax of the softmax with ties broken toward
    the lowest class index. Every field but IL and PER comes from
    `confusion_scores`, so a report can be recounted from itself.
    `original_fa` (the pre-unlearning forget accuracy) enables PER.
    """
    if data.n_samples == 0:
        raise ValueError("evaluation data must be non-empty")
    k = data.num_classes
    check_forget_set(forget_set, k)

    _, logits = forward_batch(model, data.features)
    probs = softmax(logits)
    if not np.all(np.isfinite(probs)):
        raise NumericError("non-finite prediction encountered during evaluation")
    confusion = confusion_matrix(data.original_classes, np.argmax(logits, axis=1), k)
    forget = sorted(forget_set)
    scores = confusion_scores(confusion, forget)
    il = 0.0
    if scores["fa"] is not None:
        forget_rows = data.forgotten(forget_set)
        il = 100.0 * float(np.mean(np.sum(probs[np.ix_(forget_rows, forget)], axis=1)))
    return EvaluationReport(il=il, per=per_score(original_fa, scores["fa"]),
                            confusion=confusion, forget_set=forget, **scores)


def compare_reports(original: EvaluationReport,
                    unlearned: EvaluationReport) -> dict:
    """Signed per-metric deltas (unlearned - original); PER is recomputed
    from the original report's forget accuracy.
    """
    if original.num_classes != unlearned.num_classes:
        raise ValueError("reports cover different class counts")
    if original.forget_set != unlearned.forget_set:
        raise ValueError("reports cover different forget sets")

    def delta(key: str) -> float | None:
        a, b = getattr(original, key), getattr(unlearned, key)
        return None if a is None or b is None else b - a

    deltas = {key: delta(key) for key in ("fa", "ra", "il", "far", "frr", "erb")}
    return {**deltas, "per": per_score(original.fa, unlearned.fa)}


def format_metric(value: float | None) -> str:
    """Two decimals, ties rounded away from zero; '--' for absent values."""
    if value is None:
        return "--"
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"),
                                                    rounding=ROUND_HALF_UP))


TABLE_COLUMNS = ["Method", "FA", "FAR", "RA", "FRR", "PER", "IL", "ERB"]


def report_csv_row(method: str, report: EvaluationReport) -> list[str]:
    """One table row: each column after Method is the report field of
    that name, lowercased."""
    return [method] + [format_metric(getattr(report, column.lower()))
                       for column in TABLE_COLUMNS[1:]]


def report_to_json(report: EvaluationReport) -> str:
    """Every field in declaration order; `confusion` as nested lists."""
    return json.dumps({**asdict(report), "confusion": report.confusion.tolist()},
                      indent=2)


class ReportError(ValueError):
    """Text that does not hold a report as `report_to_json` writes it."""


def report_from_json(text: str | bytes) -> EvaluationReport:
    """The report `report_to_json` wrote, as text or UTF-8 bytes. Every
    field must hold its annotation, and every field `confusion_scores` gives
    must equal its recount from `confusion` and `forget_set` bit for bit."""
    try:
        raw = json.loads(text if isinstance(text, str) else text.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # a decode error is a ValueError
        raise ReportError(f"not an evaluation report ({exc})") from exc
    if not isinstance(raw, dict):
        raise ReportError("not an evaluation report (no JSON object)")
    raw.setdefault("flags", [])
    for f in fields(EvaluationReport):
        kind, holds = FIELD_KINDS[f.type]
        if f.name not in raw or not holds(raw[f.name]):
            raise ReportError(f"not an evaluation report ({f.name} must be {kind})")
    k, forget_set = len(raw["confusion"]), raw["forget_set"]
    if not forget_set or forget_set != sorted({c for c in forget_set if 0 <= c < k}):
        raise ReportError(f"not an evaluation report (forget_set must list classes "
                          f"of 0..{k - 1} in order, each once)")
    raw["confusion"] = np.array(raw["confusion"], dtype=np.int64)
    counted = confusion_scores(raw["confusion"], forget_set)
    for name, value in counted.items():
        # a float's repr round-trips, so equal JSON text is equal bits
        if json.dumps(raw[name]) != json.dumps(value):
            raise ReportError(f"not an evaluation report ({name} disagrees with confusion)")
    return EvaluationReport(**{f.name: raw[f.name] for f in fields(EvaluationReport)})
