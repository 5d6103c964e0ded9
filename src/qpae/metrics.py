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

from .data import LabeledDataset
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


def evaluate(model: Classifier, data: LabeledDataset, forget_set: set[int],
             original_fa: float | None = None) -> EvaluationReport:
    """Score a model on labeled data, split by the forget set.

    Predictions are the argmax of the softmax with ties broken toward
    the lowest class index. FA, RA, FAR and per-class accuracy are shares
    of `confusion`, so a report can be recounted from itself.
    `original_fa` (the pre-unlearning forget accuracy) enables PER.
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
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (data.original_classes, np.argmax(logits, axis=1)), 1)
    hits, rows = np.diag(confusion), confusion.sum(axis=1)

    forget_cols = np.array(sorted(forget_set))
    forget_cls = np.isin(np.arange(k), forget_cols)  # by class, not by row
    fa = _share(hits[forget_cls].sum(), rows[forget_cls].sum())
    ra = _share(hits[~forget_cls].sum(), rows[~forget_cls].sum())
    far = _share(confusion[np.ix_(~forget_cls, forget_cls)].sum(), rows[~forget_cls].sum())
    flags = [name for name, value in (("empty_forget_split", fa),
                                      ("empty_retain_split", ra)) if value is None]
    frr, il = None, 0.0
    if fa is not None:
        # the complement-count ratio, written so FA + FRR == 100 holds
        # exactly in floating point
        frr = 100.0 - fa
        forget_rows = data.forgotten(forget_set)
        il = 100.0 * float(np.mean(np.sum(probs[np.ix_(forget_rows, forget_cols)], axis=1)))

    erb = erb_score(fa, ra) if fa is not None and ra is not None else None
    per_class = [_share(h, n) for h, n in zip(hits, rows)]
    # positional, in field order: the dataclass is the one list of fields
    return EvaluationReport(fa, ra, il, per_score(original_fa, fa), far, frr, erb, per_class,
                            confusion, data.n_samples, sorted(forget_set), flags)


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


def report_from_json(text: str) -> EvaluationReport:
    """The report `report_to_json` wrote; every field must hold its annotation."""
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise ReportError(f"not an evaluation report ({exc})") from exc
    if not isinstance(raw, dict):
        raise ReportError("not an evaluation report (no JSON object)")
    raw.setdefault("flags", [])
    for f in fields(EvaluationReport):
        kind, holds = FIELD_KINDS[f.type]
        if f.name not in raw or not holds(raw[f.name]):
            raise ReportError(f"not an evaluation report ({f.name} must be {kind})")
    if len(raw["per_class"]) != len(raw["confusion"]):
        raise ReportError("not an evaluation report (per_class and confusion differ in K)")
    raw["confusion"] = np.array(raw["confusion"], dtype=np.int64)
    return EvaluationReport(**{f.name: raw[f.name] for f in fields(EvaluationReport)})
