"""Evaluation: confusion counts, P/R/F/accuracy, multi-run aggregation.

Conventions (pinned so golden tests are stable): precision or recall is 0
when its denominator is 0, F1 is 0 when P+R is 0, quartiles use linear
interpolation between closest ranks, and micro scores pool raw counts
across labels rather than averaging per-label scores.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import UnitMismatch
from .storage import read_jsonl

EXACT = "exact"
ANY_OVERLAP = "any_overlap"

METRIC_FIELDS = ("precision", "recall", "f1", "accuracy")


@dataclass(frozen=True)
class GoldRecord:
    unit_ref: str
    gold_labels: frozenset[str]


def load_gold(path: str | Path) -> list[GoldRecord]:
    """Gold file: one JSONL record per unit: {"unit_ref", "labels"}."""
    records = []
    seen = set()
    for rec in read_jsonl(path):
        ref = rec["unit_ref"]
        if ref in seen:
            raise ValueError(f"duplicate unit_ref {ref!r} in gold file {path}")
        seen.add(ref)
        records.append(GoldRecord(ref, frozenset(rec.get("labels", []))))
    return records


def load_predictions(path: str | Path) -> tuple[dict[str, frozenset[str]], int]:
    """Prediction file: JSONL records carrying unit_ref (or prov_id/passage) + labels.

    Returns the labels by unit and the number of records whose `parse_error`
    is set, as `check` findings and `classify` labels carry it.
    """
    predicted = {}
    parse_failures = 0
    for rec in read_jsonl(path):
        ref = rec.get("unit_ref") or rec.get("prov_id") or rec.get("passage")
        if ref is None:
            raise ValueError(f"prediction record without a unit reference: {rec}")
        labels = rec.get("labels", rec.get("rule_ids", []))
        predicted[ref] = frozenset(labels)
        if rec.get("parse_error") is not None:
            parse_failures += 1
    return predicted, parse_failures


@dataclass(frozen=True)
class LabelCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class ConfusionCounts:
    per_label: Mapping[str, LabelCounts]
    n_units: int


def confusion(
    predicted: Mapping[str, Iterable[str]],
    gold: Sequence[GoldRecord],
    labels: Iterable[str] | None = None,
) -> ConfusionCounts:
    """Per-label confusion counts over a common unit set.

    The label universe defaults to every label seen in gold or predictions.
    Raises UnitMismatch unless predicted and gold cover exactly the same
    units.
    """
    gold_by_unit = {g.unit_ref: frozenset(g.gold_labels) for g in gold}
    missing = sorted(gold_by_unit.keys() - predicted.keys())
    extra = sorted(predicted.keys() - gold_by_unit.keys())
    if missing or extra:
        raise UnitMismatch(
            f"predictions missing units {missing[:5]} / extra units {extra[:5]}"
        )
    # One pass over units; a label's true negatives are the units left over.
    tp: Counter[str] = Counter()
    fp: Counter[str] = Counter()
    fn: Counter[str] = Counter()
    for unit, gold_labels in gold_by_unit.items():
        pred_labels = frozenset(predicted[unit])
        tp.update(pred_labels & gold_labels)
        fp.update(pred_labels - gold_labels)
        fn.update(gold_labels - pred_labels)
    # Every label seen is counted in at least one of the three.
    universe = tp.keys() | fp.keys() | fn.keys() if labels is None else set(labels)
    n = len(gold_by_unit)
    counts = {
        label: LabelCounts(
            tp[label], fp[label], fn[label], n - tp[label] - fp[label] - fn[label]
        )
        for label in sorted(universe)
    }
    return ConfusionCounts(counts, n)


@dataclass(frozen=True)
class MetricValues:
    precision: float
    recall: float
    f1: float
    accuracy: float

    def as_dict(self) -> dict[str, float]:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "accuracy": self.accuracy,
        }


def _from_counts(c: LabelCounts) -> MetricValues:
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (c.tp + c.tn) / c.total if c.total else 0.0
    return MetricValues(precision, recall, f1, accuracy)


@dataclass
class MetricsReport:
    per_label: dict[str, MetricValues]
    micro: MetricValues
    macro: MetricValues
    averaging: str = "macro"
    subset_accuracy: float | None = None
    parse_failure_count: int = 0

    def to_dict(self) -> dict:
        body: dict = {
            "averaging": self.averaging,
            "per_label": {k: v.as_dict() for k, v in self.per_label.items()},
            "micro": self.micro.as_dict(),
            "macro": self.macro.as_dict(),
            "parse_failure_count": self.parse_failure_count,
        }
        if self.subset_accuracy is not None:
            body["subset_accuracy"] = self.subset_accuracy
        return body

    @classmethod
    def from_dict(cls, body: dict) -> "MetricsReport":
        return cls(
            per_label={
                k: MetricValues(**v) for k, v in body.get("per_label", {}).items()
            },
            micro=MetricValues(**body["micro"]),
            macro=MetricValues(**body["macro"]),
            averaging=body.get("averaging", "macro"),
            subset_accuracy=body.get("subset_accuracy"),
            parse_failure_count=body.get("parse_failure_count", 0),
        )


def metrics(
    c: ConfusionCounts,
    averaging: str = "macro",
    parse_failure_count: int = 0,
) -> MetricsReport:
    """Per-label plus pooled (micro) and averaged (macro) scores."""
    if averaging not in ("per_label", "micro", "macro"):
        raise ValueError(f"unknown averaging {averaging!r}")
    per_label = {label: _from_counts(lc) for label, lc in c.per_label.items()}
    pooled = LabelCounts(
        tp=sum(lc.tp for lc in c.per_label.values()),
        fp=sum(lc.fp for lc in c.per_label.values()),
        fn=sum(lc.fn for lc in c.per_label.values()),
        tn=sum(lc.tn for lc in c.per_label.values()),
    )
    micro = _from_counts(pooled)
    if per_label:
        macro = MetricValues(
            precision=_mean([v.precision for v in per_label.values()]),
            recall=_mean([v.recall for v in per_label.values()]),
            f1=_mean([v.f1 for v in per_label.values()]),
            accuracy=_mean([v.accuracy for v in per_label.values()]),
        )
    else:
        macro = MetricValues(0.0, 0.0, 0.0, 0.0)
    return MetricsReport(
        per_label=per_label,
        micro=micro,
        macro=macro,
        averaging=averaging,
        parse_failure_count=parse_failure_count,
    )


def match_mode(
    predicted: Iterable[str], gold: Iterable[str], mode: str = ANY_OVERLAP
) -> bool:
    """Correctness of one rule-set prediction against gold.

    `exact` demands set equality; `any_overlap` accepts a non-empty
    intersection, or both sets empty.
    """
    p, g = frozenset(predicted), frozenset(gold)
    if mode == EXACT:
        return p == g
    if mode == ANY_OVERLAP:
        return bool(p & g) or (not p and not g)
    raise ValueError(f"unknown match mode {mode!r}")


def match_accuracy(
    predicted: Mapping[str, Iterable[str]],
    gold: Sequence[GoldRecord],
    mode: str = ANY_OVERLAP,
) -> float:
    """Fraction of units whose prediction is correct under `match_mode`."""
    if not gold:
        return 0.0
    hits = sum(
        1
        for g in gold
        if match_mode(frozenset(predicted.get(g.unit_ref, ())), g.gold_labels, mode)
    )
    return hits / len(gold)


# --------------------------------------------------------------------------
# Multi-run aggregation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxStats:
    """Boxplot statistics for one metric series; whiskers at 1.5 x IQR."""

    mean: float
    median: float
    q1: float
    q3: float
    min: float
    max: float
    whisker_low: float
    whisker_high: float

    def as_dict(self) -> dict[str, float]:
        return {
            "mean": self.mean,
            "median": self.median,
            "q1": self.q1,
            "q3": self.q3,
            "min": self.min,
            "max": self.max,
            "whisker_low": self.whisker_low,
            "whisker_high": self.whisker_high,
        }


@dataclass(frozen=True)
class RunAggregate:
    per_metric: Mapping[str, BoxStats]
    runs: int

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "per_metric": {k: v.as_dict() for k, v in self.per_metric.items()},
        }


def _box_stats(values: Sequence[float]) -> BoxStats:
    values = sorted(values)
    if len(values) == 1:
        v = values[0]
        return BoxStats(v, v, v, v, v, v, v, v)
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = [v for v in values if lo_fence <= v <= hi_fence]
    return BoxStats(
        mean=statistics.fmean(values),
        median=median,
        q1=q1,
        q3=q3,
        min=values[0],
        max=values[-1],
        whisker_low=min(inside),
        whisker_high=max(inside),
    )


def aggregate_runs(reports: Sequence[MetricsReport]) -> RunAggregate:
    """Boxplot statistics per metric across repeated runs.

    Series covered: micro and macro precision/recall/f1/accuracy, plus subset
    accuracy when every run reports it. Permutation-invariant over the run
    list.
    """
    if not reports:
        raise ValueError("at least one metrics report is required")
    series: dict[str, list[float]] = {}
    for scope in ("micro", "macro"):
        for name in METRIC_FIELDS:
            series[f"{scope}_{name}"] = [
                getattr(getattr(r, scope), name) for r in reports
            ]
    if all(r.subset_accuracy is not None for r in reports):
        series["subset_accuracy"] = [r.subset_accuracy for r in reports]  # type: ignore[misc]
    return RunAggregate(
        per_metric={k: _box_stats(v) for k, v in series.items()},
        runs=len(reports),
    )


# --------------------------------------------------------------------------
# Granularity comparison
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GranularityDelta:
    sentence_accuracy: float
    paragraph_accuracy: float
    delta: float
    direction: str  # "improved" | "degraded" | "unchanged"


def compare_granularity(sentence_acc: float, paragraph_acc: float) -> GranularityDelta:
    """Signed accuracy delta from sentence-level to paragraph-level checking.

    Deltas are rounded at the 9th decimal so differences of decimal inputs
    (0.63 - 0.30 -> 0.33) come out exact despite binary floats.
    """
    for value in (sentence_acc, paragraph_acc):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"accuracy {value} outside [0, 1]")
    delta = round(paragraph_acc - sentence_acc, 9)
    if delta > 0:
        direction = "improved"
    elif delta < 0:
        direction = "degraded"
    else:
        direction = "unchanged"
    return GranularityDelta(sentence_acc, paragraph_acc, delta, direction)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
