"""Evaluation: confusion counts, P/R/F/accuracy, multi-run aggregation.

Conventions (pinned so golden tests are stable): precision or recall is 0
when its denominator is 0, F1 is 0 when P+R is 0, quartiles use linear
interpolation between closest ranks, and micro scores pool raw counts
across labels rather than averaging per-label scores.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, astuple, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import UnitMismatch
from .storage import numbered_jsonl

METRIC_FIELDS = ("precision", "recall", "f1", "accuracy")


@dataclass(frozen=True)
class GoldRecord:
    unit_ref: str
    gold_labels: frozenset[str]


def load_gold(path: str | Path) -> Iterator[GoldRecord]:
    """Gold file: one JSONL record per unit: {"unit_ref", "labels"}. Read lazily,
    so that `confusion` scores it in one pass without holding its records."""
    records = _unit_records(path, "gold", lambda rec: (rec.get("unit_ref"), rec.get("labels", [])))
    return (GoldRecord(ref, labels) for ref, labels, _ in records)


def load_predictions(path: str | Path) -> tuple[dict[str, frozenset[str]], int]:
    """Prediction file: the JSONL `check` (findings, keyed by `unit_ref`) or
    `classify` (labels, keyed by `prov_id`) writes; every record needs `labels`.

    Returns the labels by unit and the number of records whose `parse_error`
    is set, as `check` findings and `classify` labels carry it.
    """
    predicted = {}
    parse_failures = 0
    records = _unit_records(
        path, "prediction", lambda rec: (rec.get("unit_ref") or rec.get("prov_id"), rec.get("labels"))
    )
    for ref, labels, rec in records:
        predicted[ref] = labels
        parse_failures += rec.get("parse_error") is not None
    return predicted, parse_failures


def _unit_records(
    path: str | Path, kind: str, fields: Callable[[dict], tuple]
) -> Iterator[tuple[str, frozenset[str], dict]]:
    """`(unit ref, label set, record)` for each record of a `kind` file, whose
    `fields` are its unit reference and labels: each checked for its type, and
    each unit named once in the file."""
    seen = set()
    for line, rec in numbered_jsonl(path):
        ref, labels = fields(rec)
        if not isinstance(ref, str) or not ref:
            raise ValueError(f"{path}:{line}: unit_ref must be a non-empty string, got {ref!r}")
        if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
            raise ValueError(f"{path}:{line}: labels of {ref!r} must be a list of strings, got {labels!r}")
        if ref in seen:
            raise ValueError(f"{path}:{line}: duplicate unit_ref {ref!r} in {kind} file")
        seen.add(ref)
        yield ref, frozenset(labels), rec


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
    """Per-label counts over `units` units, and how many of those units the
    prediction matches exactly and with any overlap."""

    per_label: Mapping[str, LabelCounts]
    units: int = 0
    exact: int = 0
    overlap: int = 0

    def share(self, hits: int) -> float:
        """`hits` as a fraction of the units; 0 when there are none."""
        return hits / self.units if self.units else 0.0


def confusion(predicted: Mapping[str, Iterable[str]], gold: Iterable[GoldRecord]) -> ConfusionCounts:
    """Per-label confusion counts over a common unit set, in one pass over `gold`,
    which names each unit once.

    The label universe is every label seen in gold or predictions. A unit's
    prediction overlaps its gold labels when they share a label or both are
    empty. Raises UnitMismatch unless predicted and gold cover exactly the same
    units.
    """
    tp: Counter[str] = Counter()
    fp: Counter[str] = Counter()
    fn: Counter[str] = Counter()
    seen: set[str] = set()
    exact = overlap = 0
    for g in gold:
        seen.add(g.unit_ref)
        if g.unit_ref not in predicted:
            continue
        pred_labels, gold_labels = frozenset(predicted[g.unit_ref]), frozenset(g.gold_labels)
        hits = pred_labels & gold_labels
        tp.update(hits)
        fp.update(pred_labels - gold_labels)
        fn.update(gold_labels - pred_labels)
        exact += pred_labels == gold_labels
        overlap += bool(hits) or not (pred_labels or gold_labels)
    missing = sorted(seen - predicted.keys())
    extra = sorted(predicted.keys() - seen)
    if missing or extra:
        raise UnitMismatch(f"predictions missing units {missing[:5]} / extra units {extra[:5]}")
    # Every label seen is counted in at least one of the three; a label's true
    # negatives are the units left over.
    n = len(seen)
    counts = {
        label: LabelCounts(
            tp[label], fp[label], fn[label], n - tp[label] - fp[label] - fn[label]
        )
        for label in sorted(tp.keys() | fp.keys() | fn.keys())
    }
    return ConfusionCounts(counts, n, exact, overlap)


@dataclass(frozen=True)
class MetricValues:
    precision: float
    recall: float
    f1: float
    accuracy: float

    def __post_init__(self):
        if not all(type(v) in (int, float) for v in astuple(self)):
            raise TypeError(f"metric values must be numbers, got {self}")


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
            "per_label": {k: asdict(v) for k, v in self.per_label.items()},
            "micro": asdict(self.micro),
            "macro": asdict(self.macro),
            "parse_failure_count": self.parse_failure_count,
        }
        if self.subset_accuracy is not None:
            body["subset_accuracy"] = self.subset_accuracy
        return body

    def __post_init__(self):
        if self.subset_accuracy is not None and type(self.subset_accuracy) not in (int, float):
            raise TypeError(f"subset_accuracy must be a number, got {self.subset_accuracy!r}")

    @classmethod
    def from_dict(cls, body) -> "MetricsReport":
        """The report `to_dict` wrote; a body of any other shape is a ValueError."""
        try:
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
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"not a metrics report: {type(exc).__name__}: {exc}") from exc


def metrics(
    c: ConfusionCounts,
    averaging: str = "macro",
    parse_failure_count: int = 0,
) -> MetricsReport:
    """Per-label plus pooled (micro) and averaged (macro) scores, and the
    subset accuracy: the share of units predicted exactly."""
    if averaging not in ("per_label", "micro", "macro"):
        raise ValueError(f"unknown averaging {averaging!r}")
    per_label = {label: _from_counts(lc) for label, lc in c.per_label.items()}
    # Field by field: micro scores the sum of the labels' counts, macro is their scores' mean.
    pooled = LabelCounts(*map(sum, zip(*map(astuple, c.per_label.values()))))
    columns = zip(*map(astuple, per_label.values()))
    return MetricsReport(
        per_label=per_label,
        micro=_from_counts(pooled),
        macro=MetricValues(*(sum(column) / len(column) for column in columns))
        if per_label else MetricValues(0.0, 0.0, 0.0, 0.0),
        averaging=averaging,
        subset_accuracy=c.share(c.exact),
        parse_failure_count=parse_failure_count,
    )


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


@dataclass(frozen=True)
class RunAggregate:
    per_metric: Mapping[str, BoxStats]
    runs: int

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "per_metric": {k: asdict(v) for k, v in self.per_metric.items()},
        }


def _box_stats(values: Sequence[float]) -> BoxStats:
    import statistics  # imported here: only `eval --runs-dir` aggregates
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
