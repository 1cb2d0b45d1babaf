"""Metrics against brute-force oracles, run aggregation, granularity deltas."""

from __future__ import annotations

import random
import statistics as stats
from fractions import Fraction

import pytest

from regcheck.errors import UnitMismatch
from regcheck.evaluation import (
    GoldRecord,
    MetricValues,
    aggregate_runs,
    confusion,
    metrics,
)


def gold(pairs):
    return [GoldRecord(u, frozenset(ls)) for u, ls in pairs]


# Independent oracle: explicit per-(unit, label) enumeration with exact fractions.
def brute_force(predicted, gold_records, labels):
    out = {}
    for label in labels:
        tp = fp = fn = tn = 0
        for record in gold_records:
            p = label in predicted[record.unit_ref]
            g = label in record.gold_labels
            if p and g:
                tp += 1
            if p and not g:
                fp += 1
            if not p and g:
                fn += 1
            if not p and not g:
                tn += 1
        precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else Fraction(0)
        )
        accuracy = Fraction(tp + tn, len(gold_records))
        out[label] = (tp, fp, fn, tn, precision, recall, f1, accuracy)
    return out


def brute_force_matches(predicted, gold_records, labels):
    """The units, and those whose prediction agrees with gold on every label or
    shares a label with it (or neither side has one), label by label."""
    exact = overlap = 0
    for record in gold_records:
        sides = [(label in predicted[record.unit_ref], label in record.gold_labels) for label in labels]
        exact += all(p == g for p, g in sides)
        overlap += any(p and g for p, g in sides) or not any(p or g for p, g in sides)
    return len(gold_records), exact, overlap


def random_instance(rng, n_units=None, n_labels=None):
    n_units = n_units or rng.randint(1, 20)
    n_labels = n_labels or rng.randint(1, 5)
    labels = [f"L{i}" for i in range(n_labels)]
    gold_records = []
    predicted = {}
    for u in range(n_units):
        ref = f"u{u}"
        gold_records.append(
            GoldRecord(ref, frozenset(l for l in labels if rng.random() < 0.4))
        )
        predicted[ref] = frozenset(l for l in labels if rng.random() < 0.4)
    return predicted, gold_records, labels


class TestConfusion:
    def test_perfect_prediction(self):
        g = gold([("u1", {"A"}), ("u2", {"A"}), ("u3", {"A"})])
        c = confusion({r.unit_ref: r.gold_labels for r in g}, g)
        assert c.per_label["A"].tp == 3
        assert c.per_label["A"].fp == 0
        assert c.per_label["A"].fn == 0

    def test_empty_predictions(self):
        g = gold([("u1", {"A"}), ("u2", {"A"}), ("u3", set())])
        c = confusion({"u1": set(), "u2": set(), "u3": set()}, g)
        assert c.per_label["A"].fn == 2
        assert c.per_label["A"].tn == 1

    def test_unit_mismatch(self):
        g = gold([("u1", {"A"})])
        with pytest.raises(UnitMismatch):
            confusion({"u2": set()}, g)
        # The message names the first five missing and extra refs, sorted.
        g = gold([(f"g{i}", set()) for i in (9, 3, 7, 1, 5, 2, 8)] + [("both", {"A"})])
        predicted = {"both": {"A"}, **{f"p{i}": set() for i in (6, 4, 2, 9, 1, 3)}}
        with pytest.raises(UnitMismatch) as err:
            confusion(predicted, iter(g))
        assert str(err.value) == (
            "predictions missing units ['g1', 'g2', 'g3', 'g5', 'g7'] / "
            "extra units ['p1', 'p2', 'p3', 'p4', 'p6']"
        )

    def test_counts_sum_to_unit_count(self):
        rng = random.Random(5)
        for _ in range(50):
            predicted, g, _ = random_instance(rng)
            c = confusion(predicted, g)
            for counts in c.per_label.values():
                assert counts.total == len(g)

    def test_matches_brute_force(self):
        rng = random.Random(17)
        instances = [random_instance(rng, n_units=20, n_labels=5)]
        instances += [random_instance(rng) for _ in range(100)]
        for predicted, g, labels in instances:
            c = confusion(predicted, iter(g))  # a one-shot iterator: gold is read once
            oracle = brute_force(predicted, g, labels)
            # The universe is the labels seen: those with a prediction or a gold label.
            seen = [label for label in labels if oracle[label][:3] != (0, 0, 0)]
            assert list(c.per_label) == seen
            for label in seen:
                tp, fp, fn, tn, *_ = oracle[label]
                lc = c.per_label[label]
                assert (lc.tp, lc.fp, lc.fn, lc.tn) == (tp, fp, fn, tn)
            assert (c.units, c.exact, c.overlap) == brute_force_matches(predicted, g, labels)


def _ref_confusion(predicted, gold_records):
    """The earlier label-by-unit `confusion` loop, kept as a reference."""
    gold_by_unit = {g.unit_ref: g.gold_labels for g in gold_records}
    pred_by_unit = {u: frozenset(ls) for u, ls in predicted.items()}
    universe = set()
    for ls in gold_by_unit.values():
        universe |= ls
    for ls in pred_by_unit.values():
        universe |= ls
    counts = {}
    for label in sorted(universe):
        tp = fp = fn = tn = 0
        for unit, gold_labels in gold_by_unit.items():
            in_pred = label in pred_by_unit[unit]
            in_gold = label in gold_labels
            if in_pred and in_gold:
                tp += 1
            elif in_pred:
                fp += 1
            elif in_gold:
                fn += 1
            else:
                tn += 1
        counts[label] = (tp, fp, fn, tn)
    return counts, len(gold_by_unit)


class TestConfusionAgainstReference:
    @staticmethod
    def _assert_same(predicted, g):
        c = confusion(predicted, g)
        got = {k: (v.tp, v.fp, v.fn, v.tn) for k, v in c.per_label.items()}
        want, n_units = _ref_confusion(predicted, g)
        assert got == want
        assert list(c.per_label) == list(want)
        assert all(v.total == n_units for v in c.per_label.values())

    def test_random_maps(self):
        rng = random.Random(53)
        for _ in range(300):
            predicted, g, _ = random_instance(rng)
            self._assert_same(predicted, g)

    def test_empty_label_sets(self):
        g = gold([("u1", set()), ("u2", set())])
        predicted = {"u1": frozenset(), "u2": []}
        self._assert_same(predicted, g)
        self._assert_same({}, [])


class TestMetrics:
    def test_hand_arithmetic(self):
        # TP=3, FP=1, FN=2 over six units carrying one label.
        g = gold(
            [
                ("u1", {"A"}),
                ("u2", {"A"}),
                ("u3", {"A"}),
                ("u4", set()),
                ("u5", {"A"}),
                ("u6", {"A"}),
            ]
        )
        predicted = {
            "u1": {"A"},
            "u2": {"A"},
            "u3": {"A"},
            "u4": {"A"},
            "u5": set(),
            "u6": set(),
        }
        report = metrics(confusion(predicted, g))
        values = report.per_label["A"]
        assert values.precision == pytest.approx(0.75, abs=1e-9)
        assert values.recall == pytest.approx(0.6, abs=1e-9)
        assert values.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35, abs=1e-9)

    def test_zero_denominator_convention(self):
        # A is never predicted (precision 0/0) and B is never true (recall 0/0).
        g = gold([("u1", {"A"}), ("u2", set())])
        report = metrics(confusion({"u1": set(), "u2": {"B"}}, g))
        for label in ("A", "B"):
            values = report.per_label[label]
            assert (values.precision, values.recall, values.f1) == (0.0, 0.0, 0.0)
            assert values.accuracy == 0.5
        # No label at all: every pooled and averaged score is 0.
        empty = metrics(confusion({"u1": set()}, gold([("u1", set())])))
        assert empty.per_label == {}
        assert empty.micro == empty.macro == MetricValues(0.0, 0.0, 0.0, 0.0)

    def test_perfect_predictions(self):
        g = gold([("u1", {"A", "B"}), ("u2", {"B"})])
        report = metrics(confusion({r.unit_ref: r.gold_labels for r in g}, g))
        for scope in (report.micro, report.macro):
            assert scope.precision == scope.recall == scope.f1 == scope.accuracy == 1.0

    def test_micro_is_pooled_not_averaged(self):
        # Craft an instance where the mean of per-label F1s differs from pooled F1.
        g = gold([("u1", {"A"}), ("u2", {"B"}), ("u3", {"B"}), ("u4", {"B"})])
        predicted = {"u1": {"A"}, "u2": {"B"}, "u3": set(), "u4": set()}
        report = metrics(confusion(predicted, g))
        pooled_tp, pooled_fp, pooled_fn = 2, 0, 2
        micro_p = pooled_tp / (pooled_tp + pooled_fp)
        micro_r = pooled_tp / (pooled_tp + pooled_fn)
        expected = 2 * micro_p * micro_r / (micro_p + micro_r)
        assert report.micro.f1 == pytest.approx(expected, abs=1e-12)
        mean_of_f1 = (report.per_label["A"].f1 + report.per_label["B"].f1) / 2
        assert abs(report.micro.f1 - mean_of_f1) > 0.05

    def test_bounded_in_unit_interval(self):
        rng = random.Random(29)
        for _ in range(100):
            predicted, g, _ = random_instance(rng)
            report = metrics(confusion(predicted, g))
            for values in [report.micro, report.macro, *report.per_label.values()]:
                for v in (values.precision, values.recall, values.f1, values.accuracy):
                    assert 0.0 <= v <= 1.0

    def test_unknown_averaging(self):
        g = gold([("u1", {"A"})])
        with pytest.raises(ValueError):
            metrics(confusion({"u1": {"A"}}, g), averaging="harmonic")


class TestSubsetAndMatch:
    def test_subset_accuracy(self):
        g = gold([("u1", {"A", "B"}), ("u2", {"A"}), ("u3", set())])
        predicted = {"u1": {"A", "B"}, "u2": {"A", "B"}, "u3": set()}
        c = confusion(predicted, g)
        assert c.share(c.exact) == pytest.approx(2 / 3)
        assert metrics(c).subset_accuracy == pytest.approx(2 / 3)

    @pytest.mark.parametrize(
        ("pred", "g", "exact", "overlap"),
        [
            ({"R5"}, {"R5"}, True, True),
            ({"R5", "R7"}, {"R5"}, False, True),
            (set(), set(), True, True),
            (set(), {"R5"}, False, False),
            ({"R7"}, {"R5"}, False, False),
        ],
    )
    def test_match_mode_table(self, pred, g, exact, overlap):
        c = confusion({"u1": pred}, gold([("u1", g)]))
        assert (c.units, c.exact, c.overlap) == (1, exact, overlap)

    def test_match_mode_random_against_set_algebra(self):
        rng = random.Random(41)
        universe = ["R1", "R2", "R3", "R4"]
        for _ in range(200):
            p = frozenset(x for x in universe if rng.random() < 0.5)
            g = frozenset(x for x in universe if rng.random() < 0.5)
            c = confusion({"u1": p}, gold([("u1", g)]))
            assert c.exact == (p == g)
            assert c.overlap == (bool(p & g) or (not p and not g))

    def test_match_accuracy(self):
        g = gold([("u1", {"R5"}), ("u2", set())])
        predicted = {"u1": {"R5", "R7"}, "u2": set()}
        c = confusion(predicted, g)
        assert c.share(c.overlap) == 1.0
        assert c.share(c.exact) == 0.5


class TestAggregateRuns:
    def _report(self, value):
        g = gold([("u1", {"A"})])
        report = metrics(confusion({"u1": {"A"}}, g))
        # Overwrite one series with a chosen value to drive the aggregate.
        report.subset_accuracy = value
        return report

    def test_single_run_degenerate(self):
        agg = aggregate_runs([self._report(0.8)])
        box = agg.per_metric["subset_accuracy"]
        assert box.mean == box.median == box.q1 == box.q3 == 0.8
        assert box.whisker_low == box.whisker_high == 0.8

    def test_two_runs_mean(self):
        agg = aggregate_runs([self._report(0.8), self._report(0.9)])
        assert agg.per_metric["subset_accuracy"].mean == pytest.approx(0.85)

    def test_seven_runs_quartile_oracle(self):
        values = [0.62, 0.71, 0.64, 0.90, 0.75, 0.68, 0.80]
        agg = aggregate_runs([self._report(v) for v in values])
        box = agg.per_metric["subset_accuracy"]
        # Hand oracle: sorted = [.62,.64,.68,.71,.75,.80,.90]; linear interpolation
        # between closest ranks puts Q1/median/Q3 at positions 1.5, 3, 4.5.
        assert box.median == pytest.approx(0.71, abs=1e-12)
        assert box.q1 == pytest.approx((0.64 + 0.68) / 2, abs=1e-12)
        assert box.q3 == pytest.approx((0.75 + 0.80) / 2, abs=1e-12)
        assert box.min == 0.62
        assert box.max == 0.90
        assert box.mean == pytest.approx(stats.fmean(values), abs=1e-12)
        # IQR fences keep every point here, so whiskers hit min/max.
        assert box.whisker_low == 0.62
        assert box.whisker_high == 0.90

    def test_whiskers_exclude_outliers(self):
        values = [0.70, 0.71, 0.72, 0.73, 0.74, 0.75, 0.76, 0.05]
        agg = aggregate_runs([self._report(v) for v in values])
        box = agg.per_metric["subset_accuracy"]
        assert box.min == 0.05
        assert box.whisker_low == 0.70  # 0.05 sits beyond the 1.5 x IQR fence

    def test_permutation_invariant(self):
        rng = random.Random(31)
        values = [rng.random() for _ in range(9)]
        reports = [self._report(v) for v in values]
        base = aggregate_runs(reports)
        for _ in range(10):
            shuffled = reports[:]
            rng.shuffle(shuffled)
            other = aggregate_runs(shuffled)
            assert other.per_metric["subset_accuracy"] == base.per_metric["subset_accuracy"]

    def test_requires_at_least_one(self):
        with pytest.raises(ValueError):
            aggregate_runs([])
