import pytest

from alarmsentinel.errors import EmptyCounts
from alarmsentinel.evaluation import (
    ConfusionCounts,
    challenge_score,
    metric_suite,
    per_arrhythmia_report,
    train_test_split,
)
from alarmsentinel.record_io import Arrhythmia


class TestConfusionCounts:
    def test_add_routes_to_the_right_cell(self):
        c = ConfusionCounts()
        c.add(True, True)
        c.add(False, True)
        c.add(True, False)
        c.add(False, False)
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)
        assert c.total == 4


class TestChallengeScore:
    def test_balanced_spot_value(self):
        assert challenge_score(ConfusionCounts(1, 1, 1, 1)) == 0.25

    def test_single_missed_alarm_scores_zero(self):
        assert challenge_score(ConfusionCounts(0, 0, 0, 1)) == 0.0

    def test_misses_cost_five_false_positives(self):
        with_fn = challenge_score(ConfusionCounts(tp=10, tn=10, fp=0, fn=1))
        with_fp = challenge_score(ConfusionCounts(tp=10, tn=10, fp=5, fn=0))
        assert with_fn == with_fp

    def test_empty_counts(self):
        with pytest.raises(EmptyCounts):
            challenge_score(ConfusionCounts())


class TestMetricSuite:
    def test_known_table(self):
        row = metric_suite(ConfusionCounts(tp=8, tn=6, fp=2, fn=4))
        assert row.sensitivity == pytest.approx(8 / 12)
        assert row.specificity == pytest.approx(6 / 8)
        assert row.ppv == pytest.approx(8 / 10)
        assert row.npv == pytest.approx(6 / 10)
        assert row.f1 == pytest.approx(2 * 0.8 * (8 / 12) / (0.8 + 8 / 12))
        assert row.challenge_score == pytest.approx(14 / 36)

    def test_zero_denominators_are_none(self):
        row = metric_suite(ConfusionCounts(tp=0, tn=5, fp=0, fn=0))
        assert row.sensitivity is None
        assert row.ppv is None
        assert row.f1 is None
        assert row.specificity == 1.0
        assert row.npv == 1.0

    def test_f1_undefined_when_both_rates_zero(self):
        row = metric_suite(ConfusionCounts(tp=0, tn=0, fp=1, fn=1))
        assert row.sensitivity == 0.0
        assert row.ppv == 0.0
        assert row.f1 is None

    def test_empty_counts(self):
        with pytest.raises(EmptyCounts):
            metric_suite(ConfusionCounts())

    def test_serialization(self):
        d = metric_suite(ConfusionCounts(1, 1, 1, 1)).to_dict()
        assert d["challenge_score"] == 0.25
        assert d["counts"] == {"tp": 1, "tn": 1, "fp": 1, "fn": 1}
        # the report JSON keeps this key order
        assert list(d) == ["sensitivity", "specificity", "ppv", "npv", "f1", "challenge_score", "counts"]
        assert list(d["counts"]) == ["tp", "tn", "fp", "fn"]


class TestPerArrhythmiaReport:
    def test_overall_pools_counts_not_metrics(self):
        results = [
            (Arrhythmia.ASYSTOLE, True, True),
            (Arrhythmia.ASYSTOLE, False, False),
            (Arrhythmia.VTACH, True, False),
            (Arrhythmia.VTACH, False, True),
        ]
        report = per_arrhythmia_report(results)
        assert set(report.per_arrhythmia) == {Arrhythmia.ASYSTOLE, Arrhythmia.VTACH}
        assert report.per_arrhythmia[Arrhythmia.ASYSTOLE].challenge_score == 1.0
        assert report.per_arrhythmia[Arrhythmia.VTACH].challenge_score == 0.0
        overall = report.overall.counts
        assert (overall.tp, overall.tn, overall.fp, overall.fn) == (1, 1, 1, 1)
        assert report.overall.challenge_score == 0.25

    def test_serialization_keys_by_name(self):
        report = per_arrhythmia_report([(Arrhythmia.VFIB, True, True)])
        d = report.to_dict()
        assert set(d) == {"overall", "per_arrhythmia"}
        assert list(d["per_arrhythmia"]) == [Arrhythmia.VFIB.value]


class TestTrainTestSplit:
    def test_two_to_one_sizes(self):
        train, test = train_test_split(list(range(750)))
        assert len(train) == 500
        assert len(test) == 250

    def test_deterministic_for_a_seed(self):
        items = [f"r{i}" for i in range(50)]
        assert train_test_split(items, seed=2015) == train_test_split(items, seed=2015)
        assert train_test_split(items, seed=2015) != train_test_split(items, seed=2016)

    def test_partition_preserves_order_and_members(self):
        items = list(range(100))
        train, test = train_test_split(items, seed=9)
        assert train == sorted(train)
        assert test == sorted(test)
        assert sorted(train + test) == items
        assert not set(train) & set(test)
