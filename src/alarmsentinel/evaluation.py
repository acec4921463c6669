"""Confusion accounting and the metric suite, overall and per class.

The positive class is the true alarm: suppressing one is a false
negative, which the challenge score punishes five times as hard as a
false positive. Metrics with empty denominators are reported as
undefined (None), never coerced to 0 or 1.
"""
from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence, TypeVar

from .errors import EmptyCounts
from .record_io import Arrhythmia

T = TypeVar("T")
TRAIN_FRACTION = 2 / 3


@dataclass
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def add(self, prediction: bool, truth: bool) -> None:
        if truth:
            if prediction:
                self.tp += 1
            else:
                self.fn += 1
        else:
            if prediction:
                self.fp += 1
            else:
                self.tn += 1


def challenge_score(counts: ConfusionCounts) -> float:
    """(TP + TN) / (TP + TN + FP + 5 FN)."""
    if counts.total == 0:
        raise EmptyCounts("challenge score of an empty confusion table")
    return (counts.tp + counts.tn) / (counts.tp + counts.tn + counts.fp + 5 * counts.fn)


@dataclass
class MetricsRow:
    sensitivity: float | None
    specificity: float | None
    ppv: float | None
    npv: float | None
    f1: float | None
    challenge_score: float
    counts: ConfusionCounts

    def to_dict(self) -> dict:
        return asdict(self)


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def metric_suite(counts: ConfusionCounts) -> MetricsRow:
    """Sensitivity, specificity, PPV, NPV, F1, and the challenge score.

    Any metric whose denominator is zero comes back None.
    """
    if counts.total == 0:
        raise EmptyCounts("metrics of an empty confusion table")
    sens = _ratio(counts.tp, counts.tp + counts.fn)
    spec = _ratio(counts.tn, counts.tn + counts.fp)
    ppv = _ratio(counts.tp, counts.tp + counts.fp)
    npv = _ratio(counts.tn, counts.tn + counts.fn)
    if sens is None or ppv is None or (ppv + sens) == 0:
        f1 = None
    else:
        f1 = 2.0 * ppv * sens / (ppv + sens)
    return MetricsRow(sens, spec, ppv, npv, f1, challenge_score(counts), counts)


@dataclass
class MetricsReport:
    overall: MetricsRow
    per_arrhythmia: dict[Arrhythmia, MetricsRow] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall.to_dict(),
            "per_arrhythmia": {a.value: row.to_dict() for a, row in self.per_arrhythmia.items()},
        }


def per_arrhythmia_report(results: Iterable[tuple[Arrhythmia, bool, bool]]) -> MetricsReport:
    """Pool (arrhythmia, prediction, truth) triples into one report.

    Overall counts are the sums of the per-class counts, never an
    average of per-class metrics.
    """
    per_class: dict[Arrhythmia, ConfusionCounts] = {}
    overall = ConfusionCounts()
    for arrhythmia, prediction, truth in results:
        per_class.setdefault(arrhythmia, ConfusionCounts()).add(bool(prediction), bool(truth))
        overall.add(bool(prediction), bool(truth))
    rows = {a: metric_suite(c) for a, c in per_class.items()}
    return MetricsReport(overall=metric_suite(overall), per_arrhythmia=rows)


def train_test_split(items: Sequence[T], seed: int = 2015) -> tuple[list[T], list[T]]:
    """Seeded random split, :data:`TRAIN_FRACTION` of the items to
    training; both halves keep the original order."""
    indices = list(range(len(items)))
    random.Random(seed).shuffle(indices)
    n_train = int(round(len(items) * TRAIN_FRACTION))
    train_idx = sorted(indices[:n_train])
    test_idx = sorted(indices[n_train:])
    return [items[i] for i in train_idx], [items[i] for i in test_idx]
