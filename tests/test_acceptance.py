"""Acceptance gate: six standalone criteria plus two data-gated reproductions.

Each criterion prints exactly one ``acceptance <n> <name>: PASS|FAIL``
line (run pytest with ``-s`` to see them). Criteria 1-6 need no
external data. Criteria 7 and 8 replay the public 2015 challenge
training set and only run when CHALLENGE_DATA_DIR points at a
directory with converted records and a manifest.csv; criterion 8
additionally uses VBANK_DIR for a curated ventricular bank when
available.
"""
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from alarmsentinel.alarm_logic import classify_alarm
from alarmsentinel.beat_banks import kl_divergence, smooth_distribution
from alarmsentinel.dtw import corpus_from_records, dtw_distance
from alarmsentinel.errors import AlarmSentinelError
from alarmsentinel.evaluation import (
    ConfusionCounts,
    challenge_score,
    metric_suite,
    per_arrhythmia_report,
    train_test_split,
)
from alarmsentinel.record_io import Arrhythmia, load_manifest, load_record
from alarmsentinel.signal_quality import clean_window_metrics
from alarmsentinel.synthkit import generate, suite_specs

DATA_ENV = "CHALLENGE_DATA_DIR"
VBANK_ENV = "VBANK_DIR"

needs_dataset = pytest.mark.skipif(
    DATA_ENV not in os.environ,
    reason=f"set {DATA_ENV} to a directory with converted challenge records and manifest.csv",
)


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"acceptance {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _dp_reference(a: np.ndarray, b: np.ndarray, radius: int) -> float:
    """Independent full-matrix banded DP, squared costs, sqrt at the end."""
    n, m = len(a), len(b)
    r = min(radius, max(n, m))
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(max(1, i - r), min(m, i + r) + 1):
            cost = (a[i - 1] - b[j - 1]) ** 2
            acc[i, j] = cost + min(acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1])
    return math.sqrt(acc[n, m])


def test_acceptance_1_dtw_oracle_equivalence():
    rng = np.random.default_rng(20151)
    started = time.perf_counter()
    ok = True
    for k in range(1000):
        mode = k % 3
        if mode == 0:
            n = m = int(rng.integers(1, 33))
            radius = 0
        elif mode == 1:
            n = int(rng.integers(1, 33))
            m = int(rng.integers(max(1, n - 4), min(32, n + 4) + 1))
            radius = 4
        else:
            n, m = (int(v) for v in rng.integers(1, 33, size=2))
            radius = max(n, m)
        a = rng.uniform(-1.0, 1.0, n)
        b = rng.uniform(-1.0, 1.0, m)
        got = dtw_distance(a, b, radius)
        ok = ok and abs(got - _dp_reference(a, b, radius)) <= 1e-9
    elapsed = time.perf_counter() - started
    _verdict(1, "dtw-oracle-equivalence", ok and elapsed < 60.0)


def test_acceptance_2_dtw_metric_properties():
    rng = np.random.default_rng(20152)
    ok = True
    for k in range(500):
        n = int(rng.integers(2, 33))
        m = n if k % 2 == 0 else int(rng.integers(2, 33))
        a = rng.uniform(-1.0, 1.0, n)
        b = rng.uniform(-1.0, 1.0, m)
        wide = max(n, m)
        d_ab = dtw_distance(a, b, wide)
        ok = ok and d_ab >= 0.0
        ok = ok and d_ab == dtw_distance(b, a, wide)
        ok = ok and dtw_distance(a, a, 0) == 0.0
        radii = sorted({abs(n - m), abs(n - m) + 2, max(n, m)})
        distances = [dtw_distance(a, b, r) for r in radii]
        ok = ok and all(
            later <= earlier + 1e-12 for earlier, later in zip(distances, distances[1:])
        )
        if n == m:
            ok = ok and abs(dtw_distance(a, b, 0) - float(np.linalg.norm(a - b))) <= 1e-12
    _verdict(2, "dtw-metric-properties", ok)


def test_acceptance_3_metric_arithmetic_oracle():
    rng = np.random.default_rng(20153)
    ok = challenge_score(ConfusionCounts(1, 1, 1, 1)) == 0.25
    ok = ok and challenge_score(ConfusionCounts(0, 0, 0, 1)) == 0.0
    checked = 0
    while checked < 100:
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 40, size=4))
        if tp + tn + fp + fn == 0:
            continue
        checked += 1
        counts = ConfusionCounts(tp, tn, fp, fn)
        row = metric_suite(counts)
        ok = ok and row.challenge_score == (tp + tn) / (tp + tn + fp + 5 * fn)
        ok = ok and row.sensitivity == (tp / (tp + fn) if tp + fn else None)
        ok = ok and row.specificity == (tn / (tn + fp) if tn + fp else None)
        ok = ok and row.ppv == (tp / (tp + fp) if tp + fp else None)
        ok = ok and row.npv == (tn / (tn + fn) if tn + fn else None)
        sens = tp / (tp + fn) if tp + fn else None
        ppv = tp / (tp + fp) if tp + fp else None
        if sens is None or ppv is None or (ppv + sens) == 0:
            ok = ok and row.f1 is None
        else:
            ok = ok and row.f1 == 2.0 * ppv * sens / (ppv + sens)
    _verdict(3, "metric-arithmetic-oracle", ok)


def test_acceptance_4_clean_signal_metrics():
    fs = 125.0
    t = np.arange(1250) / fs
    noise = np.random.default_rng(20154).normal(0.0, 1.0, 1250)
    ok = abs(clean_window_metrics(noise, fs).kurtosis - 3.0) <= 0.2
    sine = np.sin(2 * np.pi * 5.0 * t)
    ok = ok and abs(clean_window_metrics(sine, fs).kurtosis - 1.5) <= 0.05
    wander = np.sin(2 * np.pi * 0.5 * t)
    ok = ok and clean_window_metrics(wander, fs).baseline_wander <= 0.05
    mid = np.sin(2 * np.pi * 10.0 * t)
    ok = ok and clean_window_metrics(mid, fs).power_ratio >= 0.95
    _verdict(4, "clean-signal-metrics", ok)


def test_acceptance_5_synthetic_end_to_end():
    started = time.perf_counter()
    counts = ConfusionCounts()
    for spec in suite_specs(seed=7, per_class=10):
        record, truth = generate(spec)
        verdict = classify_alarm(record, "improved")
        counts.add(verdict.is_true_alarm, truth.expected_true)
    elapsed = time.perf_counter() - started
    row = metric_suite(counts)
    ok = row.sensitivity == 1.0 and row.specificity is not None and row.specificity >= 0.8
    _verdict(5, "synthetic-end-to-end", ok and elapsed < 30.0)


def test_acceptance_6_kl_properties():
    rng = np.random.default_rng(20156)
    ok = abs(kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) - math.log(2.0)) <= 1e-12
    for _ in range(1000):
        bins = int(rng.integers(2, 16))
        p = smooth_distribution(rng.random(bins))
        q = smooth_distribution(rng.random(bins))
        ok = ok and kl_divergence(p, p) == 0.0
        ok = ok and kl_divergence(p, q) >= 0.0
    _verdict(6, "kl-properties", ok)


# Reference operating points for the improved method on the public
# challenge training set. PPV/NPV follow the standard definitions
# (positive class = true alarm); the reference table publishes them in
# swapped positions, and three of its F1 cells repeat the challenge
# score instead, so only the self-consistent F1 cells are pinned.
EXPECTED_OVERALL = {"sensitivity": (0.908, 0.03), "specificity": (0.838, 0.05), "challenge_score": (0.756, 0.05)}
EXPECTED_PER_CLASS = {
    Arrhythmia.ASYSTOLE: {
        "sensitivity": 1.0, "specificity": 0.93, "challenge_score": 0.943,
        "ppv": 0.759, "npv": 1.0, "f1": 0.863,
    },
    Arrhythmia.BRADYCARDIA: {
        "sensitivity": 0.826, "specificity": 0.953, "challenge_score": 0.653,
        "ppv": 0.95, "npv": 0.837,
    },
    Arrhythmia.TACHYCARDIA: {
        "sensitivity": 0.985, "specificity": 0.778, "challenge_score": 0.919,
        "ppv": 0.985, "npv": 0.778,
    },
    Arrhythmia.VTACH: {
        "sensitivity": 0.820, "specificity": 0.786, "challenge_score": 0.669,
        "ppv": 0.575, "npv": 0.925, "f1": 0.676,
    },
    Arrhythmia.VFIB: {
        "sensitivity": 1.0, "specificity": 0.904, "challenge_score": 0.914,
        "ppv": 0.545, "npv": 1.0,
    },
}


def _dataset_manifest():
    root = Path(os.environ[DATA_ENV])
    manifest_path = root / "manifest.csv"
    if not manifest_path.exists():
        pytest.skip(f"{manifest_path} not found")
    return load_manifest(manifest_path)


def _classify_many(entries, method, **kwargs):
    def one(entry):
        try:
            record = load_record(entry.record)
            verdict = classify_alarm(record, method, **kwargs)
        except AlarmSentinelError:
            return entry.arrhythmia, True, entry.truth  # unevaluable keeps the alarm
        return entry.arrhythmia, verdict.is_true_alarm, entry.truth

    with ThreadPoolExecutor(max_workers=min(8, os.cpu_count() or 1)) as pool:
        return list(pool.map(one, entries))


@needs_dataset
def test_acceptance_7_dataset_reproduction():
    manifest = _dataset_manifest()
    entries = [e for e in manifest if e.truth is not None]
    started = time.perf_counter()
    triples = _classify_many(entries, "improved")
    elapsed = time.perf_counter() - started
    report = per_arrhythmia_report(triples)

    ok = elapsed < 15 * 60 * max(1.0, len(entries) / 750.0)
    for key, (target, tolerance) in EXPECTED_OVERALL.items():
        value = getattr(report.overall, key)
        ok = ok and value is not None and abs(value - target) <= tolerance
    for arrhythmia, cells in EXPECTED_PER_CLASS.items():
        row = report.per_arrhythmia.get(arrhythmia)
        if row is None:
            ok = False
            continue
        for key, target in cells.items():
            value = getattr(row, key)
            ok = ok and value is not None and abs(value - target) <= 0.05
    _verdict(7, "dataset-reproduction", ok)


@needs_dataset
def test_acceptance_8_dataset_vt_dtw_ordering():
    manifest = _dataset_manifest()
    entries = [e for e in manifest if e.truth is not None]
    train, test = train_test_split(entries, seed=2015)
    train_vt = [e for e in train if e.arrhythmia is Arrhythmia.VTACH]
    test_vt = [e for e in test if e.arrhythmia is Arrhythmia.VTACH]
    if not train_vt or not test_vt:
        pytest.skip("no ventricular tachycardia rows in the split")

    corpus = corpus_from_records(
        [(load_record(e.record), e.truth) for e in train_vt], skip_errors=True
    )
    soft_targets = {"dtw-vbank": 0.518, "dtw-full": 0.515, "dtw-self-min": 0.422, "dtw-self-kl": 0.390}
    methods = ["dtw-full", "dtw-self-min", "dtw-self-kl"]
    kwargs: dict = {"dtw-full": {"corpus": corpus}, "dtw-self-min": {}, "dtw-self-kl": {}}
    if VBANK_ENV in os.environ:
        from alarmsentinel.beat_banks import load_bank_dir

        kwargs["dtw-vbank"] = {"banks": load_bank_dir(os.environ[VBANK_ENV])}
        methods.insert(0, "dtw-vbank")

    scores = {}
    for method in methods:
        triples = _classify_many(test_vt, method, **kwargs[method])
        counts = ConfusionCounts()
        for _, prediction, truth in triples:
            counts.add(prediction, truth)
        scores[method] = challenge_score(counts)
        delta = scores[method] - soft_targets[method]
        print(f"  {method}: score={scores[method]:.3f} (soft target {soft_targets[method]:.3f}, delta {delta:+.3f})")

    ranked = [m for m in ("dtw-vbank", "dtw-full", "dtw-self-min", "dtw-self-kl") if m in scores]
    ok = all(scores[a] >= scores[b] for a, b in zip(ranked, ranked[1:]))
    _verdict(8, "dataset-vt-dtw-ordering", ok)
