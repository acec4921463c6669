import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alarmsentinel import dtw
from alarmsentinel.dtw import (
    FULL_SIGNAL_RADIUS,
    SWEEP_SLOTS,
    CorpusEntry,
    TrainingCorpus,
    _dtw_core,
    classify_full_signal,
    corpus_from_records,
    dtw_distance,
    dtw_distances,
    extract_alarm_lead,
    load_corpus_cache,
    save_corpus_cache,
    znormalize,
)
from alarmsentinel.errors import (
    BandInfeasible,
    EmptyCorpus,
    EmptySequence,
    InsufficientData,
    IoFailure,
    UnsupportedRate,
    ZeroVariance,
)
from alarmsentinel.record_io import AlarmMeta, Arrhythmia, ChannelKind, ChannelMeta, Record


def dtw_oracle(a, b, radius):
    """Reference banded DTW: full matrix, no pruning tricks."""
    n, m = len(a), len(b)
    D = np.full((n, m), np.inf)
    for i in range(n):
        for j in range(max(0, i - radius), min(m, i + radius + 1)):
            cost = (a[i] - b[j]) ** 2
            if i == 0 and j == 0:
                D[i, j] = cost
            else:
                prev = min(
                    D[i - 1, j] if i > 0 else np.inf,
                    D[i, j - 1] if j > 0 else np.inf,
                    D[i - 1, j - 1] if i > 0 and j > 0 else np.inf,
                )
                D[i, j] = cost + prev
    return math.sqrt(D[n - 1, m - 1])


class TestDtwDistance:
    def test_trivial_pairs(self):
        p = 10
        assert dtw_distance(np.array([1.0, 2.0]), np.array([1.0, 2.0]), p) == 0.0
        assert dtw_distance(np.array([0.0]), np.array([3.0]), p) == 3.0

    def test_warping_beats_euclidean(self):
        a = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0, 0.0, 0.0])  # same bump, shifted
        assert dtw_distance(a, b, 0) > dtw_distance(a, b, 2)
        assert dtw_distance(a, b, 2) == 0.0

    def test_radius_zero_is_euclidean(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(1, 40)
            a, b = rng.normal(size=n), rng.normal(size=n)
            assert dtw_distance(a, b, 0) == pytest.approx(
                float(np.linalg.norm(a - b)), abs=1e-12
            )

    def test_matches_oracle(self):
        # same float operations as the oracle, so the distances are equal, not close
        rng = np.random.default_rng(42)
        pairs = []
        for _ in range(120):  # short: the band often covers the whole matrix
            n, m = int(rng.integers(1, 33)), int(rng.integers(1, 33))
            pairs.append((n, m, max(abs(n - m), int(rng.integers(0, 33)))))
        for _ in range(30):  # long and unequal: the band cuts the matrix
            n, m = int(rng.integers(40, 151)), int(rng.integers(40, 151))
            pairs.append((n, m, abs(n - m) + int(rng.integers(0, 9))))
        for n, m, radius in pairs:
            a = rng.uniform(-1, 1, n)
            b = rng.uniform(-1, 1, m)
            assert dtw_distance(a, b, radius) == dtw_oracle(a, b, radius)

    def test_empty_rejected(self):
        with pytest.raises(EmptySequence):
            dtw_distance(np.array([]), np.array([1.0]), 5)

    def test_band_infeasible(self):
        with pytest.raises(BandInfeasible):
            dtw_distance(np.zeros(10), np.zeros(3), 2)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            dtw_distance(np.zeros(3), np.zeros(3), -1)

    @given(
        st.integers(1, 24),
        st.integers(0, 30),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_nonnegativity(self, n, extra_radius, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 25))
        a = rng.uniform(-1, 1, n)
        b = rng.uniform(-1, 1, m)
        radius = abs(n - m) + extra_radius
        d1 = dtw_distance(a, b, radius)
        d2 = dtw_distance(b, a, radius)
        assert d1 == pytest.approx(d2, abs=1e-9)
        assert d1 >= 0.0
        assert dtw_distance(a, a, radius) == 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_radius_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        a = rng.uniform(-1, 1, n)
        b = rng.uniform(-1, 1, n)
        distances = [dtw_distance(a, b, r) for r in (0, 2, 5, n)]
        for tighter, looser in zip(distances, distances[1:]):
            assert looser <= tighter + 1e-12


class TestDtwDistances:
    def ragged(self, rng, count):
        """Pairs of lengths 1-150 with radii |n - m| to |n - m| + 8, some of them radius 0."""
        a, b, radii = [], [], []
        for k in range(count):
            n = int(rng.integers(1, 151))
            m = n if k % 5 == 0 else int(rng.integers(1, 151))
            a.append(rng.uniform(-1, 1, n))
            b.append(rng.uniform(-1, 1, m))
            radii.append(0 if k % 5 == 0 else abs(n - m) + int(rng.integers(0, 9)))
        return a, b, radii

    def test_ragged_batch_matches_oracle(self):
        rng = np.random.default_rng(7)
        for count in (1, 2, 40):
            a, b, radii = self.ragged(rng, count)
            got = dtw_distances(a, b, radii)
            assert got.shape == (count,)
            assert list(got) == [dtw_oracle(x, y, r) for x, y, r in zip(a, b, radii)]

    def test_single_pair_batches_match_oracle(self):
        rng = np.random.default_rng(8)
        for x, y, r in zip(*self.ragged(rng, 10)):
            assert dtw_distances([x], [y], [r])[0] == dtw_oracle(x, y, r)

    def test_permuted_batch_permutes_the_result(self):
        rng = np.random.default_rng(9)
        a, b, radii = self.ragged(rng, 30)
        order = rng.permutation(30)
        got = dtw_distances([a[k] for k in order], [b[k] for k in order], [radii[k] for k in order])
        assert np.array_equal(got, dtw_distances(a, b, radii)[order])

    def test_one_radius_for_all(self):
        rng = np.random.default_rng(10)
        a = [rng.uniform(-1, 1, 20) for _ in range(4)]
        b = [rng.uniform(-1, 1, 23) for _ in range(4)]
        assert np.array_equal(dtw_distances(a, b, 5), dtw_distances(a, b, [5] * 4))

    def test_empty_batch(self):
        assert dtw_distances([], [], []).shape == (0,)

    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_bad_pair_anywhere_raises(self, position):
        def batch(bad_a, bad_b, bad_radius):
            a, b, radii = [np.ones(5)] * 5, [np.ones(6)] * 5, [3] * 5
            a[position], b[position], radii[position] = bad_a, bad_b, bad_radius
            return a, b, radii

        with pytest.raises(EmptySequence):
            dtw_distances(*batch(np.array([]), np.ones(3), 5))
        with pytest.raises(EmptySequence):
            dtw_distances(*batch(np.ones(3), np.array([]), 5))
        with pytest.raises(BandInfeasible, match="length difference 7 exceeds radius 2"):
            dtw_distances(*batch(np.zeros(10), np.zeros(3), 2))
        with pytest.raises(ValueError, match="non-negative"):
            dtw_distances(*batch(np.zeros(3), np.zeros(3), -1))

    def test_counts_must_match(self):
        with pytest.raises(ValueError):
            dtw_distances([np.ones(3)] * 2, [np.ones(3)], 1)

    def test_concurrent_calls_keep_their_own_buffers(self):
        # library callers may adjudicate on threads, and numpy releases the
        # GIL inside each diagonal's arithmetic, so sweeps interleave; more
        # threads than cores and a short switch interval make that likely
        rng = np.random.default_rng(11)
        batches = [self.ragged(rng, 40) for _ in range(4)]
        expected = [[dtw_oracle(x, y, r) for x, y, r in zip(*batch)] for batch in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(3):
                    futures = [pool.submit(dtw_distances, *batch) for batch in batches]
                    assert [list(f.result(timeout=60)) for f in futures] == expected
        finally:
            sys.setswitchinterval(interval)


def one_sweep(a, b, radii):
    """All pairs in one _dtw_core sweep, padded to the longest pair: what
    dtw_distances computed before it split large batches."""
    n = np.array([len(x) for x in a])
    m = np.array([len(y) for y in b])
    padded_a, padded_b = np.zeros((n.max(), len(a))), np.zeros((m.max(), len(b)))
    for k, (x, y) in enumerate(zip(a, b)):
        padded_a[: len(x), k] = x
        padded_b[: len(y), k] = y
    return np.sqrt(_dtw_core(padded_a, padded_b, n, m, np.broadcast_to(np.asarray(radii), (len(a),))))


class TestSplitSweeps:
    """Batches past SWEEP_SLOTS slots per diagonal buffer are swept in the
    fewest parts under it, each padded to its own longest pair."""

    def batch(self, rng, count, longest):
        """Pairs of mixed lengths up to ``longest`` and mixed radii, one of
        them ``longest`` samples long."""
        a, b, radii = [], [], []
        for k in range(count):
            n = longest if k == count // 2 else int(rng.integers(1, longest + 1))
            m = int(rng.integers(max(1, n - 12), min(longest, n + 12) + 1))
            a.append(rng.uniform(-1, 1, n))
            b.append(rng.uniform(-1, 1, m))
            radii.append(abs(n - m) + int(rng.integers(0, 4)) if k % 3 else 125)
        return a, b, radii

    def sweeps(self, monkeypatch, budget=None):
        """Set an optional smaller budget and spy on _dtw_core; return the
        list the spy fills with the shape of each part swept."""
        if budget is not None:
            monkeypatch.setattr(dtw, "SWEEP_SLOTS", budget)
        parts = []

        def spy(a, b, n, m, radii):
            parts.append(a.shape)
            return _dtw_core(a, b, n, m, radii)

        monkeypatch.setattr(dtw, "_dtw_core", spy)
        return parts

    @pytest.mark.parametrize("budget", [409, 410])
    @pytest.mark.parametrize("count", [1, 9, 10, 11, 19, 20, 21, 47])
    def test_counts_around_the_budget(self, monkeypatch, count, budget):
        # a pair of 40 samples takes 41 slots of a diagonal buffer, so 10
        # pairs fill a 410-slot budget exactly and overflow a 409-slot one
        rng = np.random.default_rng(count)
        a, b, radii = self.batch(rng, count, 40)
        expected = one_sweep(a, b, radii)
        parts = self.sweeps(monkeypatch, budget=budget)
        got = dtw_distances(a, b, radii)
        assert got.tobytes() == expected.tobytes()
        assert len(parts) == -(-count // (budget // 41))
        assert sum(k for _, k in parts) == count
        assert all((rows + 1) * k <= budget for rows, k in parts)

    @given(st.integers(1, 60), st.integers(1, 50), st.integers(20, 400), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_any_budget_matches_one_sweep(self, count, longest, budget, seed):
        rng = np.random.default_rng(seed)
        a, b, radii = self.batch(rng, count, longest)
        expected = one_sweep(a, b, radii)
        with pytest.MonkeyPatch.context() as patch:
            parts = self.sweeps(patch, budget=budget)
            got = dtw_distances(a, b, radii)
        assert got.tobytes() == expected.tobytes()
        assert sum(k for _, k in parts) == count

    def test_beat_batch_past_the_real_budget(self, monkeypatch):
        # the size of a record's beats against the two banks: 48 beats of
        # 91-124 samples against 20 members
        rng = np.random.default_rng(12)
        a, b, radii = self.batch(rng, 960, 124)
        expected = one_sweep(a, b, radii)
        parts = self.sweeps(monkeypatch)
        got = dtw_distances(a, b, radii)
        assert got.tobytes() == expected.tobytes()
        assert len(parts) == -(-960 // (SWEEP_SLOTS // 125)) > 1
        assert all((rows + 1) * k <= SWEEP_SLOTS for rows, k in parts)


class TestZnormalize:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(1)
        z = znormalize(rng.normal(5, 3, 500))
        assert abs(z.mean()) < 1e-12
        assert abs(z.std() - 1.0) < 1e-12

    def test_constant_rejected(self):
        with pytest.raises(ZeroVariance):
            znormalize(np.full(100, 2.5))


class TestNearestNeighbour:
    """classify_full_signal: the nearest corpus entry on the lead."""

    SHAPES = {
        "slow": np.sin(2 * np.pi * 1.0 * np.arange(1250) / 125.0),
        "fast": np.sin(2 * np.pi * 3.0 * np.arange(1250) / 125.0),
        "ramp": np.linspace(-1.0, 1.0, 1250),
        "fast_wobble": np.sin(2 * np.pi * 3.0 * np.arange(1250) / 125.0)
        + 0.3 * np.sin(2 * np.pi * 7.0 * np.arange(1250) / 125.0),
    }

    def record(self, shape, arrhythmia=Arrhythmia.VTACH):
        """Ten seconds of one lead II at the match rate, alarm at the end."""
        channels = [ChannelMeta("II", ChannelKind.ECG, "mV", 200.0, 0)]
        samples = self.SHAPES[shape][np.newaxis].copy()
        return Record("query", 125.0, channels, samples, AlarmMeta(arrhythmia, None, 1250))

    def entry(self, shape, label, arrhythmia=Arrhythmia.VTACH, lead="II"):
        return CorpusEntry(znormalize(self.SHAPES[shape]), label, lead, arrhythmia)

    def test_nearest_label(self):
        corpus = TrainingCorpus([self.entry("slow", False), self.entry("fast", True), self.entry("ramp", False)])
        query = self.record("fast_wobble")
        label, index, distance = classify_full_signal(query, corpus)
        assert (label, index) == (True, 1)
        assert distance == dtw_distance(extract_alarm_lead(query), corpus.entries[1].values, FULL_SIGNAL_RADIUS) > 0.0
        assert classify_full_signal(self.record("ramp"), corpus)[:2] == (False, 2)

    def test_tie_goes_to_earliest_entry(self):
        # equidistant to entries 0 and 2, which carry opposite labels
        corpus = TrainingCorpus([self.entry("slow", False), self.entry("fast", True), self.entry("slow", True)])
        assert classify_full_signal(self.record("slow"), corpus)[:2] == (False, 0)

    def test_index_is_within_the_searched_pool(self):
        # only the VT entries on lead II are searched; the witness counts within them
        corpus = TrainingCorpus([
            self.entry("fast", False, Arrhythmia.ASYSTOLE),
            self.entry("fast", False, lead="V"),
            self.entry("slow", False),
            self.entry("fast", True),
        ])
        assert classify_full_signal(self.record("fast"), corpus)[:2] == (True, 1)

    def test_falls_back_to_other_arrhythmias(self):
        corpus = TrainingCorpus([
            self.entry("slow", False, Arrhythmia.ASYSTOLE),
            self.entry("fast", True, Arrhythmia.BRADYCARDIA),
        ])
        assert classify_full_signal(self.record("fast"), corpus)[:2] == (True, 1)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            classify_full_signal(self.record("fast"), TrainingCorpus())
        with pytest.raises(EmptyCorpus):  # no entry on the lead
            classify_full_signal(self.record("fast"), TrainingCorpus([self.entry("fast", True, lead="V")]))


class TestExtractAlarmLead:
    def test_shape_and_normalization(self, vt_suite):
        _, record, _ = vt_suite[0]
        x = extract_alarm_lead(record)
        assert len(x) == 1250  # ten seconds at the match rate
        assert abs(x.mean()) < 1e-9
        assert abs(x.std() - 1.0) < 1e-9

    def test_rejects_odd_rate(self, vt_suite):
        _, record, _ = vt_suite[0]
        bad = type(record)(record.name, 300.0, record.channels, record.samples, record.alarm)
        with pytest.raises(UnsupportedRate):
            extract_alarm_lead(bad)

    def test_interpolates_partial_dropout(self, vt_suite):
        _, record, _ = vt_suite[0]
        rec = type(record)(record.name, record.sample_rate, record.channels, record.samples.copy(), record.alarm)
        rec.samples[0, -500:-400] = np.nan
        x = extract_alarm_lead(rec)
        assert not np.isnan(x).any()

    def test_all_missing_rejected(self, vt_suite):
        _, record, _ = vt_suite[0]
        rec = type(record)(record.name, record.sample_rate, record.channels, record.samples.copy(), record.alarm)
        rec.samples[0, -6000:] = np.nan
        with pytest.raises(InsufficientData):
            extract_alarm_lead(rec)


class TestCorpus:
    def test_subset_filters(self):
        corpus = TrainingCorpus([
            CorpusEntry(np.zeros(3), True, "II", Arrhythmia.VTACH),
            CorpusEntry(np.zeros(3), False, "V", Arrhythmia.VTACH),
            CorpusEntry(np.zeros(3), False, "II", Arrhythmia.ASYSTOLE),
        ])
        assert len(corpus.subset(lead="II")) == 2
        assert len(corpus.subset(lead="ii", arrhythmia=Arrhythmia.VTACH)) == 1
        assert len(corpus.subset()) == 3

    def test_corpus_from_records(self, vt_suite):
        labelled = [(r, t.expected_true) for _, r, t in vt_suite[:4]]
        corpus = corpus_from_records(labelled)
        assert len(corpus) == 4
        assert [e.is_true_alarm for e in corpus.entries] == [t for _, t in labelled]
        assert all(e.arrhythmia is Arrhythmia.VTACH for e in corpus.entries)

    def test_skip_errors(self, vt_suite, sinus_record):
        _, good, truth = vt_suite[0]
        bad = type(good)(good.name, 300.0, good.channels, good.samples, good.alarm)
        labelled = [(bad, True), (good, truth.expected_true)]
        with pytest.raises(UnsupportedRate):
            corpus_from_records(labelled)
        corpus = corpus_from_records(labelled, skip_errors=True)
        assert len(corpus) == 1

    def test_skip_errors_skips_a_record_too_short_to_resample(self, vt_suite):
        _, good, truth = vt_suite[0]
        tiny = type(good)("tiny", good.sample_rate, good.channels, good.samples[:, :12].copy(), replace(good.alarm, alarm_index=12))
        labelled = [(tiny, True), (good, truth.expected_true)]
        with pytest.raises(InsufficientData):
            corpus_from_records(labelled)
        corpus = corpus_from_records(labelled, skip_errors=True)
        assert [e.record for e in corpus.entries] == [good.name]


class TestCorpusCache:
    def test_roundtrip(self, tmp_path, vt_suite):
        labelled = [(r, t.expected_true) for _, r, t in vt_suite[:3]]
        corpus = corpus_from_records(labelled)
        path = save_corpus_cache(corpus, tmp_path / "corpus.bin")
        back = load_corpus_cache(path)
        assert len(back) == len(corpus)
        for a, b in zip(corpus.entries, back.entries):
            assert a.is_true_alarm == b.is_true_alarm
            assert np.array_equal(a.values, b.values)

    def test_truncated_rejected(self, tmp_path, vt_suite):
        labelled = [(r, t.expected_true) for _, r, t in vt_suite[:2]]
        path = save_corpus_cache(corpus_from_records(labelled), tmp_path / "c.bin")
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])
        with pytest.raises(IoFailure):
            load_corpus_cache(path)

    def test_trailing_bytes_rejected(self, tmp_path, vt_suite):
        labelled = [(r, t.expected_true) for _, r, t in vt_suite[:2]]
        path = save_corpus_cache(corpus_from_records(labelled), tmp_path / "c.bin")
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(IoFailure):
            load_corpus_cache(path)

    def test_bad_label_rejected(self, tmp_path):
        corpus = TrainingCorpus([CorpusEntry(np.zeros(4), True)])
        path = save_corpus_cache(corpus, tmp_path / "c.bin")
        raw = bytearray(path.read_bytes())
        raw[4] = 7  # label byte of the first entry
        path.write_bytes(bytes(raw))
        with pytest.raises(IoFailure):
            load_corpus_cache(path)

    def test_non_finite_rejected(self, tmp_path):
        # a NaN sample makes the entry's distance NaN, which np.argmin in classify_full_signal would pick
        for bad in (np.nan, np.inf, -np.inf):
            entries = [CorpusEntry(np.array([1.0, 0.0, -1.0]), False), CorpusEntry(np.array([0.5, bad, -0.5]), True)]
            path = save_corpus_cache(TrainingCorpus(entries), tmp_path / "c.bin")
            with pytest.raises(IoFailure, match="non-finite"):
                load_corpus_cache(path)

    def test_wrong_length_rejected(self, tmp_path):
        # a short entry made dtw-full raise BandInfeasible, an empty one EmptySequence
        window = np.linspace(-1.0, 1.0, 1250)
        for length in (0, 10):
            entries = [CorpusEntry(window, False), CorpusEntry(np.linspace(-1.0, 1.0, length), True)]
            path = save_corpus_cache(TrainingCorpus(entries), tmp_path / "c.bin")
            with pytest.raises(IoFailure, match=f"entry 1 has {length} samples"):
                load_corpus_cache(path)
