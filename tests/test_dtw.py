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
    BEAT_RADIUS,
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
    znormalize,
)
from alarmsentinel.errors import (
    EmptyCorpus,
    EmptySequence,
    InsufficientData,
    MissingLead,
    NonFiniteSample,
    UnsupportedMethod,
    UnsupportedRate,
    ZeroVariance,
)
from alarmsentinel.record_io import AlarmMeta, Arrhythmia, ChannelKind, ChannelMeta, Record


def dtw_oracle(a, b, radius):
    """Reference banded DTW: full matrix, no pruning tricks, in the
    inputs' precision (float32 only when both are float32)."""
    n, m = len(a), len(b)
    D = np.full((n, m), np.inf, dtype=np.result_type(a, b))
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


def widened(a, b, radius):
    """The band radius dtw_distances warps the pair (a, b) under."""
    return max(radius, abs(len(a) - len(b)))


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

    def test_a_gap_above_the_radius_widens_the_band(self):
        rng = np.random.default_rng(3)
        for n, m, radius in ((10, 3, 2), (3, 10, 0), (40, 12, 5), (1, 30, 0), (150, 23, 125)):
            a, b = rng.uniform(-1, 1, n), rng.uniform(-1, 1, m)
            gap = abs(n - m)
            assert dtw_distance(a, b, radius) == dtw_distance(a, b, gap) == dtw_oracle(a, b, gap)

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
    def ragged(self, rng, count, radius):
        """Pairs of lengths 1-150 under one radius: every fifth pair of equal
        lengths, every fifth of a gap up to the radius, every fifth of a gap
        of exactly the radius, and the rest of any gap, mostly above it, so
        the kernel sees mixed radii, and radius 0 when ``radius`` is 0."""
        a, b = [], []
        for k in range(count):
            n = int(rng.integers(1, 151))
            gap = (0, int(rng.integers(0, radius + 1)), radius, None, None)[k % 5]
            if gap is None:
                m = int(rng.integers(1, 151))
            else:
                m = n + gap if n + gap <= 150 else n - gap
                if m < 1:
                    m = n
            a.append(rng.uniform(-1, 1, n))
            b.append(rng.uniform(-1, 1, m))
        return a, b, radius

    def test_ragged_batch_matches_oracle(self):
        rng = np.random.default_rng(7)
        for count, radius in ((1, 0), (2, 4), (40, 0), (40, 8)):
            a, b, radius = self.ragged(rng, count, radius)
            got = dtw_distances(a, b, radius)
            assert got.shape == (count,)
            assert list(got) == [dtw_oracle(x, y, widened(x, y, radius)) for x, y in zip(a, b)]

    @pytest.mark.parametrize("budget", [None, 200])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gaps_on_both_sides_of_the_radius(self, monkeypatch, budget, dtype):
        # each pair is warped under max(radius, gap): the widened pairs and the
        # others share one sweep, so the kernel masks their mixed radii
        rng = np.random.default_rng(21)
        radius = 6
        a, b = [], []
        for gap in list(range(13)) * 4:
            n = int(rng.integers(20, 41))
            a.append(rng.uniform(-1, 1, n).astype(dtype))
            b.append(rng.uniform(-1, 1, n + gap if gap % 2 else n - gap).astype(dtype))
        if budget is not None:
            monkeypatch.setattr(dtw, "SWEEP_SLOTS", budget)
        swept = []

        def spy(pa, pb, n, m, radii):
            swept.append(radii.copy())
            return _dtw_core(pa, pb, n, m, radii)

        monkeypatch.setattr(dtw, "_dtw_core", spy)
        got = dtw_distances(a, b, radius)
        assert list(got) == [dtw_oracle(x, y, widened(x, y, radius)) for x, y in zip(a, b)]
        assert len(swept) == (1 if budget is None else -(-52 // (200 // (max(map(len, a)) + 1))))
        assert np.concatenate(swept).tolist() == [widened(x, y, radius) for x, y in zip(a, b)]
        assert any(len(np.unique(radii)) > 1 for radii in swept)

    def test_single_pair_batches_match_oracle(self):
        rng = np.random.default_rng(8)
        a, b, radius = self.ragged(rng, 10, 3)
        for x, y in zip(a, b):
            assert dtw_distances([x], [y], radius)[0] == dtw_oracle(x, y, widened(x, y, radius))

    def test_permuted_batch_permutes_the_result(self):
        rng = np.random.default_rng(9)
        a, b, radius = self.ragged(rng, 30, 5)
        order = rng.permutation(30)
        got = dtw_distances([a[k] for k in order], [b[k] for k in order], radius)
        assert np.array_equal(got, dtw_distances(a, b, radius)[order])

    def test_empty_batch(self):
        assert dtw_distances([], [], 0).shape == (0,)

    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_bad_pair_anywhere_raises(self, position):
        def batch(bad_a, bad_b):
            a, b = [np.ones(5)] * 5, [np.ones(6)] * 5
            a[position], b[position] = bad_a, bad_b
            return a, b

        with pytest.raises(EmptySequence):
            dtw_distances(*batch(np.array([]), np.ones(3)), 5)
        with pytest.raises(EmptySequence):
            dtw_distances(*batch(np.ones(3), np.array([])), 5)
        with pytest.raises(ValueError, match="non-negative"):
            dtw_distances(*batch(np.zeros(3), np.zeros(3)), -1)
        # a gap of 7 above radius 2 widens that pair's band: it is no error
        got = dtw_distances(*batch(np.zeros(10), np.ones(3)), 2)
        assert got[position] == math.sqrt(10.0)
        assert np.delete(got, position).tolist() == [0.0] * 4

    def test_counts_must_match(self):
        with pytest.raises(ValueError):
            dtw_distances([np.ones(3)] * 2, [np.ones(3)], 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("budget", [None, 20])
    def test_non_finite_sample_anywhere_raises(self, monkeypatch, value, side, budget):
        # a NaN distance would be the first argmin and an infinite one never
        # the nearest; with a 20-slot budget the bad pair is in the last of
        # eight parts of two pairs
        if budget is not None:
            monkeypatch.setattr(dtw, "SWEEP_SLOTS", budget)
        rng = np.random.default_rng(13)
        a = [rng.uniform(-1, 1, 6) for _ in range(15)]
        b = [rng.uniform(-1, 1, 7) for _ in range(15)]
        bad = (a if side == "a" else b)[-1]
        bad[3] = value
        with pytest.raises(NonFiniteSample):
            dtw_distances(a, b, 2)

    def test_concurrent_calls_keep_their_own_buffers(self):
        # library callers may adjudicate on threads, and numpy releases the
        # GIL inside each diagonal's arithmetic, so sweeps interleave; more
        # threads than cores and a short switch interval make that likely
        rng = np.random.default_rng(11)
        batches = [self.ragged(rng, 40, radius) for radius in (0, 3, 6, 9)]
        expected = [[dtw_oracle(x, y, widened(x, y, radius)) for x, y in zip(a, b)] for a, b, radius in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(3):
                    futures = [pool.submit(dtw_distances, *batch) for batch in batches]
                    assert [list(f.result(timeout=60)) for f in futures] == expected
        finally:
            sys.setswitchinterval(interval)


def one_sweep(a, b, radius):
    """All pairs in one _dtw_core sweep under their widened radii, padded
    to the longest pair in the inputs' precision: what dtw_distances
    computed before it split large batches."""
    n = np.array([len(x) for x in a])
    m = np.array([len(y) for y in b])
    dtype = np.result_type(*a, *b)
    padded_a, padded_b = np.zeros((n.max(), len(a)), dtype=dtype), np.zeros((m.max(), len(b)), dtype=dtype)
    for k, (x, y) in enumerate(zip(a, b)):
        padded_a[: len(x), k] = x
        padded_b[: len(y), k] = y
    return np.sqrt(_dtw_core(padded_a, padded_b, n, m, np.maximum(radius, np.abs(n - m))))


class TestSplitSweeps:
    """Batches past SWEEP_SLOTS slots per diagonal buffer are swept in the
    fewest parts under it, each padded to its own longest pair."""

    def batch(self, rng, count, longest):
        """Pairs of mixed lengths up to ``longest``, one of them ``longest``
        samples long, whose gaps of 0-12 fall on both sides of one radius
        of 0-12: the widened pairs mix radii."""
        a, b = [], []
        for k in range(count):
            n = longest if k == count // 2 else int(rng.integers(1, longest + 1))
            m = int(rng.integers(max(1, n - 12), min(longest, n + 12) + 1))
            a.append(rng.uniform(-1, 1, n))
            b.append(rng.uniform(-1, 1, m))
        return a, b, int(rng.integers(0, 13))

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
        a, b, radius = self.batch(rng, count, 40)
        expected = one_sweep(a, b, radius)
        parts = self.sweeps(monkeypatch, budget=budget)
        got = dtw_distances(a, b, radius)
        assert got.tobytes() == expected.tobytes()
        assert len(parts) == -(-count // (budget // 41))
        assert sum(k for _, k in parts) == count
        assert all((rows + 1) * k <= budget for rows, k in parts)

    @given(st.integers(1, 60), st.integers(1, 50), st.integers(20, 400), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_any_budget_matches_one_sweep(self, count, longest, budget, seed):
        rng = np.random.default_rng(seed)
        a, b, radius = self.batch(rng, count, longest)
        expected = one_sweep(a, b, radius)
        with pytest.MonkeyPatch.context() as patch:
            parts = self.sweeps(patch, budget=budget)
            got = dtw_distances(a, b, radius)
        assert got.tobytes() == expected.tobytes()
        assert sum(k for _, k in parts) == count

    def test_beat_batch_past_the_real_budget(self, monkeypatch):
        # the size of a record's beats against the two banks: 48 beats of
        # 91-124 samples against 20 members
        rng = np.random.default_rng(12)
        a, b, radius = self.batch(rng, 960, 124)
        expected = one_sweep(a, b, radius)
        parts = self.sweeps(monkeypatch)
        got = dtw_distances(a, b, radius)
        assert got.tobytes() == expected.tobytes()
        assert len(parts) == -(-960 // (SWEEP_SLOTS // 125)) > 1
        assert all((rows + 1) * k <= SWEEP_SLOTS for rows, k in parts)


def single(seqs):
    return [x.astype(np.float32) for x in seqs]


class TestSinglePrecision:
    """A batch whose every input is float32 is swept in float32, any other
    in float64; the distances come back as float64 either way."""

    def swept_dtypes(self, monkeypatch):
        """Spy on _dtw_core; return the list it fills with each part's dtype."""
        dtypes = []

        def spy(a, b, n, m, radii):
            dtypes.append(a.dtype)
            return _dtw_core(a, b, n, m, radii)

        monkeypatch.setattr(dtw, "_dtw_core", spy)
        return dtypes

    def test_ragged_batch_matches_the_float32_oracle(self, monkeypatch):
        # the ragged pairs include radius 0 and mixed radii
        rng = np.random.default_rng(17)
        dtypes = self.swept_dtypes(monkeypatch)
        for count, radius in ((1, 0), (2, 4), (40, 0), (40, 8)):
            a, b, radius = TestDtwDistances().ragged(rng, count, radius)
            a, b = single(a), single(b)
            got = dtw_distances(a, b, radius)
            assert got.dtype == np.float64
            assert list(got) == [dtw_oracle(x, y, widened(x, y, radius)) for x, y in zip(a, b)]
        assert dtypes == [np.float32] * 4

    @pytest.mark.parametrize("budget", [None, 200])
    def test_split_and_unsplit_match_one_sweep_and_the_oracle(self, monkeypatch, budget):
        rng = np.random.default_rng(18)
        a, b, radius = TestSplitSweeps().batch(rng, 47, 40)
        a, b = single(a), single(b)
        expected = one_sweep(a, b, radius)
        parts = TestSplitSweeps().sweeps(monkeypatch, budget=budget)
        got = dtw_distances(a, b, radius)
        assert len(parts) == (1 if budget is None else -(-47 // (200 // 41)))
        assert got.tobytes() == expected.tobytes()
        assert list(got) == [dtw_oracle(x, y, widened(x, y, radius)) for x, y in zip(a, b)]

    @pytest.mark.parametrize("mixed", ["a", "b", "one pair"])
    def test_mixed_batch_sweeps_in_float64(self, monkeypatch, mixed):
        rng = np.random.default_rng(20)
        a, b, radius = TestDtwDistances().ragged(rng, 30, 4)
        a32, b32 = single(a), single(b)
        # float32 to float64 is exact, so today's bits are those of the widened inputs
        expected = dtw_distances([x.astype(np.float64) for x in a32], [y.astype(np.float64) for y in b32], radius)
        if mixed == "a":
            a32 = [x.astype(np.float64) for x in a32]
        elif mixed == "b":
            b32[7] = b32[7].astype(np.float64)
        else:
            a32[0], b32[0] = a32[0].astype(np.float64), b32[0].astype(np.float64)
        dtypes = self.swept_dtypes(monkeypatch)
        assert dtw_distances(a32, b32, radius).tobytes() == expected.tobytes()
        assert dtypes == [np.float64]

    def test_other_inputs_sweep_in_float64(self, monkeypatch):
        dtypes = self.swept_dtypes(monkeypatch)
        assert dtw_distance([0, 1, 2], [0, 2], 1) == dtw_oracle(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0]), 1)
        assert dtw_distance(np.ones(3, dtype=np.float16), np.zeros(3, dtype=np.float32), 1) == math.sqrt(3.0)
        assert dtypes == [np.float64, np.float64]

    @given(
        st.integers(25, 250),
        st.integers(25, 250),
        st.sampled_from(["normal", "walk", "spike", "shape"]),
        st.sampled_from([1e-1, 1e-3, 1e-6]),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_beat_pairs_agree_with_the_float64_sweep(self, n, m, kind, noise, seed):
        # the bound stated where beat_banks chooses single precision
        rng = np.random.default_rng(seed)
        if kind == "normal":
            x, y = rng.normal(size=n), rng.normal(size=m)
        elif kind == "walk":
            x, y = np.cumsum(rng.normal(size=n)), np.cumsum(rng.normal(size=m))
        elif kind == "spike":
            x, y = rng.normal(0, 0.01, n), rng.normal(0, 0.01, m)
            x[n // 2] += 1.0
            y[rng.integers(m)] += 1.0
        else:  # one shape under noise: near-copies at the smallest noise
            f = rng.uniform(0.5, 5.0)
            x = np.sin(f * np.linspace(0, 6, n)) + rng.normal(0, noise, n)
            y = np.sin(f * np.linspace(0, 6, m)) + rng.normal(0, noise, m)
        x, y = znormalize(x), znormalize(y)
        double = dtw_distance(x, y, BEAT_RADIUS)
        assert abs(dtw_distance(x.astype(np.float32), y.astype(np.float32), BEAT_RADIUS) - double) <= 1e-6 * (1.0 + double)


class TestZnormalize:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(1)
        z = znormalize(rng.normal(5, 3, 500))
        assert abs(z.mean()) < 1e-12
        assert abs(z.std() - 1.0) < 1e-12

    def test_constant_rejected(self):
        with pytest.raises(ZeroVariance):
            znormalize(np.full(100, 2.5))

    def test_constant_up_to_rounding_rejected(self):
        x = np.full(1250, 0.18)
        assert np.std(x) > 0.0  # the mean rounds away from 0.18
        with pytest.raises(ZeroVariance):
            znormalize(x)


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

    def entry(self, shape, label):
        return CorpusEntry(znormalize(self.SHAPES[shape]), label)

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

    def test_query_arrhythmia_does_not_narrow_the_search(self):
        # every entry is a VT alarm on the corpus's lead, so the whole corpus is searched
        corpus = TrainingCorpus([self.entry("slow", False), self.entry("fast", True)])
        assert classify_full_signal(self.record("fast", Arrhythmia.ASYSTOLE), corpus)[:2] == (True, 1)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            classify_full_signal(self.record("fast"), TrainingCorpus())
        with pytest.raises(MissingLead):  # the query is read on the corpus's lead, which the record lacks
            classify_full_signal(self.record("fast"), TrainingCorpus([self.entry("fast", True)], lead="V"))
        corpus = TrainingCorpus([self.entry("fast", True)], lead="ii")  # lead names match in any case
        assert classify_full_signal(self.record("fast"), corpus)[:2] == (True, 0)


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
    def test_corpus_from_records(self, vt_suite):
        labelled = [(r, t.expected_true) for _, r, t in vt_suite[:4]]
        corpus = corpus_from_records(labelled)
        assert len(corpus) == 4
        assert [e.is_true_alarm for e in corpus.entries] == [t for _, t in labelled]
        assert [e.record for e in corpus.entries] == [r.name for r, _ in labelled]
        assert corpus.lead == "II" and corpus.skipped == []

    def test_refuses_other_arrhythmias(self, vt_suite, sinus_record):
        # sinus_record carries an asystole alarm, which dtw-full does not adjudicate
        _, good, truth = vt_suite[0]
        labelled = [(sinus_record, False), (good, truth.expected_true)]
        with pytest.raises(UnsupportedMethod, match="ventricular tachycardia"):
            corpus_from_records(labelled)
        corpus = corpus_from_records(labelled, skip_errors=True)
        assert [e.record for e in corpus.entries] == [good.name]
        assert [name for name, _ in corpus.skipped] == [sinus_record.name]

    def test_skip_errors(self, vt_suite, sinus_record):
        _, good, truth = vt_suite[0]
        bad = type(good)(good.name, 300.0, good.channels, good.samples, good.alarm)
        labelled = [(bad, True), (good, truth.expected_true)]
        with pytest.raises(UnsupportedRate):
            corpus_from_records(labelled)
        corpus = corpus_from_records(labelled, skip_errors=True)
        assert len(corpus) == 1
        ((name, error),) = corpus.skipped
        assert name == bad.name and "Hz" in error

    def test_skip_errors_skips_a_record_too_short_to_resample(self, vt_suite):
        _, good, truth = vt_suite[0]
        tiny = type(good)("tiny", good.sample_rate, good.channels, good.samples[:, :12].copy(), replace(good.alarm, alarm_index=12))
        labelled = [(tiny, True), (good, truth.expected_true)]
        with pytest.raises(InsufficientData):
            corpus_from_records(labelled)
        corpus = corpus_from_records(labelled, skip_errors=True)
        assert [e.record for e in corpus.entries] == [good.name]
