import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alarmsentinel.dtw import (
    CorpusEntry,
    TrainingCorpus,
    WarpParams,
    corpus_from_records,
    dtw_distance,
    dtw_distances,
    extract_alarm_lead,
    load_corpus_cache,
    nearest_neighbor,
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
from alarmsentinel.record_io import Arrhythmia


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
        p = WarpParams(10)
        assert dtw_distance(np.array([1.0, 2.0]), np.array([1.0, 2.0]), p) == 0.0
        assert dtw_distance(np.array([0.0]), np.array([3.0]), p) == 3.0

    def test_warping_beats_euclidean(self):
        a = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0, 0.0, 0.0])  # same bump, shifted
        assert dtw_distance(a, b, WarpParams(0)) > dtw_distance(a, b, WarpParams(2))
        assert dtw_distance(a, b, WarpParams(2)) == 0.0

    def test_radius_zero_is_euclidean(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(1, 40)
            a, b = rng.normal(size=n), rng.normal(size=n)
            assert dtw_distance(a, b, WarpParams(0)) == pytest.approx(
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
            assert dtw_distance(a, b, WarpParams(radius)) == dtw_oracle(a, b, radius)

    def test_empty_rejected(self):
        with pytest.raises(EmptySequence):
            dtw_distance(np.array([]), np.array([1.0]), WarpParams(5))

    def test_band_infeasible(self):
        with pytest.raises(BandInfeasible):
            dtw_distance(np.zeros(10), np.zeros(3), WarpParams(2))

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            dtw_distance(np.zeros(3), np.zeros(3), WarpParams(-1))

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
        d1 = dtw_distance(a, b, WarpParams(radius))
        d2 = dtw_distance(b, a, WarpParams(radius))
        assert d1 == pytest.approx(d2, abs=1e-9)
        assert d1 >= 0.0
        assert dtw_distance(a, a, WarpParams(radius)) == 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_radius_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        a = rng.uniform(-1, 1, n)
        b = rng.uniform(-1, 1, n)
        distances = [dtw_distance(a, b, WarpParams(r)) for r in (0, 2, 5, n)]
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
    def corpus(self):
        return TrainingCorpus([
            CorpusEntry(np.array([0.0, 0.0, 0.0]), False),
            CorpusEntry(np.array([1.0, 1.0, 1.0]), True),
            CorpusEntry(np.array([0.0, 0.0, 0.0]), True),  # duplicate of entry 0
        ])

    def test_nearest_label(self):
        label, index, distance = nearest_neighbor(np.array([0.9, 1.0, 1.1]), self.corpus(), WarpParams(3))
        assert (label, index) == (True, 1)
        assert distance == pytest.approx(np.sqrt(0.02), abs=1e-12)
        label, index, _ = nearest_neighbor(np.array([0.1, 0.0, 0.0]), self.corpus(), WarpParams(3))
        assert (label, index) == (False, 0)

    def test_tie_goes_to_earliest_entry(self):
        # equidistant to entries 0 and 2 with opposite labels
        assert nearest_neighbor(np.array([0.0, 0.0, 0.0]), self.corpus(), WarpParams(3)) == (False, 0, 0.0)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            nearest_neighbor(np.array([1.0]), TrainingCorpus(), WarpParams(1))


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
        # a NaN sample makes the entry's distance NaN, which np.argmin in nearest_neighbor would pick
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
