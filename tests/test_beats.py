import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import butter, filtfilt, find_peaks, lfilter_zi, periodogram

from alarmsentinel.beats import _percentiles
from alarmsentinel.beats import (
    PULSE_LOWPASS_HZ,
    QRS_BAND_HZ,
    QRS_INTEGRATE_S,
    QRS_REFRACTORY_S,
    VT_SPLIT_HZ,
    BeatLabel,
    beat_segments,
    classify_beat_spectral,
    detect_pulses,
    detect_qrs,
    import_annotations,
    spectral_labels,
    window_heart_rate,
    within,
)
from alarmsentinel.errors import (
    IndexOutOfBounds,
    MalformedAnnotation,
    TooFewBeats,
    WindowTooShort,
)
from alarmsentinel.record_io import Arrhythmia, ChannelKind, butter_filter, channel_kind
from alarmsentinel.synthkit import SynthSpec, generate, narrow_template, wide_template


def truth_match(detected: np.ndarray, truth_s, fs, tol_s=0.08):
    """Fraction of planned beats with a detection within tolerance."""
    det = detected / fs
    hits = sum(1 for t in truth_s if np.any(np.abs(det - t) < tol_s))
    return hits / len(truth_s)


@pytest.fixture(scope="module")
def beat_record():
    spec = SynthSpec(name="beats", arrhythmia=Arrhythmia.ASYSTOLE, event=False, heart_rate=76, seed=21)
    return generate(spec)


class TestQrsDetector:
    def test_finds_planned_beats(self, beat_record):
        rec, truth = beat_record
        ann = detect_qrs(rec.samples[0], rec.sample_rate)
        assert truth_match(ann, truth.beat_times, rec.sample_rate) > 0.98
        # no more than a few percent extra detections
        assert len(ann) <= len(truth.beat_times) * 1.05

    def test_strictly_increasing_positions(self, beat_record):
        rec, _ = beat_record
        ann = detect_qrs(rec.samples[0], rec.sample_rate)
        assert np.all(np.diff(ann) > 0)

    def test_refractory_spacing(self, beat_record):
        rec, _ = beat_record
        ann = detect_qrs(rec.samples[0], rec.sample_rate)
        assert np.diff(ann).min() >= int(round(0.2 * rec.sample_rate))

    def test_flat_signal_yields_nothing(self):
        ann = detect_qrs(np.zeros(5000), 250.0)
        assert len(ann) == 0

    def test_nan_tolerated(self, beat_record):
        rec, truth = beat_record
        x = rec.samples[0].copy()
        x[:500] = np.nan
        ann = detect_qrs(x, rec.sample_rate)
        later = [t for t in truth.beat_times if t > 4.0]
        assert truth_match(ann, later, rec.sample_rate) > 0.95

    def test_wide_complexes_detected(self):
        spec = SynthSpec(name="vt", arrhythmia=Arrhythmia.VTACH, event=True, seed=33)
        rec, truth = generate(spec)
        ann = detect_qrs(rec.samples[0], rec.sample_rate)
        wide = [t for t, l in zip(truth.beat_times, truth.beat_labels) if l is BeatLabel.VENTRICULAR]
        assert len(wide) == spec.vt_beats
        assert truth_match(ann, wide, rec.sample_rate) == 1.0


class TestPulseDetector:
    def test_finds_planned_pulses(self, beat_record):
        rec, truth = beat_record
        abp = rec.channel_index("ABP")
        ann = detect_pulses(rec.samples[abp], rec.sample_rate)
        # pulses lag beats by a fixed delay; alignment need only be consistent
        rr_truth = np.diff(truth.beat_times)
        rr_det = np.diff(ann) / rec.sample_rate
        assert abs(len(rr_det) - len(rr_truth)) <= 3
        assert abs(np.median(rr_det) - np.median(rr_truth)) < 0.02

    def test_ppg_channel(self, beat_record):
        rec, truth = beat_record
        ppg = rec.channel_index("PLETH")
        ann = detect_pulses(rec.samples[ppg], rec.sample_rate)
        assert len(ann) == pytest.approx(len(truth.beat_times), abs=3)


class TestImportAnnotations:
    def write(self, tmp_path, text):
        path = tmp_path / "ann.txt"
        path.write_text(text)
        return path

    def test_positions_only(self, tmp_path, beat_record):
        rec, _ = beat_record
        path = self.write(tmp_path, "# beat list\n100\n350\n600\n")
        ann = import_annotations(path, rec)
        assert list(ann) == [100, 350, 600]

    def test_labels(self, tmp_path, beat_record):
        """N and V labels are accepted and not kept: an annotation is positions only."""
        rec, _ = beat_record
        path = self.write(tmp_path, "100 N\n350 V\n600\n")
        ann = import_annotations(path, rec)
        assert ann.dtype == np.int64
        assert list(ann) == [100, 350, 600]

    def test_must_increase(self, tmp_path, beat_record):
        rec, _ = beat_record
        path = self.write(tmp_path, "100\n100\n")
        with pytest.raises(MalformedAnnotation):
            import_annotations(path, rec)

    def test_bounds(self, tmp_path, beat_record):
        rec, _ = beat_record
        path = self.write(tmp_path, f"{rec.n_samples}\n")
        with pytest.raises(IndexOutOfBounds):
            import_annotations(path, rec)

    def test_garbage(self, tmp_path, beat_record):
        rec, _ = beat_record
        path = self.write(tmp_path, "abc\n")
        with pytest.raises(MalformedAnnotation):
            import_annotations(path, rec)


class TestHeartRate:
    def test_known_rates(self):
        fs = 250.0
        idx = np.arange(0, 20) * int(0.5 * fs)  # steady 120 bpm
        rates = window_heart_rate(idx, fs, k=5)
        assert np.allclose(rates, 120.0)
        assert len(rates) == 20 - 5 + 1

    def test_too_few(self):
        ann = np.array([0, 100, 200])
        with pytest.raises(TooFewBeats):
            window_heart_rate(ann, 250.0, k=4)

    def test_k_validation(self):
        ann = np.array([0, 100])
        with pytest.raises(ValueError):
            window_heart_rate(ann, 250.0, k=1)


def segments_loop(idx):
    """beat_segments as a loop over the beats in Python integers, each
    bound rounded by Python's round: the reference the arrays must equal."""
    n = len(idx)
    starts, ends = [], []
    for i in range(n):
        prev_gap = int(idx[i] - idx[i - 1]) if i > 0 else int(idx[1] - idx[0])
        next_gap = int(idx[i + 1] - idx[i]) if i < n - 1 else int(idx[n - 1] - idx[n - 2])
        starts.append(int(idx[i]) - int(round(prev_gap / 3.0)))
        ends.append(int(idx[i]) + int(round(2.0 * next_gap / 3.0)))
    return starts, ends


class TestBeatSegments:
    def test_interior_proportions(self):
        idx = np.array([1000, 1300, 1600])
        starts, ends = beat_segments(idx)
        assert starts[1] < idx[1] < ends[1]  # the middle segment holds the middle beat
        assert starts[1] == 1300 - 100  # one third of the previous interval
        assert ends[1] == 1300 + 200  # two thirds of the next

    def test_boundary_beats_reuse_adjacent_interval(self):
        idx = np.array([1000, 1300, 1600])
        starts, ends = beat_segments(idx)
        assert starts[0] == 1000 - 100
        assert ends[-1] == 1600 + 200

    def test_requires_three(self):
        with pytest.raises(TooFewBeats):
            beat_segments(np.array([0, 100]))

    @given(
        st.lists(st.integers(50, 400), min_size=2, max_size=18).map(
            lambda deltas: np.cumsum([1000] + deltas)
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_segments_tile_without_gap_or_overlap(self, idx):
        starts, ends = beat_segments(idx)
        assert (ends[:-1] == starts[1:]).all()
        assert ((starts < idx) & (idx < ends)).all()

    @given(
        st.lists(st.integers(1, 3000), min_size=2, max_size=40),
        st.integers(0, 5000),
        st.sampled_from([np.int64, np.int32, np.uint32, np.uint64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_arrays_equal_the_loop(self, deltas, first, dtype):
        # gaps of every residue mod 3 round both down and up; a first beat
        # near 0 puts the first start below 0, where unsigned positions wrap
        idx = np.cumsum([first] + deltas).astype(dtype)
        starts, ends = beat_segments(idx)
        assert starts.dtype == ends.dtype == np.int64
        assert (starts.tolist(), ends.tolist()) == segments_loop(idx)


class TestSpectralBeatLabel:
    def test_templates(self):
        fs = 250.0
        rel = np.arange(int(0.65 * fs)) / fs
        assert classify_beat_spectral(narrow_template(rel), fs) is BeatLabel.NORMAL
        assert classify_beat_spectral(wide_template(rel), fs) is BeatLabel.VENTRICULAR

    def test_short_slice_rejected(self):
        with pytest.raises(WindowTooShort):
            classify_beat_spectral(np.zeros(10), 250.0)

    def test_scale_invariant(self):
        fs = 250.0
        rel = np.arange(int(0.65 * fs)) / fs
        beat = wide_template(rel)
        assert classify_beat_spectral(beat * 1e-3, fs) is BeatLabel.VENTRICULAR
        assert classify_beat_spectral(beat * 1e3, fs) is BeatLabel.VENTRICULAR


def periodogram_label(beat, fs):
    """The one-periodogram-per-beat rule the batched labels replace,
    kept as an oracle."""
    f, psd = periodogram(beat, fs=fs, detrend="constant", nfft=max(1024, len(beat)))
    low = psd[(f >= 0.5) & (f <= VT_SPLIT_HZ)].sum()
    high = psd[(f > VT_SPLIT_HZ) & (f <= 30.0)].sum()
    return BeatLabel.VENTRICULAR if low > high else BeatLabel.NORMAL


def tone(freq, n, fs=250.0):
    return np.sin(2 * np.pi * freq * np.arange(n) / fs)


@st.composite
def beat_batches(draw):
    """Beats of mixed length built from a few tones near the 8 Hz split
    and some noise; sometimes one of them is longer than 1024 samples."""
    fs = draw(st.sampled_from([125.0, 250.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.integers(int(0.2 * fs), 300), min_size=1, max_size=12))
    if draw(st.booleans()):
        lengths.insert(draw(st.integers(0, len(lengths))), draw(st.integers(1025, 1600)))
    beats = []
    for n in lengths:
        freqs = draw(st.lists(st.floats(0.5, 30.0), min_size=1, max_size=3))
        beat = sum(tone(f, n, fs) * rng.uniform(0.1, 2.0) for f in freqs)
        beats.append(beat + rng.normal(0.0, draw(st.floats(0.0, 1.0)), n) + rng.normal())
    return beats, fs


class TestSpectralLabelsMatchTheLoop:
    # a short 8.3 Hz beat reads Normal on its own 1024-point grid but
    # Ventricular on the grid of the 1200-sample beat beside it
    @given(beat_batches())
    @example(([tone(8.3, 60), tone(3.0, 1200)], 250.0))
    @settings(max_examples=150, deadline=None)
    def test_labels(self, batch):
        beats, fs = batch
        assert spectral_labels(beats, fs) == [periodogram_label(b, fs) for b in beats]

    def test_fixed_example_flips_on_a_longer_grid(self):
        short = tone(8.3, 60)
        f, psd = periodogram(short, fs=250.0, detrend="constant", nfft=1200)
        low = psd[(f >= 0.5) & (f <= VT_SPLIT_HZ)].sum()
        high = psd[(f > VT_SPLIT_HZ) & (f <= 30.0)].sum()
        assert periodogram_label(short, 250.0) is BeatLabel.NORMAL and low > high

    def test_empty_batch(self):
        assert spectral_labels([], 250.0) == []

    def test_one_beat_form(self):
        fs = 250.0
        rel = np.arange(int(0.65 * fs)) / fs
        beats = [narrow_template(rel), wide_template(rel)]
        assert [classify_beat_spectral(b, fs) for b in beats] == spectral_labels(beats, fs)


class TestFiltersDesignedOnce:
    @pytest.mark.parametrize("fs", [250.0, 125.0])
    def test_coefficients_equal_a_fresh_design(self, fs):
        nyq = fs / 2.0
        designs = [
            (butter_filter(2, QRS_BAND_HZ, "band", fs), butter(2, [QRS_BAND_HZ[0] / nyq, QRS_BAND_HZ[1] / nyq], btype="band")),
            (butter_filter(2, PULSE_LOWPASS_HZ, "low", fs), butter(2, PULSE_LOWPASS_HZ / nyq, btype="low")),
        ]
        if fs == 250.0:  # the resampler's anti-alias filter
            designs.append((butter_filter(4, 50.0, "low", fs), butter(4, 50.0 / nyq, btype="low")))
        for design, (b_fresh, a_fresh) in designs:
            assert np.array_equal(design.b, b_fresh) and np.array_equal(design.a, a_fresh)
            assert np.array_equal(design.zi, lfilter_zi(b_fresh, a_fresh))

    def test_shared_and_read_only(self):
        design = butter_filter(2, QRS_BAND_HZ, "band", 250.0)
        again = butter_filter(2, QRS_BAND_HZ, "band", 250.0)
        for array, shared in zip(design, again):
            assert shared is array
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_threads_match_one_thread(self, beat_record):
        rec, _ = beat_record
        alone = detect_qrs(rec.samples[0], rec.sample_rate)
        workers = 2 * (os.cpu_count() or 2)  # more threads than cores
        start = threading.Barrier(workers, timeout=30)

        def detect(_):
            start.wait()
            return detect_qrs(rec.samples[0], rec.sample_rate)

        butter_filter.cache_clear()  # every thread races to design the filter
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(workers) as pool:
                futures = [pool.submit(detect, i) for i in range(workers)]
                together = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for indices in together:
            assert np.array_equal(indices, alone)


def detect_qrs_loop(samples, fs):
    """The QRS detector with its threshold loop on numpy scalars and
    SciPy's ``filtfilt``, as it ran before the loop moved to Python
    floats and the filter to ``zero_phase``; kept as the oracle."""
    x = np.nan_to_num(np.asarray(samples, dtype=np.float64), nan=0.0)
    design = butter_filter(2, QRS_BAND_HZ, "band", fs)
    w = int(round(QRS_INTEGRATE_S * fs))
    energy = np.convolve(np.gradient(filtfilt(design.b, design.a, x)) ** 2, np.ones(w) / w, mode="same")
    spacing = int(round(QRS_REFRACTORY_S * fs))
    peaks, _ = find_peaks(energy, distance=spacing)
    if len(peaks) == 0:
        return np.empty(0, dtype=np.int64)
    signal_level = 0.5 * np.percentile(energy[peaks], 75)
    noise_level = 0.1 * np.percentile(energy[peaks], 25)
    floor = 1e-10 + 0.01 * energy.max()
    accepted = []
    last = -spacing
    for p in peaks:
        v = energy[p]
        threshold = noise_level + 0.25 * (signal_level - noise_level)
        if v > max(threshold, floor) and p - last >= spacing:
            accepted.append(int(p))
            last = int(p)
            signal_level = 0.125 * v + 0.875 * signal_level
        else:
            noise_level = 0.125 * v + 0.875 * noise_level
    return np.asarray(accepted, dtype=np.int64)


def mutated_leads(record, seed):
    """Each ECG lead of the record, then copies with NaN bursts, a flat
    stretch, and a lead flat throughout."""
    rng = np.random.default_rng(seed)
    for i in record.channels_of_kind(ChannelKind.ECG):
        x = record.samples[i]
        yield x
        gaps = x.copy()
        for start in rng.integers(0, len(x) - 800, size=3):
            gaps[start : start + rng.integers(1, 800)] = np.nan
        yield gaps
        flat = x.copy()
        start = rng.integers(0, len(x) - 3000)
        flat[start : start + 3000] = flat[start]
        yield flat
        yield np.full(len(x), x[0])


def equal_height_train(fs=250.0, seconds=30.0, period_s=0.6):
    """Identical spikes at a fixed period, the first 0.4 s in: once the
    filters settle, many energy peaks are equal to the last bit."""
    x = np.zeros(int(seconds * fs))
    x[int(0.4 * fs) :: int(period_s * fs)] = 1.0
    return x


class TestQrsThresholdLoopMatchesTheOracle:
    def test_suite_and_mutations(self, suite):
        for k, (spec, record, _) in enumerate(suite):
            for x in mutated_leads(record, seed=k):
                assert np.array_equal(detect_qrs(x, record.sample_rate), detect_qrs_loop(x, record.sample_rate))

    def test_peaks_of_equal_height(self):
        x = equal_height_train()
        design = butter_filter(2, QRS_BAND_HZ, "band", 250.0)
        w = int(round(QRS_INTEGRATE_S * 250.0))
        energy = np.convolve(np.gradient(filtfilt(design.b, design.a, x)) ** 2, np.ones(w) / w, mode="same")
        heights = energy[find_peaks(energy, distance=int(round(QRS_REFRACTORY_S * 250.0)))[0]]
        assert len(np.unique(heights)) < len(heights)  # the tie is really there
        got = detect_qrs(x, 250.0)
        assert len(got) >= 45
        assert np.array_equal(got, detect_qrs_loop(x, 250.0))

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.3), st.sampled_from([125.0, 250.0]))
    @settings(max_examples=25, deadline=None)
    def test_noisy_trains(self, seed, noise, fs):
        rng = np.random.default_rng(seed)
        x = equal_height_train(fs=fs, seconds=12.0, period_s=rng.uniform(0.3, 1.6))
        x += rng.normal(0.0, noise, len(x))
        x[rng.random(len(x)) < 0.01] = np.nan
        assert np.array_equal(detect_qrs(x, fs), detect_qrs_loop(x, fs))


@st.composite
def percentile_samples(draw):
    """1 to 500 values drawn from a pool of 1 to 500 distinct ones: ties
    when the pool is small, a constant array when it holds one."""
    n = draw(st.integers(1, 500))
    pool = draw(st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=draw(st.integers(1, n))))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return np.array(pool)[picks]


class TestPercentilesMatchNumpy:
    @given(percentile_samples(), st.sampled_from([(75, 25), (90,), (25,), (75,)]))
    @example(np.array([3.5]), (75, 25))
    @example(np.full(17, -2.0), (90,))
    @example(np.array([1.0, 2.0]), (75, 25))
    @example(np.array([0.1, -0.54, 0.36]), (75,))  # g = 0.5, where the two forms of the rule differ in the last bit
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, a, qs):
        assert _percentiles(a, qs) == np.percentile(a, list(qs)).tolist()

    def test_nan_gives_nan(self):
        a = np.array([1.0, np.nan, 2.0, 5.0])
        assert all(np.isnan(v) for v in _percentiles(a, (75, 25)))
        assert np.isnan(np.percentile(a, [75, 25])).all()


class TestWithin:
    def test_keeps_the_positions_in_the_half_open_range(self):
        assert list(within(np.array([10, 20, 30, 40]), 15, 40)) == [20, 30]
