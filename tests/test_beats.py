import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import butter, periodogram

from alarmsentinel.beats import (
    PULSE_LOWPASS_HZ,
    QRS_BAND_HZ,
    VT_SPLIT_HZ,
    BeatAnnotation,
    BeatLabel,
    beat_segments,
    classify_beat_spectral,
    detect_pulses,
    detect_qrs,
    import_annotations,
    spectral_labels,
    window_heart_rate,
)
from alarmsentinel.errors import (
    IndexOutOfBounds,
    MalformedAnnotation,
    TooFewBeats,
    WindowTooShort,
)
from alarmsentinel.record_io import Arrhythmia, butter_filter, channel_kind
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
        assert truth_match(ann.indices, truth.beat_times, rec.sample_rate) > 0.98
        # no more than a few percent extra detections
        assert ann.count <= len(truth.beat_times) * 1.05

    def test_strictly_increasing_positions(self, beat_record):
        rec, _ = beat_record
        ann = detect_qrs(rec.samples[0], rec.sample_rate)
        assert np.all(np.diff(ann.indices) > 0)

    def test_refractory_spacing(self, beat_record):
        rec, _ = beat_record
        ann = detect_qrs(rec.samples[0], rec.sample_rate)
        assert np.diff(ann.indices).min() >= int(round(0.2 * rec.sample_rate))

    def test_flat_signal_yields_nothing(self):
        ann = detect_qrs(np.zeros(5000), 250.0)
        assert ann.count == 0

    def test_nan_tolerated(self, beat_record):
        rec, truth = beat_record
        x = rec.samples[0].copy()
        x[:500] = np.nan
        ann = detect_qrs(x, rec.sample_rate)
        later = [t for t in truth.beat_times if t > 4.0]
        assert truth_match(ann.indices, later, rec.sample_rate) > 0.95

    def test_wide_complexes_detected(self):
        spec = SynthSpec(name="vt", arrhythmia=Arrhythmia.VTACH, event=True, seed=33)
        rec, truth = generate(spec)
        ann = detect_qrs(rec.samples[0], rec.sample_rate)
        wide = [t for t, l in zip(truth.beat_times, truth.beat_labels) if l is BeatLabel.VENTRICULAR]
        assert len(wide) == spec.vt_beats
        assert truth_match(ann.indices, wide, rec.sample_rate) == 1.0


class TestPulseDetector:
    def test_finds_planned_pulses(self, beat_record):
        rec, truth = beat_record
        abp = rec.channel_index("ABP")
        ann = detect_pulses(rec.samples[abp], rec.sample_rate)
        # pulses lag beats by a fixed delay; alignment need only be consistent
        rr_truth = np.diff(truth.beat_times)
        rr_det = np.diff(ann.indices) / rec.sample_rate
        assert abs(len(rr_det) - len(rr_truth)) <= 3
        assert abs(np.median(rr_det) - np.median(rr_truth)) < 0.02

    def test_ppg_channel(self, beat_record):
        rec, truth = beat_record
        ppg = rec.channel_index("PLETH")
        ann = detect_pulses(rec.samples[ppg], rec.sample_rate)
        assert ann.count == pytest.approx(len(truth.beat_times), abs=3)


class TestImportAnnotations:
    def write(self, tmp_path, text):
        path = tmp_path / "ann.txt"
        path.write_text(text)
        return path

    def test_positions_only(self, tmp_path, beat_record):
        rec, _ = beat_record
        path = self.write(tmp_path, "# beat list\n100\n350\n600\n")
        ann = import_annotations(path, rec, channel=0)
        assert list(ann.indices) == [100, 350, 600]
        assert ann.labels is None

    def test_labels(self, tmp_path, beat_record):
        rec, _ = beat_record
        path = self.write(tmp_path, "100 N\n350 V\n600\n")
        ann = import_annotations(path, rec, channel=1)
        assert ann.channel == 1
        assert ann.labels == [BeatLabel.NORMAL, BeatLabel.VENTRICULAR, BeatLabel.UNKNOWN]

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
        ann = BeatAnnotation(0, idx)
        rates = window_heart_rate(ann, fs, k=5)
        assert np.allclose(rates, 120.0)
        assert len(rates) == 20 - 5 + 1

    def test_too_few(self):
        ann = BeatAnnotation(0, np.array([0, 100, 200]))
        with pytest.raises(TooFewBeats):
            window_heart_rate(ann, 250.0, k=4)

    def test_k_validation(self):
        ann = BeatAnnotation(0, np.array([0, 100]))
        with pytest.raises(ValueError):
            window_heart_rate(ann, 250.0, k=1)


class TestBeatSegments:
    def test_interior_proportions(self):
        idx = np.array([1000, 1300, 1600])
        segs = beat_segments(BeatAnnotation(0, idx))
        middle = segs[1]
        assert middle.beat == 1300
        assert middle.start == 1300 - 100  # one third of the previous interval
        assert middle.end == 1300 + 200  # two thirds of the next

    def test_boundary_beats_reuse_adjacent_interval(self):
        idx = np.array([1000, 1300, 1600])
        segs = beat_segments(BeatAnnotation(0, idx))
        assert segs[0].start == 1000 - 100
        assert segs[-1].end == 1600 + 200

    def test_requires_three(self):
        with pytest.raises(TooFewBeats):
            beat_segments(BeatAnnotation(0, np.array([0, 100])))

    @given(
        st.lists(st.integers(50, 400), min_size=2, max_size=18).map(
            lambda deltas: np.cumsum([1000] + deltas)
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_segments_tile_without_gap_or_overlap(self, idx):
        segs = beat_segments(BeatAnnotation(0, idx))
        for a, b in zip(segs, segs[1:]):
            assert a.end == b.start
        for seg, beat in zip(segs, idx):
            assert seg.start < beat < seg.end


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
        for (b, a), (b_fresh, a_fresh) in designs:
            assert np.array_equal(b, b_fresh) and np.array_equal(a, a_fresh)

    def test_shared_and_read_only(self):
        b, a = butter_filter(2, QRS_BAND_HZ, "band", 250.0)
        assert butter_filter(2, QRS_BAND_HZ, "band", 250.0)[0] is b
        for coefficients in (b, a):
            assert not coefficients.flags.writeable
            with pytest.raises(ValueError):
                coefficients[0] = 0.0

    def test_threads_match_one_thread(self, beat_record):
        rec, _ = beat_record
        alone = detect_qrs(rec.samples[0], rec.sample_rate).indices
        workers = 2 * (os.cpu_count() or 2)  # more threads than cores
        start = threading.Barrier(workers, timeout=30)

        def detect(_):
            start.wait()
            return detect_qrs(rec.samples[0], rec.sample_rate).indices

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


class TestWithin:
    def test_filters_labels_with_positions(self):
        ann = BeatAnnotation(0, np.array([10, 20, 30, 40]), [BeatLabel.NORMAL, BeatLabel.VENTRICULAR, BeatLabel.NORMAL, BeatLabel.UNKNOWN])
        sub = ann.within(15, 40)
        assert list(sub.indices) == [20, 30]
        assert sub.labels == [BeatLabel.VENTRICULAR, BeatLabel.NORMAL]
