import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import periodogram

from alarmsentinel import signal_quality
from alarmsentinel.errors import WindowTooShort, ZeroDenominator, ZeroVariance
from alarmsentinel.record_io import AlarmMeta, ChannelKind, ChannelMeta, Record
from alarmsentinel.signal_quality import (
    ABP_MAX_MMHG,
    ECG_MAX_MV,
    FLAT_VARIANCE_FLOOR,
    FLAT_WINDOW_S,
    NOISE_EDGE_HZ,
    NOISE_FRACTION_MAX,
    NOISE_WINDOW_S,
    CleanMetrics,
    InvalidInterval,
    InvalidReason,
    QualityReport,
    assess_quality,
    band_fraction,
    channel_validity,
    clean_window_metrics,
    detect_invalid_segments,
    is_clean,
    merge_intervals,
    welch_psd,
)
from alarmsentinel.signal_quality import _flat_spans, _noise_spans

FS = 250.0


def sine(freq, seconds=16.0, fs=FS, amp=1.0):
    t = np.arange(int(seconds * fs)) / fs
    return amp * np.sin(2 * np.pi * freq * t)


class TestInvalidSegments:
    def test_clean_signal_has_none(self):
        x = sine(10) * 0.8
        assert detect_invalid_segments(x, ChannelKind.ECG, FS) == []

    def test_missing_data(self):
        x = sine(10)
        x[100:200] = np.nan
        ivs = detect_invalid_segments(x, ChannelKind.ECG, FS)
        assert any(iv.reason is InvalidReason.MISSING_DATA and iv.start == 100 and iv.end == 200 for iv in ivs)

    def test_ecg_out_of_range(self):
        x = sine(10)
        x[50:60] = 11.0  # beyond the 10 mV physiologic bound
        ivs = detect_invalid_segments(x, ChannelKind.ECG, FS)
        assert any(iv.reason is InvalidReason.OUT_OF_RANGE and iv.start == 50 for iv in ivs)
        # exactly at the bound is still valid
        x[50:60] = 10.0
        assert not any(iv.reason is InvalidReason.OUT_OF_RANGE for iv in detect_invalid_segments(x, ChannelKind.ECG, FS))

    def test_abp_bounds_are_exclusive(self):
        x = np.full(4000, 80.0) + sine(1, seconds=16)
        x[100:150] = 0.0  # pressure at or below zero is non-physiologic
        x[200:250] = 300.0
        ivs = detect_invalid_segments(x, ChannelKind.ABP, FS)
        reasons = {(iv.start, iv.reason) for iv in ivs}
        assert (100, InvalidReason.OUT_OF_RANGE) in reasons
        assert (200, InvalidReason.OUT_OF_RANGE) in reasons

    def test_flat_line(self):
        x = sine(10)
        x[1000:2000] = 0.42
        ivs = detect_invalid_segments(x, ChannelKind.ECG, FS)
        flats = [iv for iv in ivs if iv.reason is InvalidReason.FLAT_LINE]
        assert flats, "a 4 s constant stretch must be flagged"
        assert flats[0].start >= 900 and flats[0].end <= 2100

    def test_spectral_noise(self):
        rng = np.random.default_rng(0)
        x = sine(10, amp=0.05)
        x[2000:3000] += rng.normal(0, 1.0, 1000)  # broadband noise burst
        ivs = detect_invalid_segments(x, ChannelKind.ECG, FS)
        assert any(iv.reason is InvalidReason.SPECTRAL_NOISE for iv in ivs)


class TestMergeIntervals:
    def test_overlap_merges_keeping_earliest_reason(self):
        merged = merge_intervals([
            InvalidInterval(0, 100, InvalidReason.OUT_OF_RANGE),
            InvalidInterval(50, 150, InvalidReason.FLAT_LINE),
        ])
        assert merged == [InvalidInterval(0, 150, InvalidReason.OUT_OF_RANGE)]

    def test_priority_wins_at_same_start(self):
        merged = merge_intervals([
            InvalidInterval(0, 80, InvalidReason.SPECTRAL_NOISE),
            InvalidInterval(0, 100, InvalidReason.MISSING_DATA),
        ])
        assert merged[0].reason is InvalidReason.MISSING_DATA

    def test_touching_same_reason_fuses(self):
        merged = merge_intervals([
            InvalidInterval(0, 50, InvalidReason.FLAT_LINE),
            InvalidInterval(50, 90, InvalidReason.FLAT_LINE),
        ])
        assert merged == [InvalidInterval(0, 90, InvalidReason.FLAT_LINE)]

    def test_touching_different_reasons_stay_separate(self):
        merged = merge_intervals([
            InvalidInterval(0, 50, InvalidReason.FLAT_LINE),
            InvalidInterval(50, 90, InvalidReason.MISSING_DATA),
        ])
        assert len(merged) == 2

    @given(
        st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 60), st.sampled_from(list(InvalidReason))),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_merged_intervals_are_sorted_and_disjoint(self, raw):
        intervals = [InvalidInterval(s, s + w, r) for s, w, r in raw]
        merged = merge_intervals(intervals)
        for a, b in zip(merged, merged[1:]):
            assert a.end <= b.start
            if a.end == b.start:
                assert a.reason is not b.reason
        total = sum(iv.end - iv.start for iv in merged)
        mask = np.zeros(400, dtype=bool)
        for iv in intervals:
            mask[iv.start : iv.end] = True
        assert total == int(mask.sum())


class TestSpectra:
    def test_welch_peak_at_tone(self):
        f, psd = welch_psd(sine(10), FS)
        assert abs(f[np.argmax(psd)] - 10.0) < 0.6

    def test_welch_too_short(self):
        with pytest.raises(WindowTooShort):
            welch_psd(np.zeros(100), FS, segment_seconds=2.0)

    def test_band_fraction_tone(self):
        spectrum = welch_psd(sine(10), FS)
        assert band_fraction(spectrum, 5, 15, 0, 40) > 0.97
        assert band_fraction(spectrum, 20, 30, 0, 40) < 0.02

    def test_band_fraction_validates_edges(self):
        spectrum = welch_psd(sine(10), FS)
        with pytest.raises(ValueError):
            band_fraction(spectrum, 15, 5, 0, 40)

    def test_band_fraction_zero_denominator(self):
        spectrum = (np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 0.0]))
        with pytest.raises(ZeroDenominator):
            band_fraction(spectrum, 0, 1, 0, 2)

    def test_white_noise_fraction_tracks_bandwidth(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 4000)
        spectrum = welch_psd(x, FS)
        frac = band_fraction(spectrum, 0, 40, 0, 125)
        assert abs(frac - 40 / 125) < 0.08


class TestCleanMetrics:
    def test_gaussian_noise_kurtosis_near_three(self):
        rng = np.random.default_rng(2)
        m = clean_window_metrics(rng.normal(0, 1, 1250), 125.0)
        assert abs(m.kurtosis - 3.0) < 0.2

    def test_sine_kurtosis_is_three_halves(self):
        m = clean_window_metrics(sine(10, seconds=10, fs=125.0), 125.0)
        assert abs(m.kurtosis - 1.5) < 0.05

    def test_wander_metric_flags_slow_oscillation(self):
        m = clean_window_metrics(sine(0.5, seconds=16, fs=125.0), 125.0)
        assert m.baseline_wander <= 0.05

    def test_power_ratio_of_in_band_tone(self):
        m = clean_window_metrics(sine(10, seconds=16, fs=125.0), 125.0)
        assert m.power_ratio >= 0.95

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            clean_window_metrics(np.full(2000, 1.0), 125.0)

    def test_is_clean_thresholds(self):
        assert is_clean(CleanMetrics(0.75, 0.9, 4.0))  # thresholds are inclusive
        assert not is_clean(CleanMetrics(0.74, 0.9, 4.0))
        assert not is_clean(CleanMetrics(0.75, 0.89, 4.0))
        assert not is_clean(CleanMetrics(0.75, 0.9, 3.99))

    def test_nan_metric_fails_closed(self):
        assert not is_clean(CleanMetrics(float("nan"), 0.95, 5.0))


class TestValidity:
    def test_channel_validity(self):
        ivs = [InvalidInterval(0, 100, InvalidReason.FLAT_LINE), InvalidInterval(300, 500, InvalidReason.MISSING_DATA)]
        assert channel_validity(ivs, 0, 1000) == pytest.approx(0.7)
        assert channel_validity(ivs, 500, 1000) == 1.0
        assert channel_validity([], 0, 10) == 1.0

    def test_assess_quality_offsets_to_record_coordinates(self, sinus_record):
        rec = sinus_record
        rec = type(rec)(rec.name, rec.sample_rate, rec.channels, rec.samples.copy(), rec.alarm)
        rec.samples[0, 20000:20100] = np.nan
        report = assess_quality(rec, window=(19000, 21000))
        assert report.window == (19000, 21000)
        target = [iv for iv in report.invalid[0] if iv.reason is InvalidReason.MISSING_DATA]
        assert target and target[0].start == 20000 and target[0].end == 20100
        assert report.validity[0] == pytest.approx(1 - 100 / 2000)

    def test_clean_record_fully_valid(self, sinus_record):
        report = assess_quality(sinus_record)
        assert all(v == 1.0 for v in report.validity)
        assert all(not ivs for ivs in report.invalid)


# The one-channel, window-by-window rules the matrix screen replaces, kept as oracles.
def mask_spans_loop(mask):
    padded = np.concatenate(([0], mask.astype(np.int8), [0]))
    edges = np.flatnonzero(np.diff(padded))
    return [(int(edges[i]), int(edges[i + 1])) for i in range(0, len(edges), 2)]


def flat_spans_loop(x, fs):
    n = len(x)
    w = int(round(FLAT_WINDOW_S * fs))
    if w < 2 or n < w:
        return []
    with warnings.catch_warnings():  # an all-gap channel has no mean
        warnings.simplefilter("ignore", RuntimeWarning)
        centred = x - np.nanmean(x)
    filled = np.nan_to_num(centred, nan=0.0)
    c1 = np.concatenate(([0.0], np.cumsum(filled)))
    c2 = np.concatenate(([0.0], np.cumsum(filled * filled)))
    cn = np.concatenate(([0], np.cumsum(np.isnan(x).astype(np.int64))))
    hop = max(1, w // 8)
    starts = np.arange(0, n - w + 1, hop)
    if starts[-1] != n - w:
        starts = np.append(starts, n - w)
    flat = np.zeros(n, dtype=bool)
    for s in starts:
        e = s + w
        if cn[e] - cn[s]:
            continue
        mean = (c1[e] - c1[s]) / w
        var = max((c2[e] - c2[s]) / w - mean * mean, 0.0)
        if var < FLAT_VARIANCE_FLOOR:
            flat[s:e] = True
    return mask_spans_loop(flat)


def noise_spans_loop(x, fs):
    n = len(x)
    w = int(round(NOISE_WINDOW_S * fs))
    if w < 8 or n < w:
        return []
    noisy = np.zeros(n, dtype=bool)
    for s in range(0, n - w + 1, w):
        block = x[s : s + w]
        if np.isnan(block).any():
            continue
        f, psd = periodogram(block, fs=fs, detrend="constant")
        total = psd[f > 0].sum()
        if total <= 0:
            continue
        if psd[f > NOISE_EDGE_HZ].sum() / total > NOISE_FRACTION_MAX:
            noisy[s : s + w] = True
    return mask_spans_loop(noisy)


def invalid_segments_loop(x, kind, fs):
    """One channel's screen, rule by rule."""
    found = [InvalidInterval(s, e, InvalidReason.MISSING_DATA) for s, e in mask_spans_loop(np.isnan(x))]
    with np.errstate(invalid="ignore"):
        if kind is ChannelKind.ABP:
            bad = (x <= 0.0) | (x >= ABP_MAX_MMHG)
        elif kind is ChannelKind.ECG:
            bad = np.abs(x) > ECG_MAX_MV
        else:
            bad = np.zeros(len(x), dtype=bool)
    bad &= ~np.isnan(x)
    found += [InvalidInterval(s, e, InvalidReason.OUT_OF_RANGE) for s, e in mask_spans_loop(bad)]
    found += [InvalidInterval(s, e, InvalidReason.FLAT_LINE) for s, e in flat_spans_loop(x, fs)]
    if kind is ChannelKind.ECG:
        found += [InvalidInterval(s, e, InvalidReason.SPECTRAL_NOISE) for s, e in noise_spans_loop(x, fs)]
    return merge_intervals(found)


def assess_quality_loop(record, window=None):
    """The report channel by channel, in record coordinates."""
    start, end = window if window is not None else (0, record.n_samples)
    report = QualityReport(window=(start, end))
    for i, ch in enumerate(record.channels):
        intervals = invalid_segments_loop(record.samples[i, start:end], ch.kind, record.sample_rate)
        for iv in intervals:
            iv.start += start
            iv.end += start
        report.invalid.append(intervals)
        report.validity.append(channel_validity(intervals, start, end))
    return report


@st.composite
def screened_signals(draw):
    """A channel pieced together from tones, white noise (mostly above
    40 Hz), flat stretches and gaps, at a length that is rarely a
    whole number of blocks."""
    fs = draw(st.sampled_from([125.0, 250.0]))
    pieces = draw(st.lists(
        st.tuples(
            st.sampled_from(["tone", "noise", "flat", "gap"]),
            st.integers(1, 700),
            st.floats(0.5, 60.0),
            st.floats(1e-3, 5.0),
        ),
        min_size=1, max_size=8,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for kind, n, freq, amp in pieces:
        if kind == "tone":
            parts.append(amp * np.sin(2 * np.pi * freq * np.arange(n) / fs))
        elif kind == "noise":
            parts.append(rng.normal(0.0, amp, n))
        elif kind == "flat":
            parts.append(np.full(n, amp))
        else:
            parts.append(np.full(n, np.nan))
    return np.concatenate(parts), fs


def gap_in_every_block(fs=250.0):
    x = np.random.default_rng(3).normal(0.0, 1.0, 2300)
    x[:: int(NOISE_WINDOW_S * fs) - 1] = np.nan
    return x, fs


class TestArrayRulesMatchTheLoops:
    @given(screened_signals())
    @example(gap_in_every_block())
    @example((np.full(1700, np.nan), 250.0))
    @settings(max_examples=150, deadline=None)
    def test_noise_spans(self, signal):
        x, fs = signal
        with mock.patch.object(signal_quality, "periodogram", wraps=periodogram) as spectrum:
            (got,) = _noise_spans(x[np.newaxis], fs)
        assert got == noise_spans_loop(x, fs)
        # one spectrum call per channel, and a block with a gap never reaches it
        assert spectrum.call_count <= 1
        for call in spectrum.call_args_list:
            assert not np.isnan(call.args[0]).any()

    @given(screened_signals())
    @example(gap_in_every_block())
    @example((np.full(1700, np.nan), 250.0))
    @settings(max_examples=150, deadline=None)
    def test_flat_spans(self, signal):
        x, fs = signal
        assert _flat_spans(x[np.newaxis], fs) == [flat_spans_loop(x, fs)]

    def test_dead_lead_reports_without_a_warning(self, sinus_record):
        rec = sinus_record
        samples = rec.samples.copy()
        samples[1] = np.nan
        dead = type(rec)(rec.name, rec.sample_rate, rec.channels, samples, rec.alarm)
        rows_loop = lambda x, fs: [flat_spans_loop(row, fs) for row in x]  # noqa: E731
        with mock.patch.object(signal_quality, "_flat_spans", rows_loop):
            expected = assess_quality(dead)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = assess_quality(dead)
        assert report == expected
        assert report.invalid[1] == [InvalidInterval(0, samples.shape[1], InvalidReason.MISSING_DATA)]
        assert report.validity[1] == 0.0

    def test_flat_then_noise_trips_both_rules(self):
        """A flat stretch then broadband noise trips both rules."""
        fs = 250.0
        x = np.concatenate([np.full(700, 0.3), np.random.default_rng(1).normal(0.0, 1.0, 1100)])
        assert [noise_spans_loop(x, fs)] == _noise_spans(x[np.newaxis], fs) == [[(500, 1500)]]
        assert [flat_spans_loop(x, fs)] == _flat_spans(x[np.newaxis], fs) == [[(0, 686)]]


_BASELINES = {
    ChannelKind.ECG: lambda t: 0.8 * np.sin(2 * np.pi * 1.2 * t),
    ChannelKind.ABP: lambda t: 90.0 + 20.0 * np.sin(2 * np.pi * 1.2 * t),
    ChannelKind.PPG: lambda t: 1.0 + 0.5 * np.sin(2 * np.pi * 1.2 * t),
    ChannelKind.RESP: lambda t: 0.3 * np.sin(2 * np.pi * 0.25 * t),
}
_SPIKES = {ChannelKind.ECG: 12.0, ChannelKind.ABP: 320.0, ChannelKind.PPG: -5.0, ChannelKind.RESP: 400.0}


@st.composite
def screened_records(draw):
    """A record of one to five channels of mixed kinds, each marred by
    gaps, flat stretches, out-of-range spikes and broadband noise, or
    missing throughout; a window that is rarely a whole number of
    blocks, or none."""
    fs = draw(st.sampled_from([125.0, 250.0]))
    n = draw(st.integers(1, 3000))
    kinds = draw(st.lists(st.sampled_from(list(_BASELINES)), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n) / fs
    samples = np.empty((len(kinds), n))
    for i, kind in enumerate(kinds):
        samples[i] = _BASELINES[kind](t)
        marks = st.tuples(
            st.sampled_from(["gap", "flat", "spike", "noise", "dead"]), st.integers(0, n - 1), st.integers(1, 900),
        )
        for mark, start, length in draw(st.lists(marks, max_size=4)):
            span = slice(start, start + length)
            if mark == "gap":
                samples[i, span] = np.nan
            elif mark == "flat":
                samples[i, span] = samples[i, start]
            elif mark == "spike":
                samples[i, span] = _SPIKES[kind]
            elif mark == "noise":
                samples[i, span] += rng.normal(0.0, 2.0, len(samples[i, span]))
            else:
                samples[i] = np.nan
    channels = [ChannelMeta(f"c{i}", kind, "u", 200.0, 0) for i, kind in enumerate(kinds)]
    record = Record("screened", fs, channels, samples, AlarmMeta(None, None, n))
    if draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        return record, (start, draw(st.integers(start + 1, n)))
    return record, None


def one_channel_record():
    rng = np.random.default_rng(5)
    x = 0.05 * np.sin(np.arange(2600) / 10.0)
    x[700:1300] += rng.normal(0.0, 1.0, 600)
    x[2000:2100] = np.nan
    channels = [ChannelMeta("II", ChannelKind.ECG, "mV", 200.0, 0)]
    return Record("one", 250.0, channels, x[np.newaxis], AlarmMeta(None, None, 2600)), (100, 2550)


def one_dead_channel_record():
    samples = np.vstack([90.0 + np.zeros(1800), np.full(1800, np.nan)])
    channels = [ChannelMeta("ABP", ChannelKind.ABP, "mmHg", 20.0, 0), ChannelMeta("II", ChannelKind.ECG, "mV", 200.0, 0)]
    return Record("dead", 250.0, channels, samples, AlarmMeta(None, None, 1800)), None


class TestMatrixScreenMatchesPerChannel:
    @given(screened_records())
    @example(one_channel_record())
    @example(one_dead_channel_record())
    @settings(max_examples=120, deadline=None)
    def test_report_matches_the_channel_loop(self, drawn):
        record, window = drawn
        with mock.patch.object(signal_quality, "periodogram", wraps=periodogram) as spectrum:
            report = assess_quality(record, window)
        assert report == assess_quality_loop(record, window)
        assert spectrum.call_count <= 1  # one spectrum call over the ECG blocks of every channel
        start, end = report.window
        for i, ch in enumerate(record.channels):
            x = record.samples[i, start:end]
            assert detect_invalid_segments(x, ch.kind, record.sample_rate) == invalid_segments_loop(x, ch.kind, record.sample_rate)

    def test_rows_are_screened_apart(self):
        """A row's spans never leak into its neighbours."""
        x = np.zeros((3, 1200))
        x[0, :600] = np.nan
        x[2, 1100:] = np.nan
        assert _noise_spans(x, 250.0) == [[], [], []]
        # a flat window holds no gap, and the 2 s windows step by 62 samples
        assert _flat_spans(x, 250.0) == [flat_spans_loop(row, 250.0) for row in x] == [
            [(620, 1200)], [(0, 1200)], [(0, 1058)],
        ]
