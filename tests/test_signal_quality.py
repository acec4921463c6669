from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import periodogram

from alarmsentinel import signal_quality
from alarmsentinel.errors import WindowTooShort, ZeroDenominator, ZeroVariance
from alarmsentinel.record_io import ChannelKind
from alarmsentinel.signal_quality import (
    FLAT_VARIANCE_FLOOR,
    FLAT_WINDOW_S,
    NOISE_EDGE_HZ,
    NOISE_FRACTION_MAX,
    NOISE_WINDOW_S,
    CleanMetrics,
    CleanThresholds,
    InvalidInterval,
    InvalidReason,
    assess_quality,
    band_fraction,
    channel_validity,
    clean_window_metrics,
    detect_invalid_segments,
    is_clean,
    merge_intervals,
    welch_psd,
)
from alarmsentinel.signal_quality import _flat_spans, _mask_to_spans, _noise_spans

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
        assert is_clean(CleanMetrics(0.5, 0.5, 2.0), CleanThresholds(0.4, 0.4, 1.0))

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


# The window-by-window rules the array versions replace, kept as oracles.
def flat_spans_loop(x, fs):
    n = len(x)
    w = int(round(FLAT_WINDOW_S * fs))
    if w < 2 or n < w:
        return []
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
    return _mask_to_spans(flat)


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
    return _mask_to_spans(noisy)


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
            got = _noise_spans(x, fs)
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
        assert _flat_spans(x, fs) == flat_spans_loop(x, fs)

    def test_flat_then_noise_trips_both_rules(self):
        """A flat stretch then broadband noise trips both rules."""
        fs = 250.0
        x = np.concatenate([np.full(700, 0.3), np.random.default_rng(1).normal(0.0, 1.0, 1100)])
        assert noise_spans_loop(x, fs) == _noise_spans(x, fs) == [(500, 1500)]
        assert flat_spans_loop(x, fs) == _flat_spans(x, fs) == [(0, 686)]
