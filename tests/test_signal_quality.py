import warnings
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import periodogram, welch

from alarmsentinel import signal_quality
from alarmsentinel.errors import AlarmSentinelError, WindowTooShort, ZeroDenominator, ZeroVariance
from alarmsentinel.record_io import AlarmMeta, ChannelKind, ChannelMeta, Record, butter_filter, zero_phase
from alarmsentinel.signal_quality import (
    ABP_MAX_MMHG,
    ECG_MAX_MV,
    FLAT_VARIANCE_FLOOR,
    FLAT_WINDOW_S,
    NOISE_EDGE_HZ,
    NOISE_FRACTION_MAX,
    NOISE_WINDOW_S,
    CleanMetrics,
    QualityReport,
    assess_quality,
    clean_window_metrics,
    is_clean,
    spread,
)
from alarmsentinel.signal_quality import _band_power, _density, _flat_mask, _invalid_mask, _noise_mask

FS = 250.0
# SciPy 1.17 computes periodogram and welch with _density's operations in their
# order, bit for bit; older releases (the 1.13 floor) scale the squared spectrum
# rather than the window and may differ in the last bits
SCIPY_SHARES_DENSITY_BITS = tuple(int(p) for p in scipy.__version__.split(".")[:2]) >= (1, 17)


def sine(freq, seconds=16.0, fs=FS, amp=1.0):
    t = np.arange(int(seconds * fs)) / fs
    return amp * np.sin(2 * np.pi * freq * t)


def invalid_row(x, kind, fs=FS):
    """The screen's invalid mask of one channel."""
    return _invalid_mask(np.asarray(x, dtype=np.float64)[np.newaxis], [kind], fs)[0]


class TestInvalidSegments:
    def test_clean_signal_has_none(self):
        x = sine(10) * 0.8
        assert not invalid_row(x, ChannelKind.ECG).any()

    def test_missing_data(self):
        x = sine(10)
        x[100:200] = np.nan
        assert np.flatnonzero(invalid_row(x, ChannelKind.ECG)).tolist() == list(range(100, 200))

    def test_ecg_out_of_range(self):
        x = sine(10)
        x[50:60] = 11.0  # beyond the 10 mV physiologic bound
        assert np.flatnonzero(invalid_row(x, ChannelKind.ECG)).tolist() == list(range(50, 60))
        # exactly at the bound is still valid
        x[50:60] = 10.0
        assert not invalid_row(x, ChannelKind.ECG).any()

    def test_abp_bounds_are_exclusive(self):
        x = np.full(4000, 80.0) + sine(1, seconds=16)
        x[100:150] = 0.0  # pressure at or below zero is non-physiologic
        x[200:250] = 300.0
        mask = invalid_row(x, ChannelKind.ABP)
        assert np.flatnonzero(mask).tolist() == list(range(100, 150)) + list(range(200, 250))

    def test_flat_line(self):
        x = sine(10)
        x[1000:2000] = 0.42
        flat = np.flatnonzero(invalid_row(x, ChannelKind.ECG))
        assert len(flat), "a 4 s constant stretch must be flagged"
        assert flat[0] >= 900 and flat[-1] < 2100

    def test_spectral_noise(self):
        rng = np.random.default_rng(0)
        x = sine(10, amp=0.05)
        x[2000:3000] += rng.normal(0, 1.0, 1000)  # broadband noise burst
        # the burst fills two whole 2 s blocks, and only ECG channels are screened for noise
        assert np.flatnonzero(invalid_row(x, ChannelKind.ECG)).tolist() == list(range(2000, 3000))
        assert not invalid_row(x, ChannelKind.RESP).any()


class TestSpectra:
    def test_welch_peak_at_tone(self):
        seen = []

        def spy(segments, *args):
            seen.append((segments.shape[-1], *_density(segments, *args)))
            return seen[-1][1:]

        with mock.patch.object(signal_quality, "_density", spy):
            clean_window_metrics(sine(10, fs=125.0), 125.0)
        ((nperseg, f, psd),) = seen
        assert nperseg == 500  # 4 s segments
        assert abs(f[np.argmax(psd.mean(axis=0))] - 10.0) < 0.3

    def test_welch_too_short(self):
        x = np.random.default_rng(1).normal(0.0, 1.0, 499)  # one sample short of a 4 s segment
        with pytest.raises(WindowTooShort):
            clean_window_metrics(x, 125.0)

    def test_band_fraction_tone(self):
        assert clean_window_metrics(sine(10, fs=125.0), 125.0).power_ratio > 0.97
        assert clean_window_metrics(sine(25, fs=125.0), 125.0).power_ratio < 0.02
        assert clean_window_metrics(sine(25, fs=125.0), 125.0).baseline_wander > 0.98

    def test_band_fraction_zero_denominator(self):
        def silent(segments, fs, window, nfft):
            f = np.arange(nfft // 2 + 1) * fs / nfft
            return f, np.zeros((len(segments), len(f)))

        with mock.patch.object(signal_quality, "_density", silent), pytest.raises(ZeroDenominator):
            clean_window_metrics(sine(10, fs=125.0), 125.0)

    def test_white_noise_fraction_tracks_bandwidth(self):
        x = np.random.default_rng(5).normal(0, 1, 2000)
        m = clean_window_metrics(x, 125.0)
        assert abs(m.power_ratio - 10 / 35) < 0.08  # 5-15 Hz of 5-40 Hz
        assert abs((1.0 - m.baseline_wander) - 1 / 40) < 0.02  # 0-1 Hz of 0-40 Hz


def welch_psd_oracle(samples, fs, segment_seconds=2.0):
    """The averaged spectrum the clean metrics once took from a public
    ``welch_psd``, kept as an oracle."""
    x = np.asarray(samples, dtype=np.float64)
    nperseg = int(round(segment_seconds * fs))
    if len(x) < nperseg:
        raise WindowTooShort(f"window of {len(x)} samples is shorter than one {nperseg}-sample segment")
    return welch(x, fs=fs, window="hann", nperseg=nperseg, noverlap=nperseg // 2, detrend="constant", scaling="density")


def band_fraction_oracle(spectrum, f_lo, f_hi, f_lo2, f_hi2):
    """Power in [f_lo, f_hi] as a fraction of power in [f_lo2, f_hi2],
    as the public ``band_fraction`` computed it."""
    if not (0 <= f_lo < f_hi) or not (0 <= f_lo2 < f_hi2):
        raise ValueError("band edges must satisfy 0 <= lo < hi")
    f, psd = spectrum
    denom = _band_power(f, psd, f_lo2, f_hi2)
    if denom == 0.0:
        raise ZeroDenominator(f"no power in reference band [{f_lo2}, {f_hi2}] Hz")
    return _band_power(f, psd, f_lo, f_hi) / denom


def clean_window_metrics_oracle(window, fs):
    """The clean metrics composed from the two oracles above."""
    x = np.asarray(window, dtype=np.float64)
    sigma = float(np.std(x))
    if sigma <= 1e-12 * np.max(np.abs(x)):  # constant up to rounding
        raise ZeroVariance("metrics undefined on a constant window")
    spectrum = welch_psd_oracle(x, fs, segment_seconds=4.0)
    wander = 1.0 - band_fraction_oracle(spectrum, 0.0, 1.0, 0.0, 40.0)
    ratio = band_fraction_oracle(spectrum, 5.0, 15.0, 5.0, 40.0)
    kurt = float(np.mean(((x - np.mean(x)) / sigma) ** 4))
    return CleanMetrics(wander, ratio, kurt)


@st.composite
def clean_windows(draw):
    """A 10 s window at 125 Hz: a tone, white noise, slow wander (under
    1 Hz) or a constant, overlaid with more of them and with gaps."""
    fs = 125.0
    n = int(10 * fs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["tone", "noise", "wander", "constant", "gap"])

    def piece(kind, length):
        amp = draw(st.floats(1e-3, 5.0))
        t = np.arange(length) / fs
        if kind == "tone":
            return amp * np.sin(2 * np.pi * draw(st.floats(0.5, 60.0)) * t)
        if kind == "noise":
            return rng.normal(0.0, amp, length)
        if kind == "wander":
            return amp * np.sin(2 * np.pi * draw(st.floats(0.05, 1.0)) * t)
        return np.full(length, amp if kind == "constant" else np.nan)

    x = piece(draw(kinds), n)
    for kind, start, length in draw(st.lists(st.tuples(kinds, st.integers(0, n - 1), st.integers(1, n)), max_size=4)):
        span = slice(start, min(n, start + length))
        if kind in ("constant", "gap"):
            x[span] = piece(kind, span.stop - start)
        else:
            x[span] += piece(kind, span.stop - start)
    return x


def metrics_or_error(fn, x):
    try:
        return np.array(fn(x, 125.0)).tobytes()
    except AlarmSentinelError as exc:
        return type(exc)


class TestCleanMetricsMatchTheOracle:
    @given(clean_windows())
    @example(np.full(1250, 0.3))
    @example(np.full(1250, np.nan))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_or_the_same_error(self, x):
        got, expected = metrics_or_error(clean_window_metrics, x), metrics_or_error(clean_window_metrics_oracle, x)
        if SCIPY_SHARES_DENSITY_BITS or not isinstance(got, bytes) or not isinstance(expected, bytes):
            assert got == expected
        else:
            np.testing.assert_allclose(np.frombuffer(got), np.frombuffer(expected), rtol=1e-12, atol=1e-12)


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

    def test_constant_up_to_rounding_is_zero_variance(self):
        x = np.full(1250, 0.18)
        assert np.std(x) > 0.0  # the mean rounds away from 0.18
        with pytest.raises(ZeroVariance):
            clean_window_metrics(x, 125.0)

    def test_is_clean_thresholds(self):
        assert is_clean(CleanMetrics(0.75, 0.9, 4.0))  # thresholds are inclusive
        assert not is_clean(CleanMetrics(0.74, 0.9, 4.0))
        assert not is_clean(CleanMetrics(0.75, 0.89, 4.0))
        assert not is_clean(CleanMetrics(0.75, 0.9, 3.99))

    def test_nan_metric_fails_closed(self):
        assert not is_clean(CleanMetrics(float("nan"), 0.95, 5.0))


class TestSpread:
    def test_rounding_of_a_constant_reads_as_zero(self):
        for value in (0.18, -3.7, 1e4):
            assert spread(np.full(1250, value)) == 0.0
        assert spread(np.zeros(10)) == 0.0

    def test_anti_alias_ripple_on_a_flat_stretch_reads_as_zero(self):
        rng = np.random.default_rng(5)
        x = np.concatenate((rng.normal(0.0, 1.0, 500), np.full(2500, 0.4), rng.normal(0.0, 1.0, 500)))
        flat = zero_phase(butter_filter(4, 50.0, "low", 250.0), x)[1000:2500]  # away from the edge transients
        assert np.std(flat) > 0.0
        assert spread(flat) == 0.0

    def test_a_small_signal_on_a_large_offset_keeps_its_spread(self):
        x = 500.0 + 1e-3 * sine(10.0, seconds=4.0)  # one count of a 16-bit signal in mV
        assert spread(x) == float(np.std(x)) > 0.0

    def test_non_finite_left_as_numpy_reads_it(self):
        assert np.isnan(spread(np.array([1.0, np.nan, 2.0])))


class TestValidity:
    def test_assess_quality_offsets_to_record_coordinates(self, sinus_record):
        rec = sinus_record
        rec = type(rec)(rec.name, rec.sample_rate, rec.channels, rec.samples.copy(), rec.alarm)
        rec.samples[0, 20000:20100] = np.nan
        rec.samples[0, 10000:10100] = np.nan  # outside the window
        report = assess_quality(rec, window=(19000, 21000))
        assert report.window == (19000, 21000)
        assert report.validity[0] == pytest.approx(1 - 100 / 2000)
        assert report.validity[1:] == [1.0] * (rec.n_channels - 1)

    def test_clean_record_fully_valid(self, sinus_record):
        report = assess_quality(sinus_record)
        assert all(v == 1.0 for v in report.validity)


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


def paint(spans, n):
    """A length-``n`` mask that is True on each half-open span."""
    mask = np.zeros(n, dtype=bool)
    for s, e in spans:
        mask[s:e] = True
    return mask


def invalid_mask_loop(x, kind, fs):
    """One channel's screen, rule by rule, painted on one mask."""
    spans = mask_spans_loop(np.isnan(x))
    with np.errstate(invalid="ignore"):
        if kind is ChannelKind.ABP:
            bad = (x <= 0.0) | (x >= ABP_MAX_MMHG)
        elif kind is ChannelKind.ECG:
            bad = np.abs(x) > ECG_MAX_MV
        else:
            bad = np.zeros(len(x), dtype=bool)
    bad &= ~np.isnan(x)
    spans += mask_spans_loop(bad) + flat_spans_loop(x, fs)
    if kind is ChannelKind.ECG:
        spans += noise_spans_loop(x, fs)
    return paint(spans, len(x))


def assess_quality_loop(record, window=None):
    """The (channels, samples) invalid mask of the window, channel by
    channel, and the report it gives."""
    start, end = window if window is not None else (0, record.n_samples)
    mask = np.array([
        invalid_mask_loop(record.samples[i, start:end], ch.kind, record.sample_rate)
        for i, ch in enumerate(record.channels)
    ])
    return mask, QualityReport((start, end), [1.0 - int(row.sum()) / (end - start) for row in mask])


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
        with mock.patch.object(signal_quality, "_density", wraps=_density) as spectrum:
            (got,) = _noise_mask(x[np.newaxis], fs)
        np.testing.assert_array_equal(got, paint(noise_spans_loop(x, fs), len(x)))
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
        (got,) = _flat_mask(x[np.newaxis], fs)
        np.testing.assert_array_equal(got, paint(flat_spans_loop(x, fs), len(x)))

    def test_dead_lead_reports_without_a_warning(self, sinus_record):
        rec = sinus_record
        samples = rec.samples.copy()
        samples[1] = np.nan
        dead = type(rec)(rec.name, rec.sample_rate, rec.channels, samples, rec.alarm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = assess_quality(dead)
        assert report.validity[1] == 0.0
        assert report == assess_quality_loop(dead)[1]

    def test_flat_then_noise_trips_both_rules(self):
        """A flat stretch then broadband noise trips both rules."""
        fs = 250.0
        x = np.concatenate([np.full(700, 0.3), np.random.default_rng(1).normal(0.0, 1.0, 1100)])
        assert noise_spans_loop(x, fs) == [(500, 1500)]
        np.testing.assert_array_equal(_noise_mask(x[np.newaxis], fs), [paint([(500, 1500)], len(x))])
        assert flat_spans_loop(x, fs) == [(0, 686)]
        np.testing.assert_array_equal(_flat_mask(x[np.newaxis], fs), [paint([(0, 686)], len(x))])


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
        with mock.patch.object(signal_quality, "_density", wraps=_density) as spectrum:
            report = assess_quality(record, window)
        mask, expected = assess_quality_loop(record, window)
        assert report == expected
        assert all(type(v) is float for v in report.validity)
        assert spectrum.call_count <= 1  # one spectrum call over the ECG blocks of every channel
        start, end = report.window
        kinds = [ch.kind for ch in record.channels]
        np.testing.assert_array_equal(_invalid_mask(record.samples[:, start:end], kinds, record.sample_rate), mask)
        # each channel screened alone gives its row of the matrix screen
        for row, kind, x in zip(mask, kinds, record.samples[:, start:end]):
            np.testing.assert_array_equal(_invalid_mask(x[np.newaxis], [kind], record.sample_rate)[0], row)

    def test_rows_are_screened_apart(self):
        """A row's spans never leak into its neighbours."""
        x = np.zeros((3, 1200))
        x[0, :600] = np.nan
        x[2, 1100:] = np.nan
        assert not _noise_mask(x, 250.0).any()
        # a flat window holds no gap, and the 2 s windows step by 62 samples
        spans = [[(620, 1200)], [(0, 1200)], [(0, 1058)]]
        assert [flat_spans_loop(row, 250.0) for row in x] == spans
        np.testing.assert_array_equal(_flat_mask(x, 250.0), [paint(row, 1200) for row in spans])


def assert_same_density(got, expected):
    """Bit for bit where SciPy shares _density's arithmetic, else to the last bits."""
    (f, psd), (f_ref, psd_ref) = got, expected
    np.testing.assert_array_equal(f, f_ref)
    if SCIPY_SHARES_DENSITY_BITS:
        np.testing.assert_array_equal(psd, psd_ref)
    else:
        # a bin that cancels (DC after the detrend) is held to the spectrum's scale
        np.testing.assert_allclose(psd, psd_ref, rtol=1e-12, atol=1e-12 * np.abs(psd_ref).max())


def welch_density(x, fs, nperseg):
    """Welch's average as clean_window_metrics takes it from _density."""
    f, psd = _density(sliding_window_view(x, nperseg)[:: nperseg - nperseg // 2], fs, "hann", nperseg)
    return f, np.ascontiguousarray(psd.T).mean(axis=-1)


class TestDensityMatchesScipy:
    """_density against the SciPy calls it replaces, for the three
    parameter sets of the package."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([125.0, 250.0]), st.integers(1, 16), st.floats(1e-3, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_noise_blocks(self, seed, fs, rows, scale):
        w = int(round(NOISE_WINDOW_S * fs))
        blocks = np.random.default_rng(seed).normal(scale, scale, (rows, w))
        assert_same_density(_density(blocks, fs, "boxcar", w), periodogram(blocks, fs=fs, detrend="constant", axis=-1))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([125.0, 250.0]), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_vf_windows(self, seed, fs, rows):
        win = int(round(2.0 * fs))
        t = np.arange(win) / fs
        rng = np.random.default_rng(seed)
        windows = np.sin(2 * np.pi * rng.uniform(1.0, 10.0, (rows, 1)) * t) + rng.normal(0.0, 0.3, (rows, win))
        expected = periodogram(windows, fs=fs, detrend="constant", nfft=max(1024, win), axis=-1)
        assert_same_density(_density(windows, fs, "boxcar", max(1024, win)), expected)

    @given(st.integers(0, 2**32 - 1), st.integers(500, 4000))
    @settings(max_examples=60, deadline=None)
    def test_clean_metric_segments(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, n) + 2.0 * np.sin(2 * np.pi * rng.uniform(0.1, 30.0) * np.arange(n) / 125.0)
        expected = welch(x, fs=125.0, window="hann", nperseg=500, noverlap=250, detrend="constant", scaling="density")
        assert_same_density(welch_density(x, 125.0, 500), expected)

    def test_nan_gives_nan_without_a_warning(self):
        x = np.random.default_rng(0).normal(0.0, 1.0, (3, 1250))
        x[0, 7] = np.nan
        x[2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, psd = _density(x[:, :250], 125.0, "boxcar", 250)
            _, vf = _density(x[:, :250], 125.0, "boxcar", 1024)
            _, averaged = welch_density(x[2], 125.0, 500)
        assert np.isnan(psd[[0, 2]]).all() and np.isnan(vf[[0, 2]]).all() and np.isnan(averaged).all()
        assert np.isfinite(psd[1]).all() and np.isfinite(vf[1]).all()


# The screen as it ran on SciPy's periodogram, kept as an oracle: flat windows
# from running sums written into a zero column, NaN counts for every window,
# and the open/close bookkeeping whether or not any window is flat.
def flat_mask_scipy(x, fs):
    rows, n = x.shape
    flat = np.zeros((rows, n), dtype=bool)
    w = int(round(FLAT_WINDOW_S * fs))
    nan = np.isnan(x)
    live = np.flatnonzero(~nan.all(axis=1))
    if w < 2 or n < w or len(live) == 0:
        return flat
    x, nan = x[live], nan[live]
    filled = np.nan_to_num(x - np.nanmean(x, axis=1, keepdims=True), copy=False, nan=0.0)
    c1 = np.zeros((len(live), n + 1))
    np.cumsum(filled, axis=1, out=c1[:, 1:])
    c2 = np.zeros((len(live), n + 1))
    np.cumsum(filled * filled, axis=1, out=c2[:, 1:])
    cn = np.zeros((len(live), n + 1), dtype=np.int64)
    np.cumsum(nan, axis=1, out=cn[:, 1:])
    hop = max(1, w // 8)
    starts = np.arange(0, n - w + 1, hop)
    if starts[-1] != n - w:
        starts = np.append(starts, n - w)
    ends = starts + w
    mean = (c1[:, ends] - c1[:, starts]) / w
    var = np.maximum((c2[:, ends] - c2[:, starts]) / w - mean * mean, 0.0)
    row, window = np.nonzero((var < FLAT_VARIANCE_FLOOR) & (cn[:, ends] == cn[:, starts]))
    opened = np.zeros((len(live), n + 1), dtype=np.int64)
    np.add.at(opened, (row, starts[window]), 1)
    np.add.at(opened, (row, ends[window]), -1)
    flat[live] = np.cumsum(opened[:, :n], axis=1) > 0
    return flat


def noise_mask_scipy(x, fs):
    rows, n = x.shape
    noisy = np.zeros((rows, n), dtype=bool)
    w = int(round(NOISE_WINDOW_S * fs))
    if w < 8 or n < w:
        return noisy
    per_row = n // w
    blocks = x[:, : per_row * w].reshape(rows * per_row, w)
    whole = np.flatnonzero(~np.isnan(blocks).any(axis=1))
    bad = np.zeros(len(blocks), dtype=bool)
    if len(whole):
        f, psd = periodogram(blocks[whole], fs=fs, detrend="constant", axis=-1)
        total = np.ascontiguousarray(psd[:, f > 0]).sum(axis=1)
        high = np.ascontiguousarray(psd[:, f > NOISE_EDGE_HZ]).sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            bad[whole] = (total > 0) & (high / total > NOISE_FRACTION_MAX)
    noisy[:, : per_row * w] = np.repeat(bad.reshape(rows, per_row), w, axis=1)
    return noisy


def invalid_mask_scipy(x, kinds, fs):
    is_abp = np.array([k is ChannelKind.ABP for k in kinds])[:, np.newaxis]
    is_ecg = np.array([k is ChannelKind.ECG for k in kinds])[:, np.newaxis]
    with np.errstate(invalid="ignore"):
        bad = (is_abp & ((x <= 0.0) | (x >= ABP_MAX_MMHG))) | (is_ecg & (np.abs(x) > ECG_MAX_MV))
    mask = np.isnan(x) | bad | flat_mask_scipy(x, fs)
    ecg = np.flatnonzero(is_ecg[:, 0])
    mask[ecg] |= noise_mask_scipy(x[ecg], fs)
    return mask


def screen_windows(record, rng):
    """The record's 16 s window before the alarm, then copies with a flat
    stretch, a NaN burst, an out-of-range run, N(0, 3) noise on one ECG
    lead, an all-NaN row, and windows shorter than 2 s and than 8 samples."""
    fs = record.sample_rate
    end = record.alarm.alarm_index
    x = record.samples[:, end - int(16 * fs) : end]
    kinds = [ch.kind for ch in record.channels]
    n = x.shape[1]
    yield x
    row = rng.integers(len(kinds))
    start = rng.integers(0, n - int(4 * fs))
    flat = x.copy()
    flat[row, start : start + int(3 * fs)] = flat[row, start]
    yield flat
    gaps = x.copy()
    gaps[row, start : start + rng.integers(1, int(3 * fs))] = np.nan
    yield gaps
    spikes = x.copy()
    spikes[row, start : start + 40] = {ChannelKind.ECG: 12.0, ChannelKind.ABP: 320.0}.get(kinds[row], -5.0)
    yield spikes
    noisy = x.copy()
    lead = rng.choice([i for i, k in enumerate(kinds) if k is ChannelKind.ECG])
    noisy[lead] += rng.normal(0.0, 3.0, n)
    yield noisy
    dead = x.copy()
    dead[row] = np.nan
    yield dead
    yield x[:, : int(1.5 * fs)]
    yield x[:, :5]


class TestScreenMatchesTheScipyOracle:
    def test_suite_windows_at_both_rates(self, suite):
        rng = np.random.default_rng(23)
        checked = 0
        for spec, record, _ in suite:
            kinds = [ch.kind for ch in record.channels]
            for x in screen_windows(record, rng):
                # every other sample is the same window at 125 Hz
                for window, fs in ((x, record.sample_rate), (x[:, ::2], record.sample_rate / 2)):
                    np.testing.assert_array_equal(_invalid_mask(window, kinds, fs), invalid_mask_scipy(window, kinds, fs))
                    checked += 1
        assert checked == 16 * len(suite)
