"""Signal validity screening and clean-signal spectral metrics.

Two layers: hard validity rules that flag physically impossible or
unusable stretches per channel (missing data, out-of-range values,
flat lines, broadband noise), and softer spectral/statistical metrics
that decide whether an ECG window is clean enough to harvest beats.

The hard rules are matrix-at-a-time: each rule runs once over the
(channels x samples) window, every flat-line window of every channel
is judged from running sums in one pass, and the gap-free 2 s noise
blocks of all ECG channels are screened in one batched spectrum call.

The noise screen, the VF check of :mod:`alarm_logic` and the clean
metrics take their spectra from :func:`_density`, which does SciPy's
periodogram/Welch arithmetic directly on ``scipy.fft.rfft``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import rfft, rfftfreq
from scipy.signal import get_window

from .errors import WindowTooShort, ZeroDenominator, ZeroVariance
from .record_io import ChannelKind, Record

ABP_MAX_MMHG = 300.0
ECG_MAX_MV = 10.0
FLAT_WINDOW_S = 2.0
FLAT_VARIANCE_FLOOR = 1e-6
NOISE_WINDOW_S = 2.0
NOISE_EDGE_HZ = 40.0
NOISE_FRACTION_MAX = 0.5
# a window is clean enough to harvest beats when every metric reaches its minimum
CLEAN_WANDER_MIN = 0.75
CLEAN_POWER_RATIO_MIN = 0.9
CLEAN_KURTOSIS_MIN = 4.0
# 2 s segments resolve the 1 Hz wander edge too coarsely: slow wander leaks into the passband
CLEAN_SEGMENT_S = 4.0
# a spread at or below this share of the largest magnitude is rounding, not signal
FLAT_SPREAD_FLOOR = 1e-12


class CleanMetrics(NamedTuple):
    baseline_wander: float
    power_ratio: float
    kurtosis: float


@dataclass
class QualityReport:
    """Per-channel validity fractions for a window."""

    window: tuple[int, int]
    validity: list[float]


@cache
def _density_window(n: int, fs: float, window: str) -> np.ndarray:
    """SciPy's ``window`` of ``n`` samples, scaled so that squared
    spectra read as a density: by ``1 / sqrt(sum(w**2) * fs)``, summed
    with Python's ``sum`` as SciPy does."""
    w = get_window(window, n)
    w = w * (1 / np.sqrt(sum(w.real**2 + w.imag**2) / (1 / fs)))
    w.setflags(write=False)
    return w


def _density(segments: np.ndarray, fs: float, window: str, nfft: int) -> tuple[np.ndarray, np.ndarray]:
    """The one-sided power spectral density of each row of ``segments``
    (rows, samples), zero-padded to ``nfft``: the frequencies and one
    spectrum per row.

    Each row loses its mean, is multiplied by the scaled window, and
    goes through one real FFT; the squared magnitudes of every bin but
    DC and (for even ``nfft``) Nyquist are doubled. These are the
    operations, in their order, of SciPy's ``periodogram`` (``boxcar``,
    one segment per row) and of each segment of ``welch``, without the
    per-call set-up of SciPy's short-time FFT.
    """
    n = segments.shape[-1]
    detrended = segments - segments.mean(axis=-1, keepdims=True)
    spectrum = rfft(detrended * _density_window(n, fs, window), n=nfft, axis=-1)
    psd = spectrum.real**2 + spectrum.imag**2
    psd[..., 1 : -1 if nfft % 2 == 0 else None] *= 2
    return rfftfreq(nfft, 1 / fs), psd


def _flat_mask(x: np.ndarray, fs: float) -> np.ndarray:
    """Flat-line samples of each row of a (rows, samples) window."""
    rows, n = x.shape
    flat = np.zeros((rows, n), dtype=bool)
    w = int(round(FLAT_WINDOW_S * fs))
    if w < 2 or n < w:
        return flat
    nan = np.isnan(x)
    gappy = bool(nan.any())
    live = slice(None)
    # taking out the row's mean kills cancellation in the variance sums
    if gappy:
        # every window of an all-gap row belongs to the missing-data rule
        live = np.flatnonzero(~nan.all(axis=1))
        if len(live) == 0:
            return flat
        x, nan = x[live], nan[live]
        centred = np.nan_to_num(x - np.nanmean(x, axis=1, keepdims=True), copy=False, nan=0.0)
    else:
        centred = x - x.mean(axis=1, keepdims=True)  # nanmean's sum and count, bit for bit
    hop = max(1, w // 8)
    starts = np.arange(0, n - w + 1, hop)
    if starts[-1] != n - w:
        starts = np.append(starts, n - w)
    ends = starts + w

    def window_sums(a: np.ndarray) -> np.ndarray:
        # running sums along contiguous rows add in the same order as for one channel
        c = np.cumsum(a, axis=1)
        before = c[:, starts - 1]
        before[:, 0] = 0  # starts[0] is 0: nothing comes before it
        return c[:, ends - 1] - before

    mean = window_sums(centred) / w
    var = np.maximum(window_sums(centred * centred) / w - mean * mean, 0.0)
    flat_windows = var < FLAT_VARIANCE_FLOOR
    if gappy:
        flat_windows &= window_sums(nan) == 0  # the missing-data rule owns windows with gaps
    row, window = np.nonzero(flat_windows)
    if len(row) == 0:
        return flat
    # a sample is flat when more flat windows open than close at or before it
    opened = np.zeros((len(centred), n + 1), dtype=np.int64)
    np.add.at(opened, (row, starts[window]), 1)
    np.add.at(opened, (row, ends[window]), -1)
    flat[live] = np.cumsum(opened[:, :n], axis=1) > 0
    return flat


def _noise_mask(x: np.ndarray, fs: float) -> np.ndarray:
    """Broadband-noise samples of each row of a (rows, samples) window,
    from one spectrum call over the gap-free 2 s blocks of all rows."""
    rows, n = x.shape
    noisy = np.zeros((rows, n), dtype=bool)
    w = int(round(NOISE_WINDOW_S * fs))
    if w < 8 or n < w:
        return noisy
    per_row = n // w  # a trailing partial block is not screened
    blocks = x[:, : per_row * w].reshape(rows * per_row, w)
    whole = np.flatnonzero(~np.isnan(blocks).any(axis=1))
    bad = np.zeros(len(blocks), dtype=bool)
    if len(whole):
        f, psd = _density(blocks[whole], fs, "boxcar", w)
        # contiguous rows sum in the same order as a single block's spectrum
        total = np.ascontiguousarray(psd[:, f > 0]).sum(axis=1)
        high = np.ascontiguousarray(psd[:, f > NOISE_EDGE_HZ]).sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            bad[whole] = (total > 0) & (high / total > NOISE_FRACTION_MAX)
    noisy[:, : per_row * w] = np.repeat(bad.reshape(rows, per_row), w, axis=1)
    return noisy


def _invalid_mask(x: np.ndarray, kinds: list[ChannelKind], fs: float) -> np.ndarray:
    """The unusable samples of each row of a (channels, samples) window;
    every rule runs once over all rows.

    Rules by channel kind: missing samples always; pressure outside
    (0, 300) mmHg; ECG beyond +/-10 mV; any 2 s window with variance
    under 1e-6; ECG 2 s blocks with most power above 40 Hz.
    """
    is_abp = np.array([k is ChannelKind.ABP for k in kinds])[:, np.newaxis]
    is_ecg = np.array([k is ChannelKind.ECG for k in kinds])[:, np.newaxis]
    with np.errstate(invalid="ignore"):  # a gap is never out of range: NaN compares False
        bad = (is_abp & ((x <= 0.0) | (x >= ABP_MAX_MMHG))) | (is_ecg & (np.abs(x) > ECG_MAX_MV))
    mask = np.isnan(x) | bad | _flat_mask(x, fs)
    ecg = np.flatnonzero(is_ecg[:, 0])
    mask[ecg] |= _noise_mask(x[ecg], fs)
    return mask


def _band_power(f: np.ndarray, psd: np.ndarray, lo: float, hi: float) -> float:
    lo = max(lo, float(f[0]))
    hi = min(hi, float(f[-1]))
    if lo >= hi:
        return 0.0
    inside = f[(f > lo) & (f < hi)]
    xs = np.concatenate(([lo], inside, [hi]))
    ys = np.interp(xs, f, psd)
    return float(np.trapezoid(ys, xs))


def spread(x: np.ndarray) -> float:
    """Standard deviation of ``x``, read as 0.0 at or below
    :data:`FLAT_SPREAD_FLOOR` times ``max |x|``.

    A stretch held flat comes out of the anti-alias filter with rounding
    ripple near 1e-17; a real signal in 16-bit counts spreads about 1e-3
    or more. A NaN or an infinity in ``x`` leaves the spread as NumPy
    reads it.
    """
    sigma = float(np.std(x))
    return 0.0 if sigma <= FLAT_SPREAD_FLOOR * float(np.max(np.abs(x), initial=0.0)) else sigma


def clean_window_metrics(window: np.ndarray, fs: float) -> CleanMetrics:
    """Baseline-wander score, QRS-band power ratio, and kurtosis.

    The wander score is one less the share of 0-40 Hz power below
    1 Hz; the power ratio is the share of 5-40 Hz power in 5-15 Hz.
    Both read one averaged spectrum (Hann segments of
    :data:`CLEAN_SEGMENT_S`, 50% overlap), whose density is interpolated
    linearly at band edges that fall between bins.

    Raises
    ------
    ZeroVariance
        If the window is constant, up to rounding (:func:`spread`).
    WindowTooShort
        If the window holds less than one segment.
    ZeroDenominator
        If a reference band holds no power.
    """
    x = np.asarray(window, dtype=np.float64)
    sigma = spread(x)
    if sigma == 0.0:
        raise ZeroVariance("metrics undefined on a constant window")
    nperseg = int(round(CLEAN_SEGMENT_S * fs))
    if len(x) < nperseg:
        raise WindowTooShort(f"window of {len(x)} samples is shorter than one {nperseg}-sample segment")
    segments = sliding_window_view(x, nperseg)[:: nperseg - nperseg // 2]
    f, psd = _density(segments, fs, "hann", nperseg)
    # SciPy averages each bin's segments along one contiguous row
    psd = np.ascontiguousarray(psd.T).mean(axis=-1)

    def fraction(lo: float, hi: float, ref_lo: float, ref_hi: float) -> float:
        denom = _band_power(f, psd, ref_lo, ref_hi)
        if denom == 0.0:
            raise ZeroDenominator(f"no power in reference band [{ref_lo}, {ref_hi}] Hz")
        return _band_power(f, psd, lo, hi) / denom

    wander = 1.0 - fraction(0.0, 1.0, 0.0, 40.0)
    ratio = fraction(5.0, 15.0, 5.0, 40.0)
    kurt = float(np.mean(((x - np.mean(x)) / sigma) ** 4))
    return CleanMetrics(wander, ratio, kurt)


def is_clean(metrics: CleanMetrics) -> bool:
    """All three metrics at or above their minimums; NaN fails closed."""
    minimums = (CLEAN_WANDER_MIN, CLEAN_POWER_RATIO_MIN, CLEAN_KURTOSIS_MIN)
    return all(np.isfinite(v) and v >= m for v, m in zip(metrics, minimums))


def assess_quality(record: Record, window: tuple[int, int] | None = None) -> QualityReport:
    """Validity screening for every channel over one window: the share
    of the window's samples that no rule of :func:`_invalid_mask` marks."""
    start, end = window if window is not None else (0, record.n_samples)
    if end <= start:
        raise ValueError("window must be non-empty")
    kinds = [ch.kind for ch in record.channels]
    mask = _invalid_mask(record.samples[:, start:end], kinds, record.sample_rate)
    return QualityReport((start, end), (1.0 - mask.sum(axis=1) / (end - start)).tolist())
