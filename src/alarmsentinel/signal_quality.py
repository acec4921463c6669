"""Signal validity screening and clean-signal spectral metrics.

Two layers: hard validity rules that flag physically impossible or
unusable stretches per channel (missing data, out-of-range values,
flat lines, broadband noise), and softer spectral/statistical metrics
that decide whether an ECG window is clean enough to harvest beats.

The hard rules are array-at-a-time: every flat-line window is judged
from running sums in one pass, and the gap-free 2 s noise blocks of a
channel are screened in one batched spectrum call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.signal import periodogram, welch

from .errors import WindowTooShort, ZeroDenominator, ZeroVariance
from .record_io import ChannelKind, Record

ABP_MAX_MMHG = 300.0
ECG_MAX_MV = 10.0
FLAT_WINDOW_S = 2.0
FLAT_VARIANCE_FLOOR = 1e-6
NOISE_WINDOW_S = 2.0
NOISE_EDGE_HZ = 40.0
NOISE_FRACTION_MAX = 0.5


class InvalidReason(Enum):
    MISSING_DATA = "missing_data"
    OUT_OF_RANGE = "out_of_range"
    FLAT_LINE = "flat_line"
    SPECTRAL_NOISE = "spectral_noise"


_REASON_RANK = {r: i for i, r in enumerate(InvalidReason)}


@dataclass
class InvalidInterval:
    """Half-open sample range [start, end) judged unusable."""

    start: int
    end: int
    reason: InvalidReason


class CleanMetrics(NamedTuple):
    baseline_wander: float
    power_ratio: float
    kurtosis: float


@dataclass
class CleanThresholds:
    baseline_wander_min: float = 0.75
    power_ratio_min: float = 0.9
    kurtosis_min: float = 4.0


@dataclass
class QualityReport:
    """Per-channel invalid intervals and validity fractions for a window."""

    window: tuple[int, int]
    invalid: list[list[InvalidInterval]] = field(default_factory=list)
    validity: list[float] = field(default_factory=list)


def _mask_to_spans(mask: np.ndarray) -> list[tuple[int, int]]:
    padded = np.concatenate(([0], mask.astype(np.int8), [0]))
    edges = np.flatnonzero(np.diff(padded))
    return [(int(edges[i]), int(edges[i + 1])) for i in range(0, len(edges), 2)]


def _flat_spans(x: np.ndarray, fs: float) -> list[tuple[int, int]]:
    n = len(x)
    w = int(round(FLAT_WINDOW_S * fs))
    if w < 2 or n < w:
        return []
    centred = x - np.nanmean(x)  # shift kills cancellation in the variance sums
    filled = np.nan_to_num(centred, nan=0.0)
    c1 = np.concatenate(([0.0], np.cumsum(filled)))
    c2 = np.concatenate(([0.0], np.cumsum(filled * filled)))
    cn = np.concatenate(([0], np.cumsum(np.isnan(x).astype(np.int64))))
    hop = max(1, w // 8)
    starts = np.arange(0, n - w + 1, hop)
    if starts[-1] != n - w:
        starts = np.append(starts, n - w)
    ends = starts + w
    mean = (c1[ends] - c1[starts]) / w
    var = np.maximum((c2[ends] - c2[starts]) / w - mean * mean, 0.0)
    # the missing-data rule owns windows with gaps
    flat = (var < FLAT_VARIANCE_FLOOR) & (cn[ends] == cn[starts])
    cover = np.zeros(n + 1, dtype=np.int64)  # +1 where a flat window opens, -1 where it closes
    cover[starts[flat]] += 1
    cover[ends[flat]] -= 1
    return _mask_to_spans(np.cumsum(cover[:n]) > 0)


def _noise_spans(x: np.ndarray, fs: float) -> list[tuple[int, int]]:
    n = len(x)
    w = int(round(NOISE_WINDOW_S * fs))
    if w < 8 or n < w:
        return []
    blocks = x[: n - n % w].reshape(-1, w)  # a trailing partial block is not screened
    whole = np.flatnonzero(~np.isnan(blocks).any(axis=1))
    noisy = np.zeros(len(blocks), dtype=bool)
    if len(whole):
        f, psd = periodogram(blocks[whole], fs=fs, detrend="constant", axis=-1)
        # contiguous rows sum in the same order as a single block's spectrum
        total = np.ascontiguousarray(psd[:, f > 0]).sum(axis=1)
        high = np.ascontiguousarray(psd[:, f > NOISE_EDGE_HZ]).sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            noisy[whole] = (total > 0) & (high / total > NOISE_FRACTION_MAX)
    return _mask_to_spans(np.repeat(noisy, w))


def detect_invalid_segments(samples: np.ndarray, kind: ChannelKind, fs: float) -> list[InvalidInterval]:
    """Find unusable stretches of one channel.

    Rules by channel kind: missing samples always; pressure outside
    (0, 300) mmHg; ECG beyond +/-10 mV; any 2 s window with variance
    under 1e-6; ECG 2 s blocks with most power above 40 Hz.

    Returns a sorted list of disjoint intervals. Overlapping findings
    merge; the reason of the earliest (highest-priority on ties) wins.
    """
    x = np.asarray(samples, dtype=np.float64)
    found: list[InvalidInterval] = []

    for s, e in _mask_to_spans(np.isnan(x)):
        found.append(InvalidInterval(s, e, InvalidReason.MISSING_DATA))

    with np.errstate(invalid="ignore"):
        if kind is ChannelKind.ABP:
            bad = (x <= 0.0) | (x >= ABP_MAX_MMHG)
        elif kind is ChannelKind.ECG:
            bad = np.abs(x) > ECG_MAX_MV
        else:
            bad = np.zeros(len(x), dtype=bool)
    bad &= ~np.isnan(x)
    for s, e in _mask_to_spans(bad):
        found.append(InvalidInterval(s, e, InvalidReason.OUT_OF_RANGE))

    for s, e in _flat_spans(x, fs):
        found.append(InvalidInterval(s, e, InvalidReason.FLAT_LINE))

    if kind is ChannelKind.ECG:
        for s, e in _noise_spans(x, fs):
            found.append(InvalidInterval(s, e, InvalidReason.SPECTRAL_NOISE))

    return merge_intervals(found)


def merge_intervals(intervals: list[InvalidInterval]) -> list[InvalidInterval]:
    """Sort and merge into disjoint intervals.

    Overlaps always merge; touching intervals merge only when they share
    a reason, so distinct causes stay visible in the report.
    """
    ordered = sorted(intervals, key=lambda iv: (iv.start, _REASON_RANK[iv.reason], iv.end))
    out: list[InvalidInterval] = []
    for iv in ordered:
        if out and (iv.start < out[-1].end or (iv.start == out[-1].end and iv.reason is out[-1].reason)):
            out[-1].end = max(out[-1].end, iv.end)
        else:
            out.append(InvalidInterval(iv.start, iv.end, iv.reason))
    return out


def welch_psd(samples: np.ndarray, fs: float, segment_seconds: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """Averaged power spectral density (Hann segments, 50% overlap).

    Returns ``(frequencies, density)``; integrating the density over
    the full band recovers the signal variance to within a percent.

    Raises
    ------
    WindowTooShort
        If the window holds less than one segment.
    """
    x = np.asarray(samples, dtype=np.float64)
    nperseg = int(round(segment_seconds * fs))
    if len(x) < nperseg:
        raise WindowTooShort(f"window of {len(x)} samples is shorter than one {nperseg}-sample segment")
    f, psd = welch(
        x, fs=fs, window="hann", nperseg=nperseg, noverlap=nperseg // 2,
        detrend="constant", scaling="density",
    )
    return f, psd


def _band_power(f: np.ndarray, psd: np.ndarray, lo: float, hi: float) -> float:
    lo = max(lo, float(f[0]))
    hi = min(hi, float(f[-1]))
    if lo >= hi:
        return 0.0
    inside = f[(f > lo) & (f < hi)]
    xs = np.concatenate(([lo], inside, [hi]))
    ys = np.interp(xs, f, psd)
    return float(np.trapezoid(ys, xs))


def band_fraction(
    spectrum: tuple[np.ndarray, np.ndarray],
    f_lo: float,
    f_hi: float,
    f_lo2: float,
    f_hi2: float,
) -> float:
    """Power in [f_lo, f_hi] as a fraction of power in [f_lo2, f_hi2].

    Band edges may fall between frequency bins; the density is
    interpolated linearly there before integrating.
    """
    if not (0 <= f_lo < f_hi) or not (0 <= f_lo2 < f_hi2):
        raise ValueError("band edges must satisfy 0 <= lo < hi")
    f, psd = spectrum
    denom = _band_power(f, psd, f_lo2, f_hi2)
    if denom == 0.0:
        raise ZeroDenominator(f"no power in reference band [{f_lo2}, {f_hi2}] Hz")
    return _band_power(f, psd, f_lo, f_hi) / denom


def clean_window_metrics(window: np.ndarray, fs: float, segment_seconds: float = 4.0) -> CleanMetrics:
    """Baseline-wander score, QRS-band power ratio, and kurtosis.

    The PSD uses 4 s segments here: with 2 s segments the resolution at
    the 1 Hz baseline-wander edge is too coarse and slow wander leaks
    into the passband.

    Raises
    ------
    ZeroVariance
        If the window is constant.
    """
    x = np.asarray(window, dtype=np.float64)
    sigma = float(np.std(x))
    if sigma == 0.0:
        raise ZeroVariance("metrics undefined on a constant window")
    spectrum = welch_psd(x, fs, segment_seconds=segment_seconds)
    wander = 1.0 - band_fraction(spectrum, 0.0, 1.0, 0.0, 40.0)
    ratio = band_fraction(spectrum, 5.0, 15.0, 5.0, 40.0)
    kurt = float(np.mean(((x - np.mean(x)) / sigma) ** 4))
    return CleanMetrics(wander, ratio, kurt)


def is_clean(metrics: CleanMetrics, thresholds: CleanThresholds | None = None) -> bool:
    """All three metrics at or above their thresholds; NaN fails closed."""
    t = thresholds or CleanThresholds()
    checks = (
        (metrics.baseline_wander, t.baseline_wander_min),
        (metrics.power_ratio, t.power_ratio_min),
        (metrics.kurtosis, t.kurtosis_min),
    )
    return all(np.isfinite(v) and v >= m for v, m in checks)


def channel_validity(intervals: list[InvalidInterval], start: int, end: int) -> float:
    """Fraction of [start, end) not covered by invalid intervals."""
    if end <= start:
        raise ValueError("window must be non-empty")
    covered = 0
    for iv in intervals:
        covered += max(0, min(iv.end, end) - max(iv.start, start))
    return 1.0 - covered / (end - start)


def assess_quality(record: Record, window: tuple[int, int] | None = None) -> QualityReport:
    """Run validity screening for every channel over one window.

    Interval positions are in record coordinates even when a window is
    given.
    """
    start, end = window if window is not None else (0, record.n_samples)
    report = QualityReport(window=(start, end))
    for i, ch in enumerate(record.channels):
        intervals = detect_invalid_segments(record.samples[i, start:end], ch.kind, record.sample_rate)
        for iv in intervals:
            iv.start += start
            iv.end += start
        report.invalid.append(intervals)
        report.validity.append(channel_validity(intervals, start, end))
    return report
