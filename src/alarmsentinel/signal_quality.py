"""Signal validity screening and clean-signal spectral metrics.

Two layers: hard validity rules that flag physically impossible or
unusable stretches per channel (missing data, out-of-range values,
flat lines, broadband noise), and softer spectral/statistical metrics
that decide whether an ECG window is clean enough to harvest beats.

The hard rules are matrix-at-a-time: each rule runs once over the
(channels x samples) window, every flat-line window of every channel
is judged from running sums in one pass, and the gap-free 2 s noise
blocks of all ECG channels are screened in one batched spectrum call.
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
# a window is clean enough to harvest beats when every metric reaches its minimum
CLEAN_WANDER_MIN = 0.75
CLEAN_POWER_RATIO_MIN = 0.9
CLEAN_KURTOSIS_MIN = 4.0


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
class QualityReport:
    """Per-channel invalid intervals and validity fractions for a window."""

    window: tuple[int, int]
    invalid: list[list[InvalidInterval]] = field(default_factory=list)
    validity: list[float] = field(default_factory=list)


def _mask_to_spans(mask: np.ndarray) -> list[list[tuple[int, int]]]:
    """The runs of True in each row of a (rows, samples) mask, as
    half-open spans."""
    rows, n = mask.shape
    padded = np.zeros((rows, n + 2), dtype=bool)
    padded[:, 1:-1] = mask
    # a run opens and closes where a padded row changes; row-major order keeps each row's edges in turn
    row, edge = np.divmod(np.flatnonzero(padded[:, 1:] != padded[:, :-1]), n + 1)
    spans: list[list[tuple[int, int]]] = [[] for _ in range(rows)]
    edges = iter(zip(row.tolist(), edge.tolist()))
    for (r, s), (_, e) in zip(edges, edges):
        spans[r].append((s, e))
    return spans


def _union(rows: int, row: np.ndarray, start: np.ndarray, end: np.ndarray) -> list[list[tuple[int, int]]]:
    """The union of the half-open windows [start, end) in each of
    ``rows`` rows, as spans. The windows of a row share one width and
    come sorted by row, then start."""
    spans: list[list[tuple[int, int]]] = [[] for _ in range(rows)]
    for r, s, e in zip(row.tolist(), start.tolist(), end.tolist()):
        found = spans[r]
        if found and s <= found[-1][1]:
            found[-1] = (found[-1][0], e)
        else:
            found.append((s, e))
    return spans


def _flat_spans(x: np.ndarray, fs: float) -> list[list[tuple[int, int]]]:
    """Flat-line spans of each row of a (rows, samples) window."""
    rows, n = x.shape
    w = int(round(FLAT_WINDOW_S * fs))
    nan = np.isnan(x)
    # every window of an all-gap row belongs to the missing-data rule
    live = np.flatnonzero(~nan.all(axis=1))
    if w < 2 or n < w or len(live) == 0:
        return [[] for _ in range(rows)]
    x, nan = x[live], nan[live]
    centred = x - np.nanmean(x, axis=1, keepdims=True)  # shift kills cancellation in the variance sums
    filled = np.nan_to_num(centred, copy=False, nan=0.0)
    # running sums along contiguous rows add in the same order as for one channel
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
    # the missing-data rule owns windows with gaps
    row, window = np.nonzero((var < FLAT_VARIANCE_FLOOR) & (cn[:, ends] == cn[:, starts]))
    return _union(rows, live[row], starts[window], ends[window])


def _noise_spans(x: np.ndarray, fs: float) -> list[list[tuple[int, int]]]:
    """Broadband-noise spans of each row of a (rows, samples) window,
    from one spectrum call over the gap-free 2 s blocks of all rows."""
    rows, n = x.shape
    w = int(round(NOISE_WINDOW_S * fs))
    if w < 8 or n < w:
        return [[] for _ in range(rows)]
    per_row = n // w  # a trailing partial block is not screened
    blocks = x[:, : per_row * w].reshape(rows * per_row, w)
    whole = np.flatnonzero(~np.isnan(blocks).any(axis=1))
    noisy = np.zeros(len(blocks), dtype=bool)
    if len(whole):
        f, psd = periodogram(blocks[whole], fs=fs, detrend="constant", axis=-1)
        # contiguous rows sum in the same order as a single block's spectrum
        total = np.ascontiguousarray(psd[:, f > 0]).sum(axis=1)
        high = np.ascontiguousarray(psd[:, f > NOISE_EDGE_HZ]).sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            noisy[whole] = (total > 0) & (high / total > NOISE_FRACTION_MAX)
    row, block = np.divmod(np.flatnonzero(noisy), per_row)
    return _union(rows, row, block * w, (block + 1) * w)


def _screen(x: np.ndarray, kinds: list[ChannelKind], fs: float, offset: int = 0) -> list[list[InvalidInterval]]:
    """The merged invalid intervals of each row of a (channels, samples)
    window, shifted by ``offset``; every rule runs once over all rows."""
    nan = np.isnan(x)
    is_abp = np.array([k is ChannelKind.ABP for k in kinds])[:, np.newaxis]
    is_ecg = np.array([k is ChannelKind.ECG for k in kinds])[:, np.newaxis]
    with np.errstate(invalid="ignore"):  # a gap is never out of range: NaN compares False
        bad = (is_abp & ((x <= 0.0) | (x >= ABP_MAX_MMHG))) | (is_ecg & (np.abs(x) > ECG_MAX_MV))
    rules = [
        (InvalidReason.MISSING_DATA, _mask_to_spans(nan)),
        (InvalidReason.OUT_OF_RANGE, _mask_to_spans(bad)),
        (InvalidReason.FLAT_LINE, _flat_spans(x, fs)),
    ]
    ecg = np.flatnonzero(is_ecg[:, 0])
    noise: list[list[tuple[int, int]]] = [[] for _ in kinds]
    for r, found in zip(ecg.tolist(), _noise_spans(x[ecg], fs)):
        noise[r] = found
    rules.append((InvalidReason.SPECTRAL_NOISE, noise))
    return [
        merge_intervals([
            InvalidInterval(s + offset, e + offset, reason) for reason, spans in rules for s, e in spans[r]
        ])
        for r in range(len(kinds))
    ]


def detect_invalid_segments(samples: np.ndarray, kind: ChannelKind, fs: float) -> list[InvalidInterval]:
    """Find unusable stretches of one channel.

    Rules by channel kind: missing samples always; pressure outside
    (0, 300) mmHg; ECG beyond +/-10 mV; any 2 s window with variance
    under 1e-6; ECG 2 s blocks with most power above 40 Hz.

    Returns a sorted list of disjoint intervals. Overlapping findings
    merge; the reason of the earliest (highest-priority on ties) wins.
    This is the one-channel form of the screen :func:`assess_quality`
    runs over all channels at once.
    """
    x = np.asarray(samples, dtype=np.float64)
    return _screen(x[np.newaxis], [kind], fs)[0]


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


def clean_window_metrics(window: np.ndarray, fs: float) -> CleanMetrics:
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
    spectrum = welch_psd(x, fs, segment_seconds=4.0)
    wander = 1.0 - band_fraction(spectrum, 0.0, 1.0, 0.0, 40.0)
    ratio = band_fraction(spectrum, 5.0, 15.0, 5.0, 40.0)
    kurt = float(np.mean(((x - np.mean(x)) / sigma) ** 4))
    return CleanMetrics(wander, ratio, kurt)


def is_clean(metrics: CleanMetrics) -> bool:
    """All three metrics at or above their minimums; NaN fails closed."""
    minimums = (CLEAN_WANDER_MIN, CLEAN_POWER_RATIO_MIN, CLEAN_KURTOSIS_MIN)
    return all(np.isfinite(v) and v >= m for v, m in zip(metrics, minimums))


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
    kinds = [ch.kind for ch in record.channels]
    invalid = _screen(record.samples[:, start:end], kinds, record.sample_rate, offset=start)
    return QualityReport((start, end), invalid, [channel_validity(ivs, start, end) for ivs in invalid])
