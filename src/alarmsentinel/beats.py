"""Beat detection, annotation handling, and per-beat classification.

The QRS detector is the classic band-pass / differentiate / square /
integrate chain with an adaptive two-level threshold; the pulse
detector looks for steep upstrokes in pressure-like signals. Both are
deliberately simple: alarm adjudication needs beat positions that are
roughly right far more than it needs textbook-grade detection. A
channel's beats are their sample positions, one int64 array; the span
each beat owns is a pair of positions: :func:`beat_segments` gives the
starts and ends as two such arrays, :func:`beat_slices` cuts them out.
"""
from __future__ import annotations

import math
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
from scipy.fft import rfft, rfftfreq
from scipy.signal import find_peaks

from .errors import (
    IndexOutOfBounds,
    MalformedAnnotation,
    TooFewBeats,
    WindowTooShort,
)
from .record_io import Record, butter_filter, read_text, zero_phase

MIN_DETECT_S = 2.0
QRS_BAND_HZ = (5.0, 15.0)
QRS_INTEGRATE_S = 0.150
QRS_REFRACTORY_S = 0.2
PULSE_LOWPASS_HZ = 10.0
PULSE_REFRACTORY_S = 0.3
BEAT_MIN_S = 0.2  # shortest slice the spectral classifier accepts
VT_SPLIT_HZ = 8.0  # band boundary separating wide from narrow complexes


class BeatLabel(Enum):
    NORMAL = "N"
    VENTRICULAR = "V"
    UNKNOWN = "?"


def within(beats: np.ndarray, start: int, end: int) -> np.ndarray:
    """The beat positions ``p`` of ``beats`` with ``start <= p < end``."""
    return beats[(beats >= start) & (beats < end)]


def _prepare(samples: np.ndarray, fs: float) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float64)
    if len(x) < int(round(MIN_DETECT_S * fs)):
        raise WindowTooShort(f"need at least {MIN_DETECT_S} s of signal, got {len(x) / fs:.2f} s")
    if np.isfinite(x).all():
        return x
    return np.nan_to_num(x, nan=0.0)  # gaps contribute no beats


def _percentiles(a: np.ndarray, qs: Sequence[float]) -> list[float]:
    """``np.percentile(a, qs).tolist()`` for a non-empty 1-D array, from
    one partition: numpy's ``linear`` rule, ``lo + (hi - lo) * g``, or
    ``hi - (hi - lo) * (1 - g)`` when ``g >= 0.5``."""
    last = len(a) - 1
    spots = [last * (q / 100) for q in qs]
    below = [math.floor(v) for v in spots]
    part = np.partition(a, sorted({*below, *(min(i + 1, last) for i in below), last}))
    if math.isnan(part[last]):  # a NaN sorts last, and numpy's percentiles are then NaN
        return [math.nan] * len(qs)
    out = []
    for v, i in zip(spots, below):
        lo, hi = float(part[i]), float(part[min(i + 1, last)])
        g = v - i
        out.append(hi - (hi - lo) * (1 - g) if g >= 0.5 else lo + (hi - lo) * g)
    return out


def detect_qrs(samples: np.ndarray, fs: float) -> np.ndarray:
    """The sample positions of the QRS complexes in one ECG channel.

    Adaptive thresholding keeps a running signal level and noise level
    (exponential updates) and accepts integrated-energy peaks above
    noise + 0.25 * (signal - noise), with a 200 ms refractory spacing.
    """
    x = _prepare(samples, fs)
    filt = zero_phase(butter_filter(2, QRS_BAND_HZ, "band", fs), x)
    w = int(round(QRS_INTEGRATE_S * fs))
    energy = np.convolve(np.gradient(filt) ** 2, np.ones(w) / w, mode="same")

    spacing = int(round(QRS_REFRACTORY_S * fs))
    peaks, _ = find_peaks(energy, distance=spacing)
    if len(peaks) == 0:
        return np.empty(0, dtype=np.int64)

    heights = energy[peaks]
    upper, lower = _percentiles(heights, (75, 25))
    signal_level = 0.5 * upper
    noise_level = 0.1 * lower
    floor = 1e-10 + 0.01 * float(energy.max())
    accepted: list[int] = []
    last = -spacing
    # Python floats are the same IEEE doubles as numpy scalars, and cost less per peak
    for p, v in zip(peaks.tolist(), heights.tolist()):
        threshold = noise_level + 0.25 * (signal_level - noise_level)
        if v > max(threshold, floor) and p - last >= spacing:
            accepted.append(p)
            last = p
            signal_level = 0.125 * v + 0.875 * signal_level
        else:
            noise_level = 0.125 * v + 0.875 * noise_level
    return np.asarray(accepted, dtype=np.int64)


def detect_pulses(samples: np.ndarray, fs: float) -> np.ndarray:
    """The sample positions of the pulse onsets (steep upstrokes) in ABP or PPG."""
    x = _prepare(samples, fs)
    slope = np.gradient(zero_phase(butter_filter(2, PULSE_LOWPASS_HZ, "low", fs), x)) * fs
    positive = slope[slope > 0]
    threshold = 0.4 * _percentiles(positive, (90,))[0] if len(positive) else 0.0
    peak = slope.max() if len(slope) else 0.0
    height = max(threshold, 0.05 * peak if peak > 0 else 0.0, 1e-9)
    onsets, _ = find_peaks(slope, height=height, distance=int(round(PULSE_REFRACTORY_S * fs)))
    return onsets.astype(np.int64)


def import_annotations(path: str | Path, record: Record) -> np.ndarray:
    """The beat positions of an external annotation file: one beat per
    line, ``index`` or ``index label`` with label N or V. A label is
    checked, not kept: every method labels the beats itself.

    Raises
    ------
    MalformedAnnotation
        Bad syntax, unknown label, or non-increasing indices.
    IndexOutOfBounds
        An index outside the record.
    """
    path = Path(path)
    text = read_text(path, "annotations")

    indices: list[int] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) > 2:
            raise MalformedAnnotation(f"{path.name}:{line_no}: expected 'index [label]'")
        try:
            idx = int(fields[0])
        except ValueError:
            raise MalformedAnnotation(f"{path.name}:{line_no}: bad index {fields[0]!r}") from None
        if not 0 <= idx < record.n_samples:
            raise IndexOutOfBounds(f"{path.name}:{line_no}: index {idx} outside record of {record.n_samples}")
        if indices and idx <= indices[-1]:
            raise MalformedAnnotation(f"{path.name}:{line_no}: indices must be strictly increasing")
        if len(fields) == 2 and fields[1] not in ("N", "V"):
            raise MalformedAnnotation(f"{path.name}:{line_no}: unknown label {fields[1]!r}")
        indices.append(idx)
    return np.asarray(indices, dtype=np.int64)


def window_heart_rate(beats: np.ndarray, fs: float, k: int) -> np.ndarray:
    """Heart rate in bpm over every window of ``k`` consecutive ``beats``.

    Each window spans k - 1 intervals, so the rate for beats
    [i, i + k) is 60 * (k - 1) / elapsed seconds.
    """
    if k < 2:
        raise ValueError("a rate window needs at least two beats")
    if len(beats) < k:
        raise TooFewBeats(f"need {k} beats, have {len(beats)}")
    spans = (beats[k - 1 :] - beats[: len(beats) - k + 1]) / fs
    return 60.0 * (k - 1) / spans


def beat_segments(beats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the beat train ``beats`` into per-beat slices: beat i owns the
    half-open span ``[starts[i], ends[i])`` of the two int64 arrays.

    Each beat owns from a third of the preceding interval before it to
    two thirds of the following interval after it, each rounded to the
    nearest sample. The first and last beats have only one neighbouring
    interval, which stands in on both sides. Consecutive segments share
    boundaries exactly, so they tile the span without gaps or overlap.
    """
    idx = beats.astype(np.int64)  # unsigned positions must not wrap below 0
    if len(idx) < 3:
        raise TooFewBeats(f"segmentation needs at least 3 beats, have {len(idx)}")
    gaps = np.diff(idx)
    starts = idx - np.round(np.concatenate((gaps[:1], gaps)) / 3.0).astype(np.int64)
    ends = idx + np.round(2.0 * np.concatenate((gaps, gaps[-1:])) / 3.0).astype(np.int64)
    return starts, ends


def beat_slices(
    samples: np.ndarray,
    segments: tuple[np.ndarray, np.ndarray],
    min_len: int,
    max_len: int,
) -> Iterator[tuple[int, int, np.ndarray | None]]:
    """Each segment of ``segments``, the ``(starts, ends)`` of
    :func:`beat_segments`, clamped to ``samples`` as
    ``(start, end, slice)``.

    The slice is None when the clamped length falls outside
    ``[min_len, max_len]`` or the slice contains a gap (NaN): such a
    beat cannot be compared.
    """
    starts, ends = segments
    for start, end in zip(np.maximum(starts, 0).tolist(), np.minimum(ends, len(samples)).tolist()):
        slice_ = samples[start:end]
        if not min_len <= end - start <= max_len or np.isnan(slice_).any():
            yield start, end, None
        else:
            yield start, end, slice_


def spectral_labels(slices: Sequence[np.ndarray], fs: float) -> list[BeatLabel]:
    """Label beat slices Normal or Ventricular by band power.

    Wide ventricular complexes concentrate energy at low frequency
    (a 120+ ms hump lives under ~4 Hz), while a narrow QRS resonates
    around 10-12 Hz. The 8 Hz split leaves margin on both sides: a
    beat is ventricular when the 0.5-8 Hz band outpowers the
    8-30 Hz band. Scale-invariant: amplitude cancels in the
    comparison.

    Each slice loses its own mean and is zero-padded to its own
    ``nfft = max(1024, len)``; the slices sharing an ``nfft`` go
    through one real FFT, so a long beat never changes the frequency
    grid of the others. The periodogram's density scale is the same
    on both sides of the comparison and is left out.
    """
    labels = [BeatLabel.NORMAL] * len(slices)
    nffts = np.array([max(1024, len(x)) for x in slices], dtype=np.int64)
    for nfft in np.unique(nffts):
        rows = np.flatnonzero(nffts == nfft)
        padded = np.zeros((len(rows), nfft))
        for row, i in enumerate(rows):
            x = np.asarray(slices[i], dtype=np.float64)
            padded[row, : len(x)] = x - x.mean()
        spectrum = rfft(padded, axis=-1)
        power = spectrum.real**2 + spectrum.imag**2
        f = rfftfreq(nfft, 1 / fs)
        low = power[:, (f >= 0.5) & (f <= VT_SPLIT_HZ)].sum(axis=1)
        high = power[:, (f > VT_SPLIT_HZ) & (f <= 30.0)].sum(axis=1)
        for i in rows[low > high]:
            labels[i] = BeatLabel.VENTRICULAR
    return labels


def classify_beat_spectral(beat: np.ndarray, fs: float) -> BeatLabel:
    """Label one beat slice by band power, as :func:`spectral_labels` does.

    Raises
    ------
    WindowTooShort
        If the slice is shorter than 0.2 s.
    """
    x = np.asarray(beat, dtype=np.float64)
    if len(x) < int(round(BEAT_MIN_S * fs)):
        raise WindowTooShort(f"beat slice of {len(x)} samples too short at {fs} Hz")
    return spectral_labels([x], fs)[0]
