"""Beat detection, annotation handling, and per-beat classification.

The QRS detector is the classic band-pass / differentiate / square /
integrate chain with an adaptive two-level threshold; the pulse
detector looks for steep upstrokes in pressure-like signals. Both are
deliberately simple: alarm adjudication needs beat positions that are
roughly right far more than it needs textbook-grade detection.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.fft import rfft, rfftfreq
from scipy.signal import filtfilt, find_peaks

from .errors import (
    IndexOutOfBounds,
    IoFailure,
    MalformedAnnotation,
    TooFewBeats,
    WindowTooShort,
)
from .record_io import Record, butter_filter

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


@dataclass
class BeatAnnotation:
    """Beat positions on one channel, with optional per-beat labels."""

    channel: int
    indices: np.ndarray  # strictly increasing sample positions
    labels: list[BeatLabel] | None = None

    @property
    def count(self) -> int:
        return len(self.indices)

    def within(self, start: int, end: int) -> "BeatAnnotation":
        """Restrict to beats with start <= index < end."""
        keep = (self.indices >= start) & (self.indices < end)
        labels = [l for l, k in zip(self.labels, keep) if k] if self.labels is not None else None
        return BeatAnnotation(self.channel, self.indices[keep], labels)


def _prepare(samples: np.ndarray, fs: float) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float64)
    if len(x) < int(round(MIN_DETECT_S * fs)):
        raise WindowTooShort(f"need at least {MIN_DETECT_S} s of signal, got {len(x) / fs:.2f} s")
    return np.nan_to_num(x, nan=0.0)  # gaps contribute no beats


def detect_qrs(samples: np.ndarray, fs: float, channel: int = 0) -> BeatAnnotation:
    """Detect QRS complexes in one ECG channel.

    Adaptive thresholding keeps a running signal level and noise level
    (exponential updates) and accepts integrated-energy peaks above
    noise + 0.25 * (signal - noise), with a 200 ms refractory spacing.
    """
    x = _prepare(samples, fs)
    b, a = butter_filter(2, QRS_BAND_HZ, "band", fs)
    filt = filtfilt(b, a, x)
    w = int(round(QRS_INTEGRATE_S * fs))
    energy = np.convolve(np.gradient(filt) ** 2, np.ones(w) / w, mode="same")

    spacing = int(round(QRS_REFRACTORY_S * fs))
    peaks, _ = find_peaks(energy, distance=spacing)
    if len(peaks) == 0:
        return BeatAnnotation(channel, np.empty(0, dtype=np.int64))

    signal_level = 0.5 * np.percentile(energy[peaks], 75)
    noise_level = 0.1 * np.percentile(energy[peaks], 25)
    floor = 1e-10 + 0.01 * energy.max()
    accepted: list[int] = []
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
    return BeatAnnotation(channel, np.asarray(accepted, dtype=np.int64))


def detect_pulses(samples: np.ndarray, fs: float, channel: int = 0) -> BeatAnnotation:
    """Detect pulse onsets (steep upstrokes) in ABP or PPG."""
    x = _prepare(samples, fs)
    b, a = butter_filter(2, PULSE_LOWPASS_HZ, "low", fs)
    slope = np.gradient(filtfilt(b, a, x)) * fs
    positive = slope[slope > 0]
    threshold = 0.4 * np.percentile(positive, 90) if len(positive) else 0.0
    peak = slope.max() if len(slope) else 0.0
    height = max(threshold, 0.05 * peak if peak > 0 else 0.0, 1e-9)
    onsets, _ = find_peaks(slope, height=height, distance=int(round(PULSE_REFRACTORY_S * fs)))
    return BeatAnnotation(channel, onsets.astype(np.int64))


_LABEL_CODES = {"N": BeatLabel.NORMAL, "V": BeatLabel.VENTRICULAR}


def import_annotations(path: str | Path, record: Record, channel: int = 0) -> BeatAnnotation:
    """Read an external annotation file: one beat per line, ``index``
    or ``index label`` with label N or V.

    Raises
    ------
    MalformedAnnotation
        Bad syntax, unknown label, or non-increasing indices.
    IndexOutOfBounds
        An index outside the record.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise IoFailure(f"cannot read annotations {path}: {exc}") from None

    indices: list[int] = []
    labels: list[BeatLabel] = []
    any_label = False
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
        if len(fields) == 2:
            if fields[1] not in _LABEL_CODES:
                raise MalformedAnnotation(f"{path.name}:{line_no}: unknown label {fields[1]!r}")
            labels.append(_LABEL_CODES[fields[1]])
            any_label = True
        else:
            labels.append(BeatLabel.UNKNOWN)
        indices.append(idx)
    return BeatAnnotation(
        channel,
        np.asarray(indices, dtype=np.int64),
        labels if any_label else None,
    )


def window_heart_rate(annotation: BeatAnnotation, fs: float, k: int) -> np.ndarray:
    """Heart rate in bpm over every window of ``k`` consecutive beats.

    Each window spans k - 1 intervals, so the rate for beats
    [i, i + k) is 60 * (k - 1) / elapsed seconds.
    """
    if k < 2:
        raise ValueError("a rate window needs at least two beats")
    idx = annotation.indices
    if len(idx) < k:
        raise TooFewBeats(f"need {k} beats, have {len(idx)}")
    spans = (idx[k - 1 :] - idx[: len(idx) - k + 1]) / fs
    return 60.0 * (k - 1) / spans


@dataclass
class BeatSegment:
    """Half-open slice [start, end) owned by the beat at ``beat``."""

    beat: int
    start: int
    end: int


def beat_segments(annotation: BeatAnnotation) -> list[BeatSegment]:
    """Split the beat train into per-beat slices.

    Each beat owns from a third of the preceding interval before it to
    two thirds of the following interval after it. The first and last
    beats have only one neighbouring interval, which stands in on both
    sides. Consecutive segments share boundaries exactly, so they tile
    the span without gaps or overlap.
    """
    idx = annotation.indices
    n = len(idx)
    if n < 3:
        raise TooFewBeats(f"segmentation needs at least 3 beats, have {n}")
    segments: list[BeatSegment] = []
    for i in range(n):
        prev_gap = int(idx[i] - idx[i - 1]) if i > 0 else int(idx[1] - idx[0])
        next_gap = int(idx[i + 1] - idx[i]) if i < n - 1 else int(idx[n - 1] - idx[n - 2])
        start = int(idx[i]) - int(round(prev_gap / 3.0))
        end = int(idx[i]) + int(round(2.0 * next_gap / 3.0))
        segments.append(BeatSegment(int(idx[i]), start, end))
    return segments


def beat_slices(
    samples: np.ndarray,
    segments: Iterable[BeatSegment],
    min_len: int,
    max_len: int,
) -> Iterator[tuple[int, int, np.ndarray | None]]:
    """Each segment clamped to ``samples`` as ``(start, end, slice)``.

    The slice is None when the clamped length falls outside
    ``[min_len, max_len]`` or the slice contains a gap (NaN): such a
    beat cannot be compared.
    """
    for seg in segments:
        start = max(seg.start, 0)
        end = min(seg.end, len(samples))
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
