"""Banded dynamic time warping and nearest-neighbour alarm matching.

Distances use squared local cost accumulated under a fixed band
(|i - j| <= radius) with the square root taken at the end, so radius 0
on equal-length inputs degenerates to plain Euclidean distance. The
inner loop is compiled with numba when available; memory stays
O(band), never O(n * m).
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    AlarmSentinelError,
    BandInfeasible,
    EmptyCorpus,
    EmptySequence,
    InsufficientData,
    IoFailure,
    UnsupportedRate,
    ZeroVariance,
)
from .record_io import Arrhythmia, Record, pre_alarm_window, resample_half

try:
    from numba import njit
except ImportError:  # pragma: no cover - numba is a declared dependency
    def njit(*args, **kwargs):
        def wrap(func):
            return func
        return wrap

MATCH_RATE_HZ = 125.0
MATCH_SECONDS = 10.0
FULL_SIGNAL_RADIUS = 250  # 2 s at 125 Hz
BEAT_RADIUS = 125  # 1 s at 125 Hz


@dataclass
class WarpParams:
    """Band radius in samples for the warping constraint."""

    radius: int = FULL_SIGNAL_RADIUS


@njit(cache=True)
def _dtw_core(a: np.ndarray, b: np.ndarray, radius: int) -> float:  # pragma: no cover - exercised via dtw_distance
    n = len(a)
    m = len(b)
    width = 2 * radius + 1
    inf = np.inf
    prev = np.full(width, inf)
    cur = np.full(width, inf)
    for i in range(n):
        lo = i - radius
        if lo < 0:
            lo = 0
        hi = i + radius
        if hi > m - 1:
            hi = m - 1
        for j in range(lo, hi + 1):
            k = j - i + radius
            d = a[i] - b[j]
            d = d * d
            if i == 0 and j == 0:
                cur[k] = d
                continue
            best = inf
            if k + 1 < width and prev[k + 1] < best:  # from (i-1, j)
                best = prev[k + 1]
            if prev[k] < best:  # from (i-1, j-1)
                best = prev[k]
            if k - 1 >= 0 and cur[k - 1] < best:  # from (i, j-1)
                best = cur[k - 1]
            cur[k] = d + best
        tmp = prev
        prev = cur
        cur = tmp
        cur[:] = inf
    return prev[m - 1 - (n - 1) + radius]


def znormalize(values: np.ndarray) -> np.ndarray:
    """Shift to zero mean and scale to unit standard deviation."""
    x = np.asarray(values, dtype=np.float64)
    sigma = float(np.std(x))
    if sigma == 0.0 or not np.isfinite(sigma):
        raise ZeroVariance("cannot z-normalize a constant sequence")
    return (x - np.mean(x)) / sigma


def dtw_distance(a: np.ndarray, b: np.ndarray, params: WarpParams) -> float:
    """Banded DTW distance between two 1-D sequences.

    Raises
    ------
    EmptySequence
        Either input has no samples.
    BandInfeasible
        The length difference exceeds the band radius, so no warping
        path exists.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise EmptySequence("DTW inputs must be non-empty")
    if params.radius < 0:
        raise ValueError("band radius must be non-negative")
    if abs(len(a) - len(b)) > params.radius:
        raise BandInfeasible(
            f"length difference {abs(len(a) - len(b))} exceeds radius {params.radius}"
        )
    radius = min(params.radius, max(len(a), len(b)))
    return math.sqrt(_dtw_core(a, b, radius))


@dataclass
class CorpusEntry:
    values: np.ndarray  # z-normalized pre-alarm sequence at the match rate
    is_true_alarm: bool
    lead: str = "II"
    arrhythmia: Arrhythmia = Arrhythmia.VTACH
    record: str = ""


@dataclass
class TrainingCorpus:
    entries: list[CorpusEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def subset(self, lead: str | None = None, arrhythmia: Arrhythmia | None = None) -> "TrainingCorpus":
        kept = [
            e
            for e in self.entries
            if (lead is None or e.lead.lower() == lead.lower())
            and (arrhythmia is None or e.arrhythmia is arrhythmia)
        ]
        return TrainingCorpus(kept)


def nearest_neighbor(sequence: np.ndarray, corpus: TrainingCorpus, params: WarpParams) -> tuple[bool, int, float]:
    """Label, index and distance of the nearest corpus entry; ties go to
    the earliest entry."""
    if len(corpus) == 0:
        raise EmptyCorpus("nearest-neighbour search over an empty corpus")
    best_d = math.inf
    best_i = -1
    for i, entry in enumerate(corpus.entries):
        d = dtw_distance(sequence, entry.values, params)
        if d < best_d:
            best_d = d
            best_i = i
    return corpus.entries[best_i].is_true_alarm, best_i, best_d


def extract_alarm_lead(record: Record, lead: str = "II", seconds: float = MATCH_SECONDS) -> np.ndarray:
    """Pre-alarm window of one lead at the match rate, z-normalized.

    Records at twice the match rate are halved first; other rates are
    rejected. Missing samples are bridged by linear interpolation
    before normalization.
    """
    if record.sample_rate == 2 * MATCH_RATE_HZ:
        record = resample_half(record)
    elif record.sample_rate != MATCH_RATE_HZ:
        raise UnsupportedRate(f"matching runs at {MATCH_RATE_HZ:g} Hz, record is {record.sample_rate:g} Hz")
    ch = record.channel_index(lead)
    window = pre_alarm_window(record, seconds)
    x = window.samples[ch]
    nan = np.isnan(x)
    if nan.all():
        raise InsufficientData(f"lead {lead} is entirely missing in the alarm window")
    if nan.any():
        idx = np.arange(len(x))
        x = np.interp(idx, idx[~nan], x[~nan])
    return znormalize(x)


def corpus_from_records(
    labelled: list[tuple[Record, bool]],
    lead: str = "II",
    skip_errors: bool = False,
) -> TrainingCorpus:
    """Build a matching corpus from (record, is_true_alarm) pairs."""
    entries: list[CorpusEntry] = []
    for record, truth in labelled:
        try:
            values = extract_alarm_lead(record, lead=lead)
        except AlarmSentinelError:
            if skip_errors:
                continue
            raise
        arrhythmia = record.alarm.arrhythmia or Arrhythmia.VTACH
        entries.append(CorpusEntry(values, bool(truth), lead, arrhythmia, record.name))
    return TrainingCorpus(entries)


def classify_full_signal(record: Record, corpus: TrainingCorpus, lead: str = "II") -> tuple[bool, int, float]:
    """Label, index and distance of the nearest labelled pre-alarm signal.

    Entries for the record's arrhythmia on the lead are searched, or
    every entry on the lead when none matches the arrhythmia. The
    regular-activity gate is not applied here; the gated pipeline is
    ``alarm_logic.classify_alarm`` with method dtw-full.
    """
    sequence = extract_alarm_lead(record, lead=lead)
    pool = corpus.subset(lead=lead, arrhythmia=record.alarm.arrhythmia)
    if len(pool) == 0:
        pool = corpus.subset(lead=lead)
    return nearest_neighbor(sequence, pool, WarpParams(FULL_SIGNAL_RADIUS))


_MAGIC_LABELS = (0, 1)


def save_corpus_cache(corpus: TrainingCorpus, path: str | Path) -> Path:
    """Write the corpus as a flat binary cache.

    Layout: entry count (u32 LE), then per entry a label byte
    (1 = true alarm), the sequence length (u32 LE), and the samples as
    little-endian float64.
    """
    path = Path(path)
    chunks = [struct.pack("<I", len(corpus.entries))]
    for e in corpus.entries:
        chunks.append(struct.pack("<BI", 1 if e.is_true_alarm else 0, len(e.values)))
        chunks.append(np.asarray(e.values, dtype="<f8").tobytes())
    try:
        path.write_bytes(b"".join(chunks))
    except OSError as exc:
        raise IoFailure(f"cannot write corpus cache {path}: {exc}") from None
    return path


def load_corpus_cache(
    path: str | Path,
    lead: str = "II",
    arrhythmia: Arrhythmia = Arrhythmia.VTACH,
) -> TrainingCorpus:
    """Read a cache written by :func:`save_corpus_cache`."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read corpus cache {path}: {exc}") from None

    def fail(msg: str):
        raise IoFailure(f"corrupt corpus cache {path}: {msg}")

    if len(raw) < 4:
        fail("missing entry count")
    (count,) = struct.unpack_from("<I", raw, 0)
    offset = 4
    entries: list[CorpusEntry] = []
    for i in range(count):
        if offset + 5 > len(raw):
            fail(f"truncated at entry {i}")
        label, length = struct.unpack_from("<BI", raw, offset)
        offset += 5
        if label not in _MAGIC_LABELS:
            fail(f"bad label byte {label} at entry {i}")
        end = offset + 8 * length
        if end > len(raw):
            fail(f"truncated samples at entry {i}")
        values = np.frombuffer(raw[offset:end], dtype="<f8").copy()
        offset = end
        entries.append(CorpusEntry(values, bool(label), lead, arrhythmia))
    if offset != len(raw):
        fail(f"{len(raw) - offset} trailing bytes")
    return TrainingCorpus(entries)
