"""Banded dynamic time warping and nearest-neighbour alarm matching.

Distances use squared local cost accumulated under a fixed band
(|i - j| <= radius, Sakoe and Chiba, IEEE TASSP 1978) with the square
root taken at the end, so radius 0 on equal-length inputs degenerates
to plain Euclidean distance. A pair whose lengths differ by more than
the radius is warped under a band widened to that gap, the narrowest
that still holds a path from its first cell to its last. The
dynamic programme sweeps the anti-diagonals i + j = t in numpy, one
vector expression per diagonal for a whole batch of pairs: the pairs
lie along the last, contiguous axis, each zero-padded to the longest
pair, and each distance is read off the diagonal its own last cell
lies on. Three diagonal buffers of O(K * n) for K pairs of up to n
samples rotate, and each diagonal is computed in place, so nothing is
allocated per diagonal. Of a reused buffer only the slot just below
the band is reset to infinity: the band edges only move up, so no
other stale slot is read again. A batch whose buffers would pass
:data:`SWEEP_SLOTS` slots is swept in the fewest parts under it, each
padded to its own longest pair, so the buffers stay in cache; every
pair's recurrence is its own, so the parts give the same bits as one
sweep. A batch whose every input is float32 is swept in float32, on
half the bytes per cell; any other batch in float64. Either way the
distances come back as float64. Only the beat banks pass float32
(``beat_banks._single`` says why), so the full-signal search and every
other caller keep float64. :func:`dtw_distances` is the one entry
point; :func:`dtw_distance` is its one-pair form.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    AlarmSentinelError,
    EmptyCorpus,
    EmptySequence,
    InsufficientData,
    NonFiniteSample,
    UnsupportedMethod,
    UnsupportedRate,
    ZeroVariance,
)
from .record_io import Arrhythmia, Record, bridge_gaps, pre_alarm_window, resample_half, single_channel
from .signal_quality import spread

MATCH_RATE_HZ = 125.0  # the one rate of every DTW method, beat banks included
DEFAULT_LEAD = "II"  # the single lead the DTW methods read unless told another
MATCH_SECONDS = 10.0
FULL_SIGNAL_RADIUS = 250  # 2 s at 125 Hz
BEAT_RADIUS = 125  # 1 s at 125 Hz
# Slots per diagonal buffer in one sweep. A sweep holds six float64 arrays
# of about this size (a, reversed b, the cost row and three diagonals), so
# 48,000 slots are 2.3 MB, close to the 2 MB L2 of one core of the 2-CPU
# x86-64 host it was measured on (BENCH_10.json). There, over the distinct
# batches of a seed-7 vt-dtw plan, the beat batches of 720-960 pairs swept
# 12-23% faster in parts under this budget and the smaller ones the same;
# in total, budgets of 32,000 to 64,000 were within 2.5% of each other,
# 24,000 was 3% slower (each part pays the per-diagonal overhead again),
# and no split 6% slower. A float32 sweep holds half the bytes per slot,
# but one budget serves both precisions: the bank methods ran no faster
# with float32 sweeps under 96,000 slots (BENCH_26.json).
SWEEP_SLOTS = 48_000


def _dtw_core(a: np.ndarray, b: np.ndarray, n: np.ndarray, m: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Squared banded DTW cost of K pairs, swept over the anti-diagonals i + j = t.

    ``a`` is (max n, K) and ``b`` is (max m, K): column k holds pair k,
    zero-padded. Both share one dtype, float32 or float64, and every
    buffer is allocated in it; the costs come back as float64. Slot s
    of a diagonal holds cell (s - 1, t - s + 1) of every pair; slot 0
    stands for the virtual cell (-1, -1), which is 0 before the first
    diagonal and infinite after it. Cells outside the widest band stay
    infinite, and a cell outside a narrower pair's own band is set to
    infinity. Padded cells hold junk, but no cell of a pair depends on a
    cell past its own last row or column. Pair k ends at slot n_k of
    diagonal n_k + m_k - 2.

    Three diagonal buffers rotate, and the arithmetic runs in place: the
    local cost in one scratch row, the minimum of the three predecessors
    straight in the diagonal's own slots, which then take the cost. So a
    diagonal allocates no array (a batch of mixed radii still builds its
    band mask). A buffer comes back
    holding diagonal t - 3. Diagonal t writes slots lo + 1 .. hi + 1
    and resets slot lo, the cell just outside the band, which diagonal
    t + 1 reads. Both band edges only move up as t grows, so the stale
    slots left below lo are never read again, and slot hi + 2, which
    diagonal t + 1 may also read, was never written: earlier diagonals
    reached at most slot hi + 1. The band edges of every diagonal are
    computed before the loop, which then does no per-diagonal Python
    arithmetic beyond slicing. The buffers belong to one call,
    because adjudications may run on several threads at once.
    """
    n_max, k = a.shape
    m_max = b.shape[0]
    radius = int(radii.max())
    narrower = radii if (radii != radius).any() else None
    twice_i = 2 * np.arange(n_max)
    b_rev = b[::-1].copy()  # b[t - i] for i = lo..hi is a forward slice of b_rev
    ends = n + m - 2
    finish: dict[int, list[int]] = {}
    for pair, t in enumerate(ends.tolist()):
        finish.setdefault(t, []).append(pair)
    diagonals = np.arange(int(ends.max()) + 1)
    los = np.maximum(np.maximum(diagonals - m_max + 1, (diagonals - radius + 1) // 2), 0)
    his = np.minimum(np.minimum(diagonals, (diagonals + radius) // 2), n_max - 1)
    out = np.empty(k)
    before = np.full((n_max + 1, k), np.inf, dtype=a.dtype)  # diagonal t - 2
    before[0] = 0.0
    last = np.full((n_max + 1, k), np.inf, dtype=a.dtype)  # diagonal t - 1
    cur = np.full((n_max + 1, k), np.inf, dtype=a.dtype)  # diagonal t, once written
    cost = np.empty((n_max, k), dtype=a.dtype)
    subtract, multiply, minimum, add = np.subtract, np.multiply, np.minimum, np.add
    for t, lo, hi in zip(diagonals.tolist(), los.tolist(), his.tolist()):
        d = cost[:hi + 1 - lo]
        subtract(a[lo:hi + 1], b_rev[m_max - 1 - t + lo:m_max - t + hi], out=d)
        multiply(d, d, out=d)
        cur[lo] = np.inf
        cells = cur[lo + 1:hi + 2]
        minimum(last[lo:hi + 1], last[lo + 1:hi + 2], out=cells)
        minimum(cells, before[lo:hi + 1], out=cells)
        add(cells, d, out=cells)
        if narrower is not None:
            cells[np.abs(twice_i[lo:hi + 1] - t)[:, None] > narrower] = np.inf
        ended = finish.get(t)
        if ended:
            out[ended] = cur[n[ended], ended]
        before, last, cur = last, cur, before
    return out


def znormalize(values: np.ndarray) -> np.ndarray:
    """Shift to zero mean and scale to unit standard deviation; a
    sequence constant up to rounding (:func:`signal_quality.spread`)
    raises :class:`ZeroVariance`."""
    x = np.asarray(values, dtype=np.float64)
    sigma = spread(x)
    if sigma == 0.0 or not np.isfinite(sigma):
        raise ZeroVariance("cannot z-normalize a constant sequence")
    return (x - np.mean(x)) / sigma


def dtw_distances(a, b, radius: int) -> np.ndarray:
    """Banded DTW distances of the pairs (a[k], b[k]), one sweep for all.

    ``a`` and ``b`` are sequences of 1-D sequences of equal count. Pair
    k is warped under the band radius
    ``max(radius, |len(a[k]) - len(b[k])|)``, so every pair has a path.
    The sweep runs in float32 when every input sequence is float32, and
    in float64 otherwise; the distances are float64, the square roots of
    the swept costs.

    Raises
    ------
    EmptySequence
        An input of some pair has no samples.
    NonFiniteSample
        An input of some pair holds a NaN or an infinity.
    ValueError
        The counts differ, or the band radius is negative.
    """
    a = [np.asarray(x) for x in a]
    b = [np.asarray(x) for x in b]
    dtype = np.float32 if all(x.dtype == np.float32 for x in (*a, *b)) else np.float64
    if len(a) != len(b):
        raise ValueError(f"{len(a)} first sequences against {len(b)} second sequences")
    if radius < 0:
        raise ValueError("band radius must be non-negative")
    n = np.array([len(x) for x in a], dtype=np.int64)
    m = np.array([len(x) for x in b], dtype=np.int64)
    if len(a) == 0:
        return np.empty(0)
    if not (n.all() and m.all()):
        raise EmptySequence("DTW inputs must be non-empty")
    radii = np.maximum(int(radius), np.abs(n - m))
    out = np.empty(len(a))
    per_part = max(1, SWEEP_SLOTS // int(n.max() + 1))
    for part in np.array_split(np.arange(len(a)), -(-len(a) // per_part)):
        padded_a = np.zeros((n[part].max(), len(part)), dtype=dtype)
        padded_b = np.zeros((m[part].max(), len(part)), dtype=dtype)
        for column, k in enumerate(part.tolist()):
            padded_a[:n[k], column] = a[k]
            padded_b[:m[k], column] = b[k]
        if not (np.isfinite(padded_a).all() and np.isfinite(padded_b).all()):
            raise NonFiniteSample("DTW inputs must be finite")
        out[part] = _dtw_core(padded_a, padded_b, n[part], m[part], radii[part])
    return np.sqrt(out)


def dtw_distance(a: np.ndarray, b: np.ndarray, radius: int) -> float:
    """Banded DTW distance between two 1-D sequences; the one-pair form
    of :func:`dtw_distances`, with the same errors."""
    return float(dtw_distances([a], [b], radius)[0])


class BankLead(NamedTuple):
    """One channel of a record at the match rate."""

    record: Record  # that channel alone, at MATCH_RATE_HZ
    channel: int  # its index in the source record
    factor: int  # source rate over match rate: source sample indices divide by it


def bank_lead(record: Record, channel: int) -> BankLead:
    """One channel of the record at the match rate.

    Only that channel is filtered, but over the whole record, so its
    samples match those of a resample of every channel. A record at
    neither the match rate nor twice it raises :class:`UnsupportedRate`.
    """
    if record.sample_rate == MATCH_RATE_HZ:
        return BankLead(single_channel(record, channel), channel, 1)
    if record.sample_rate == 2 * MATCH_RATE_HZ:
        return BankLead(resample_half(single_channel(record, channel)), channel, 2)
    raise UnsupportedRate(f"matching runs at {MATCH_RATE_HZ:g} Hz, record is {record.sample_rate:g} Hz")


@dataclass
class CorpusEntry:
    values: np.ndarray  # z-normalized pre-alarm sequence at the match rate
    is_true_alarm: bool
    record: str = ""


@dataclass
class TrainingCorpus:
    """Labelled pre-alarm windows of ventricular tachycardia alarms, all
    on one lead; ``skipped`` names each record left out of it, with the
    error that left it out."""

    entries: list[CorpusEntry] = field(default_factory=list)
    lead: str = DEFAULT_LEAD
    skipped: list[tuple[str, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)


def extract_alarm_lead(record: Record, lead: str = DEFAULT_LEAD) -> np.ndarray:
    """The last :data:`MATCH_SECONDS` before the alarm on one lead, at
    the match rate (:func:`bank_lead`), z-normalized. Missing samples
    are bridged by linear interpolation before normalization.
    """
    one = bank_lead(record, record.channel_index(lead)).record
    x = pre_alarm_window(one, MATCH_SECONDS).samples[0]
    nan = np.isnan(x)
    if nan.all():
        raise InsufficientData(f"lead {lead} is entirely missing in the alarm window")
    return znormalize(bridge_gaps(x, nan))


def corpus_from_records(
    labelled: Iterable[tuple[Record, bool]],
    lead: str = DEFAULT_LEAD,
    skip_errors: bool = False,
) -> TrainingCorpus:
    """Build a matching corpus on one lead from (record, is_true_alarm)
    pairs of ventricular tachycardia alarms, read once and in order.

    A record tagged with another arrhythmia raises
    :class:`UnsupportedMethod`, as ``classify_alarm`` does for dtw-full.
    With ``skip_errors``, a record that raises any package error is left
    out and listed in the corpus's ``skipped``.
    """
    corpus = TrainingCorpus(lead=lead)
    for record, truth in labelled:
        try:
            arrhythmia = record.alarm.arrhythmia
            if arrhythmia not in (None, Arrhythmia.VTACH):
                raise UnsupportedMethod(
                    f"dtw-full is defined only for ventricular tachycardia alarms, not {arrhythmia.value}"
                )
            values = extract_alarm_lead(record, lead=lead)
        except AlarmSentinelError as exc:
            if not skip_errors:
                raise
            corpus.skipped.append((record.name, str(exc)))
            continue
        corpus.entries.append(CorpusEntry(values, bool(truth), record.name))
    return corpus


def classify_full_signal(record: Record, corpus: TrainingCorpus) -> tuple[bool, int, float]:
    """Label, index and distance of the nearest labelled pre-alarm signal,
    with the query read on the corpus's lead.

    Every entry of the corpus is searched. An empty corpus raises
    :class:`EmptyCorpus`. The index is the entry's position in the
    corpus, and ties go to the earliest entry. The regular-activity gate
    is not applied here; the gated pipeline is
    ``alarm_logic.classify_alarm`` with method dtw-full.
    """
    sequence = extract_alarm_lead(record, lead=corpus.lead)
    if len(corpus) == 0:
        raise EmptyCorpus("nearest-neighbour search over an empty corpus")
    distances = dtw_distances([sequence] * len(corpus), [e.values for e in corpus.entries], FULL_SIGNAL_RADIUS)
    best = int(np.argmin(distances))  # the first minimum
    return corpus.entries[best].is_true_alarm, best, float(distances[best])
