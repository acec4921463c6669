"""Beat-bank classifiers: representative banks and self-beat novelty.

Three ways to decide whether a beat is ventricular, all built on the
same banded DTW distance at the beat level (1 s radius, which
:func:`dtw_distances` widens to a pair's length gap): nearest neighbour
against curated ventricular/standard banks, and two novelty rules that
compare a beat against 20 of the patient's own pre-alarm beats
(minimum-distance threshold, and KL divergence between distance
histograms). Each classifier takes the banks it
reads (the curated :class:`BankSet`, or the patient's bank and its
:class:`NoveltyStats`) and returns a :class:`BeatRule`, the bank
members to warp against and a rule that labels beats from their rows
of distances to them. :func:`vt_labels_from_bank` warps all of a
lead's comparable beats against the members in one DTW call and
applies the rule to the whole (beats x members) distance matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .beats import BEAT_MIN_S, BeatLabel, beat_segments, beat_slices, within
from .dtw import BEAT_RADIUS, MATCH_RATE_HZ, BankLead, dtw_distances, znormalize
from .errors import (
    BankTooSmall,
    DimensionMismatch,
    EmptyBank,
    InsufficientCleanBeats,
    IoFailure,
    NotNormalized,
    TooFewBeats,
    ZeroVariance,
)
from .record_io import read_text
from .signal_quality import clean_window_metrics, is_clean
# unused here: kept because perfbench/spans.py wraps beat_banks.dtw_distance and
# beat_banks.resample_half, and its tracer test fails when a wrap point is missing
from .dtw import dtw_distance  # noqa: F401
from .record_io import resample_half  # noqa: F401

SELF_BANK_SIZE = 20
SECTION_S = 10.0
BEAT_MIN_SAMPLES = int(BEAT_MIN_S * MATCH_RATE_HZ)
BEAT_MAX_SAMPLES = int(2.0 * MATCH_RATE_HZ)
KL_BINS = 10
KL_EDGE_FACTOR = 1.5
KL_EPSILON = 1e-9


class BankKind(Enum):
    VENTRICULAR = "ventricular"
    STANDARD = "standard"
    SELF = "self"


@dataclass
class BeatBank:
    kind: BankKind
    beats: list[np.ndarray] = field(default_factory=list)  # z-normalized, match rate
    provenance: list[tuple[str, int, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.beats)


@dataclass
class NoveltyStats:
    mu_min: float
    sigma_min: float
    mu_kl: float
    sigma_kl: float
    reference_distances: np.ndarray  # condensed pairwise list, (i, j) with i < j
    bin_edges: np.ndarray


@dataclass
class BankSet:
    """The curated banks of the dtw-vbank method."""

    ventricular: BeatBank | None = None
    standard: BeatBank | None = None


def _single(beats: list[np.ndarray]) -> list[np.ndarray]:
    """``beats`` in single precision, so :func:`dtw_distances` sweeps
    them in float32, on half the bytes per cell of float64.

    Records hold 16-bit counts, and float32 rounds a z-normalized sample
    at about 6e-8 of its value, far below one count. Against the float64
    sweep, a beat-pair distance d moved by at most 5.1e-7 * (1 + d) over
    9,000 drawn z-normalized pairs of 25-250 samples at
    :data:`BEAT_RADIUS` (random, random-walk, spiked, and one shape under
    noise down to 1e-6), so the bound is 1e-6 * (1 + d): relative for
    distant beats, absolute for near-copies, where the rounding of each
    sample rather than the shapes sets the difference. Banks keep their
    beats in float64; each caller casts every distinct beat once, not
    once per pair.
    """
    return [beat.astype(np.float32) for beat in beats]


def _comparable_beats(
    samples: np.ndarray, segments: tuple[np.ndarray, np.ndarray]
) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """``(position, start, end, z-normalized slice)`` of each segment of
    ``segments``, the ``(starts, ends)`` of :func:`beat_segments`, whose
    slice can be compared: :func:`beat_slices` keeps it and it is not
    flat."""
    for pos, (start, end, slice_) in enumerate(beat_slices(samples, segments, BEAT_MIN_SAMPLES, BEAT_MAX_SAMPLES)):
        if slice_ is None:
            continue
        try:
            beat = znormalize(slice_)
        except ZeroVariance:
            continue
        yield pos, start, end, beat


def extract_self_bank(lead: BankLead, beats: np.ndarray, exclude_s: float) -> BeatBank:
    """Collect the patient's own recent clean beats, newest first.

    Scans 10 s sections of ``lead`` (:func:`bank_lead`; ``beats`` are its
    beat positions at the record's rate) backward, from before the alarm
    section (the final ``exclude_s`` seconds stay out: they may hold the
    event being adjudicated, and banked beats must never be the beats
    under test) down to the lead's first beat. A section contributes its
    interior beats only when its clean-signal metrics pass, so every
    banked beat comes from trustworthy signal.

    Raises
    ------
    InsufficientCleanBeats
        Fewer than :data:`SELF_BANK_SIZE` beats survived; carries the
        count found.
    """
    rec = lead.record
    section = int(SECTION_S * MATCH_RATE_HZ)
    at_match_rate = beats // lead.factor
    samples = rec.samples[0]

    bank: list[np.ndarray] = []
    provenance: list[tuple[str, int, int]] = []
    sec_end = rec.alarm.alarm_index - int(round(exclude_s * MATCH_RATE_HZ))
    first = int(at_match_rate.min()) if len(at_match_rate) else sec_end  # a section ending by then holds no beat
    while sec_end - section >= 0 and sec_end > first and len(bank) < SELF_BANK_SIZE:
        sec_start = sec_end - section
        window = samples[sec_start:sec_end]
        try:
            metrics = clean_window_metrics(window, MATCH_RATE_HZ)
        except ZeroVariance:
            sec_end = sec_start
            continue
        if is_clean(metrics):
            try:
                starts, ends = beat_segments(within(at_match_rate, sec_start, sec_end))
            except TooFewBeats:  # a section with fewer than three beats has no interior
                starts = ends = np.empty(0, dtype=np.int64)
            interior = starts[-2:0:-1], ends[-2:0:-1]  # newest first
            for _, s, e, beat in _comparable_beats(samples, interior):
                bank.append(beat)
                provenance.append((rec.name, s, e))
                if len(bank) == SELF_BANK_SIZE:
                    break
        sec_end = sec_start

    if len(bank) < SELF_BANK_SIZE:
        raise InsufficientCleanBeats(
            f"found {len(bank)} clean beats before the alarm section, need {SELF_BANK_SIZE}",
            found=len(bank),
        )
    return BeatBank(BankKind.SELF, bank, provenance)


def bank_novelty_stats(bank: BeatBank) -> NoveltyStats:
    """Pairwise-distance statistics used by both novelty rules.

    The KL baselines are leave-one-out: for each bank beat, a
    histogram of its distances to the others is compared against the
    histogram of the remaining pairs, giving the spread of KL values a
    genuinely normal beat produces.
    """
    n = len(bank)
    if n < 3:
        raise BankTooSmall(f"novelty statistics need at least 3 beats, have {n}")

    iu, ju = np.triu_indices(n, k=1)
    beats = _single(bank.beats)
    reference = dtw_distances([beats[i] for i in iu], [beats[j] for j in ju], BEAT_RADIUS)
    dist = np.zeros((n, n))
    dist[iu, ju] = dist[ju, iu] = reference
    others = dist[~np.eye(n, dtype=bool)].reshape(n, n - 1)  # row i: beat i against the others, in order
    mins = others.min(axis=1)
    bin_edges = _bin_edges(reference)

    # the pairs without beat i are all pairs but the n - 1 in row i
    own = _bin_counts(others, bin_edges)
    rest = _bin_counts(reference[np.newaxis], bin_edges) - own
    kls = _kl_rows(own / (n - 1), smooth_distribution(rest / (len(reference) - (n - 1))))

    return NoveltyStats(
        mu_min=float(np.mean(mins)),
        sigma_min=float(np.std(mins)),
        mu_kl=float(np.mean(kls)),
        sigma_kl=float(np.std(kls)),
        reference_distances=reference,
        bin_edges=bin_edges,
    )


def _bin_edges(reference: np.ndarray) -> np.ndarray:
    hi = float(np.max(reference)) * KL_EDGE_FACTOR if len(reference) else 0.0
    if hi <= 0.0:
        hi = 1e-12  # degenerate identical-beat bank: any real distance lands in the tail
    return np.linspace(0.0, hi, KL_BINS + 1)


def _bin_counts(rows: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Counts of each row's values per bin, after clipping to the edges.

    Values fall in bins as ``np.histogram`` puts them: v is in bin k
    when e_k <= v < e_k+1, and the top edge is in the last bin. Counts
    are integers, so they equal a per-row ``np.histogram`` exactly.
    """
    bins = len(edges) - 1
    which = np.searchsorted(edges, np.clip(rows, edges[0], edges[-1]), side="right") - 1
    np.minimum(which, bins - 1, out=which)
    which += bins * np.arange(len(rows))[:, np.newaxis]
    return np.bincount(which.ravel(), minlength=bins * len(rows)).reshape(len(rows), bins)


def _histogram(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Share of the values per bin; the one-row form of :func:`_bin_counts`."""
    return _bin_counts(values[np.newaxis], edges)[0] / len(values)


def smooth_distribution(q: np.ndarray) -> np.ndarray:
    """Additive smoothing: lift zero bins by :data:`KL_EPSILON`,
    renormalize.

    A 2-D ``q`` is smoothed row by row."""
    q = np.asarray(q, dtype=np.float64)
    return (q + KL_EPSILON) / (q.sum(axis=-1, keepdims=True) + KL_EPSILON * q.shape[-1])


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum(P * ln(P/Q)) of each row of ``p`` against ``q`` (one row for
    all, or one per row), with 0 ln 0 = 0.

    numpy sums fewer than 8 terms one by one and 8 or more with eight
    accumulators, so each row is summed over a contiguous run of
    exactly its nonzero terms, as a one-row call sums them: rows are
    grouped by that count.
    """
    q = np.broadcast_to(q, p.shape)
    mask = p > 0
    with np.errstate(divide="ignore"):
        terms = p[mask] * np.log(p[mask] / q[mask])
    sizes = mask.sum(axis=1)
    starts = np.cumsum(sizes) - sizes
    kls = np.empty(len(p))
    for size in np.unique(sizes).tolist():
        rows = sizes == size
        kls[rows] = terms[starts[rows][:, np.newaxis] + np.arange(size)].sum(axis=1)
    return kls


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Kullback-Leibler divergence sum(P * ln(P/Q)), with 0 ln 0 = 0.

    Raises
    ------
    DimensionMismatch
        P and Q have different lengths.
    NotNormalized
        Either input has negative mass or does not sum to 1 within
        1e-9.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DimensionMismatch(f"P has {p.shape}, Q has {q.shape}")
    for name, h in (("P", p), ("Q", q)):
        if (h < 0).any() or abs(h.sum() - 1.0) > 1e-9:
            raise NotNormalized(f"{name} is not a probability distribution")
    return float(_kl_rows(p[np.newaxis], q)[0])


class BeatRule(NamedTuple):
    """A beat classifier bound to its banks: the bank beats every window
    beat is warped against, and the beats' labels from their
    (beats x members) matrix of distances to them, one row per beat."""

    members: list[np.ndarray]
    label: Callable[[np.ndarray], list[BeatLabel]]


def _labels(ventricular: np.ndarray) -> list[BeatLabel]:
    return [BeatLabel.VENTRICULAR if v else BeatLabel.NORMAL for v in ventricular.tolist()]


def classify_beat_vbank(banks: BankSet) -> BeatRule:
    """Label of the nearest beat across the ventricular and standard
    banks; ties go ventricular."""
    if not banks.ventricular or not banks.standard:
        raise EmptyBank("vbank classification needs both banks populated")
    n_ventricular = len(banks.ventricular)

    def label(rows: np.ndarray) -> list[BeatLabel]:
        # argmin takes the first minimum, and the ventricular beats come first
        return _labels(rows.argmin(axis=1) < n_ventricular)

    return BeatRule(banks.ventricular.beats + banks.standard.beats, label)


def classify_beat_self_min(bank: BeatBank, stats: NoveltyStats) -> BeatRule:
    """Ventricular iff the minimum distance to the patient bank exceeds
    mu + sigma."""

    def label(rows: np.ndarray) -> list[BeatLabel]:
        return _labels(rows.min(axis=1) > stats.mu_min + stats.sigma_min)

    return BeatRule(bank.beats, label)


def classify_beat_self_kl(bank: BeatBank, stats: NoveltyStats) -> BeatRule:
    """Ventricular iff the beat's distance histogram diverges from the
    patient bank's."""
    q = smooth_distribution(_histogram(stats.reference_distances, stats.bin_edges))

    def label(rows: np.ndarray) -> list[BeatLabel]:
        p = _bin_counts(rows, stats.bin_edges) / rows.shape[1]
        return _labels(_kl_rows(p, q) > stats.mu_kl + stats.sigma_kl)

    return BeatRule(bank.beats, label)


def _distance_rows(beats: list[np.ndarray], members: list[np.ndarray]) -> np.ndarray:
    """Distances of every beat to every member, one row per beat, from
    one DTW call."""
    beats, members = _single(beats), _single(members)
    pairs = dtw_distances([x for x in beats for _ in members], members * len(beats), BEAT_RADIUS)
    return pairs.reshape(len(beats), len(members))


def vt_labels_from_bank(lead: BankLead, beats: np.ndarray, rule: BeatRule) -> list[BeatLabel]:
    """The label of each of ``beats``, positions at the record's rate on
    ``lead`` (:func:`bank_lead`), in order, from ``rule``:
    :func:`classify_beat_vbank`, :func:`classify_beat_self_min` or
    :func:`classify_beat_self_kl`.

    Beats whose slice cannot be compared (flat, out of length bounds,
    or containing gaps) are Unknown; the others are warped against the
    bank members in one batch.
    """
    segments = beat_segments(beats // lead.factor)
    labels = [BeatLabel.UNKNOWN] * len(beats)
    comparable = list(_comparable_beats(lead.record.samples[0], segments))
    rows = _distance_rows([beat for *_, beat in comparable], rule.members)
    for (pos, *_), label in zip(comparable, rule.label(rows)):
        labels[pos] = label
    return labels


def save_beat_file(path: str | Path, values: np.ndarray, label: BeatLabel) -> Path:
    """Write one beat: header ``fs=125 label=V`` then one sample per line."""
    path = Path(path)
    code = "V" if label is BeatLabel.VENTRICULAR else "N"
    lines = [f"fs={MATCH_RATE_HZ:g} label={code}"]
    lines.extend(repr(float(v)) for v in np.asarray(values, dtype=np.float64))
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write beat file {path}: {exc}") from None
    return path


def load_beat_file(path: str | Path) -> tuple[np.ndarray, BeatLabel]:
    path = Path(path)
    lines = read_text(path, "beat file").splitlines()
    if not lines:
        raise IoFailure(f"beat file {path} is empty")
    header = dict(f.split("=", 1) for f in lines[0].split() if "=" in f)
    if header.get("fs") != f"{MATCH_RATE_HZ:g}" or header.get("label") not in ("V", "N"):
        raise IoFailure(f"beat file {path} has a bad header: {lines[0]!r}")
    try:
        values = np.array([float(v) for v in lines[1:] if v.strip()], dtype=np.float64)
    except ValueError as exc:
        raise IoFailure(f"beat file {path} has a bad sample line: {exc}") from None
    if len(values) == 0:
        raise IoFailure(f"beat file {path} has no samples")
    if not np.isfinite(values).all():
        raise IoFailure(f"beat file {path} has a non-finite sample")
    label = BeatLabel.VENTRICULAR if header["label"] == "V" else BeatLabel.NORMAL
    return values, label


def save_bank(bank: BeatBank, directory: str | Path, prefix: str = "beat") -> list[Path]:
    directory = Path(directory)
    label = BeatLabel.VENTRICULAR if bank.kind is BankKind.VENTRICULAR else BeatLabel.NORMAL
    paths = []
    for i, beat in enumerate(bank.beats):
        paths.append(save_beat_file(directory / f"{prefix}_{i:03d}.txt", beat, label))
    return paths


def load_bank_dir(directory: str | Path) -> BankSet:
    """Load every beat file in a directory into labelled banks.

    Beats are z-normalized on load so hand-edited files still satisfy
    the bank invariant; a flat beat, which cannot be, raises
    :class:`IoFailure`.
    """
    directory = Path(directory)
    files = sorted(directory.glob("*.txt"))
    if not files:
        raise EmptyBank(f"no beat files (*.txt) in {directory}")
    vbank = BeatBank(BankKind.VENTRICULAR)
    sbank = BeatBank(BankKind.STANDARD)
    for f in files:
        values, label = load_beat_file(f)
        try:
            beat = znormalize(values)
        except ZeroVariance:
            raise IoFailure(f"beat file {f} is flat: {len(values)} samples of one value") from None
        bank = vbank if label is BeatLabel.VENTRICULAR else sbank
        bank.beats.append(beat)
        bank.provenance.append((f.name, 0, len(values)))
    return BankSet(ventricular=vbank, standard=sbank)
