"""Beat-bank classifiers: representative banks and self-beat novelty.

Three ways to decide whether a beat is ventricular, all built on the
same banded DTW distance at the beat level (1 s radius): nearest
neighbour against curated ventricular/standard banks, and two
novelty rules that compare a beat against 20 of the patient's own
pre-alarm beats (minimum-distance threshold, and KL divergence
between distance histograms). Each is a :data:`BeatClassifier`:
bound to a :class:`BankSet`, it checks that the banks it reads are
there and returns a :class:`BeatRule`, the bank members to warp
against and a rule that labels a beat from its row of distances to
them. :func:`vt_labels_from_bank` warps all of a record's comparable
beats against the members in one DTW call and applies the rule row by
row.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .beats import BeatAnnotation, BeatLabel, BeatSegment, beat_segments, beat_slices
from .dtw import BEAT_RADIUS, dtw_distances, znormalize
# unused here: kept because perfbench/spans.py wraps beat_banks.dtw_distance,
# and its tracer test fails when a wrap point is missing
from .dtw import dtw_distance  # noqa: F401
from .errors import (
    BankTooSmall,
    DimensionMismatch,
    EmptyBank,
    InsufficientCleanBeats,
    IoFailure,
    NotNormalized,
    TooFewBeats,
    UnsupportedRate,
    ZeroVariance,
)
from .record_io import Record, resample_half, single_channel
from .signal_quality import CleanThresholds, clean_window_metrics, is_clean

BANK_RATE_HZ = 125.0
SELF_BANK_SIZE = 20
SECTION_S = 10.0
BEAT_MIN_SAMPLES = int(0.2 * BANK_RATE_HZ)
BEAT_MAX_SAMPLES = int(2.0 * BANK_RATE_HZ)
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
    beats: list[np.ndarray] = field(default_factory=list)  # z-normalized, bank rate
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
    """The banks a classification method may need, bundled for dispatch."""

    ventricular: BeatBank | None = None
    standard: BeatBank | None = None
    self_bank: BeatBank | None = None
    stats: NoveltyStats | None = None


class BankLead(NamedTuple):
    """One channel of a record at the bank rate."""

    record: Record  # that channel alone, at BANK_RATE_HZ
    channel: int  # its index in the source record
    factor: int  # source rate over bank rate: source sample indices divide by it


def bank_lead(record: Record | BankLead, channel: int) -> BankLead:
    """One channel of the record at the bank rate.

    Only that channel is filtered, but over the whole record, so its
    samples match those of a resample of every channel. A
    :class:`BankLead` of that channel passes through unchanged, so a
    caller that builds a self bank and then labels beats resamples
    once.
    """
    if isinstance(record, BankLead):
        if record.channel != channel:
            raise ValueError(f"bank lead is channel {record.channel}, beats are on channel {channel}")
        return record
    if record.sample_rate == BANK_RATE_HZ:
        return BankLead(single_channel(record, channel), channel, 1)
    if record.sample_rate == 2 * BANK_RATE_HZ:
        return BankLead(resample_half(single_channel(record, channel)), channel, 2)
    raise UnsupportedRate(
        f"beat banks run at {BANK_RATE_HZ:g} Hz, record is {record.sample_rate:g} Hz"
    )


def _beat_distances(a: list[np.ndarray], b: list[np.ndarray]) -> np.ndarray:
    # beats of very different lengths would make the band infeasible;
    # widen it just enough so every pair stays comparable
    gaps = np.abs(np.array([len(x) for x in a]) - np.array([len(y) for y in b]))
    return dtw_distances(a, b, np.maximum(BEAT_RADIUS, gaps))


def _comparable_beats(
    samples: np.ndarray, segments: Iterable[BeatSegment]
) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """``(position, start, end, z-normalized slice)`` of each segment
    whose slice can be compared: :func:`beat_slices` keeps it and it is
    not flat."""
    for pos, (start, end, slice_) in enumerate(beat_slices(samples, segments, BEAT_MIN_SAMPLES, BEAT_MAX_SAMPLES)):
        if slice_ is None:
            continue
        try:
            beat = znormalize(slice_)
        except ZeroVariance:
            continue
        yield pos, start, end, beat


def extract_self_bank(
    record: Record | BankLead,
    annotation: BeatAnnotation,
    thresholds: CleanThresholds | None = None,
    size: int = SELF_BANK_SIZE,
    exclude_s: float = 16.0,
) -> BeatBank:
    """Collect the patient's own recent clean beats, newest first.

    Scans 10 s sections backward, starting before the alarm section
    (the final ``exclude_s`` seconds stay out: they may contain the
    event being adjudicated, and banked beats must never be the beats
    under test). A section contributes its interior beats only when
    its clean-signal metrics pass, so every banked beat comes from
    trustworthy signal. ``record`` may be the lead already at the bank
    rate (:func:`bank_lead`).

    Raises
    ------
    InsufficientCleanBeats
        Fewer than ``size`` beats survived; carries the count found.
    """
    ch = annotation.channel
    rec, _, factor = bank_lead(record, ch)
    section = int(SECTION_S * BANK_RATE_HZ)
    idx = annotation.indices // factor
    samples = rec.samples[0]

    beats: list[np.ndarray] = []
    provenance: list[tuple[str, int, int]] = []
    sec_end = rec.alarm.alarm_index - int(round(exclude_s * BANK_RATE_HZ))
    while sec_end - section >= 0 and len(beats) < size:
        sec_start = sec_end - section
        window = samples[sec_start:sec_end]
        try:
            metrics = clean_window_metrics(window, BANK_RATE_HZ)
        except ZeroVariance:
            sec_end = sec_start
            continue
        if is_clean(metrics, thresholds):
            in_section = idx[(idx >= sec_start) & (idx < sec_end)]
            if len(in_section) >= 3:
                segments = beat_segments(BeatAnnotation(ch, in_section))
                interior = reversed(segments[1:-1])  # newest first
                for _, s, e, beat in _comparable_beats(samples, interior):
                    beats.append(beat)
                    provenance.append((rec.name, s, e))
                    if len(beats) == size:
                        break
        sec_end = sec_start

    if len(beats) < size:
        raise InsufficientCleanBeats(
            f"found {len(beats)} clean beats before the alarm section, need {size}",
            found=len(beats),
        )
    return BeatBank(BankKind.SELF, beats, provenance)


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
    reference = _beat_distances([bank.beats[i] for i in iu], [bank.beats[j] for j in ju])
    dist = np.zeros((n, n))
    dist[iu, ju] = dist[ju, iu] = reference
    mins = np.array([np.min(np.delete(dist[i], i)) for i in range(n)])
    bin_edges = _bin_edges(reference)

    kls = np.empty(n)
    for i in range(n):
        own = np.delete(dist[i], i)
        rest = reference[(iu != i) & (ju != i)]
        p = _histogram(own, bin_edges)
        q = smooth_distribution(_histogram(rest, bin_edges))
        kls[i] = kl_divergence(p, q)

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


def _histogram(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    clipped = np.clip(values, edges[0], edges[-1])
    counts, _ = np.histogram(clipped, bins=edges)
    return counts / len(values)


def smooth_distribution(q: np.ndarray, epsilon: float = KL_EPSILON) -> np.ndarray:
    """Additive smoothing: lift zero bins by ``epsilon``, renormalize."""
    q = np.asarray(q, dtype=np.float64)
    return (q + epsilon) / (q.sum() + epsilon * len(q))


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
    mask = p > 0
    with np.errstate(divide="ignore"):
        terms = p[mask] * np.log(p[mask] / q[mask])
    return float(np.sum(terms))


class BeatRule(NamedTuple):
    """A beat classifier bound to its banks: the bank beats every window
    beat is warped against, and a beat's label from its row of
    distances to them, in that order."""

    members: list[np.ndarray]
    label: Callable[[np.ndarray], BeatLabel]


BeatClassifier = Callable[[BankSet], BeatRule]


def classify_beat_vbank(banks: BankSet) -> BeatRule:
    """Label of the nearest beat across the ventricular and standard
    banks; ties go ventricular."""
    if not banks.ventricular or not banks.standard:
        raise EmptyBank("vbank classification needs both banks populated")
    n_ventricular = len(banks.ventricular)

    def label(row: np.ndarray) -> BeatLabel:
        # argmin takes the first minimum, and the ventricular beats come first
        return BeatLabel.VENTRICULAR if int(np.argmin(row)) < n_ventricular else BeatLabel.NORMAL

    return BeatRule(banks.ventricular.beats + banks.standard.beats, label)


def _patient_bank(banks: BankSet) -> tuple[BeatBank, NoveltyStats]:
    if not banks.self_bank or banks.stats is None:
        raise EmptyBank("self-bank classification needs the patient bank and its statistics")
    return banks.self_bank, banks.stats


def classify_beat_self_min(banks: BankSet) -> BeatRule:
    """Ventricular iff the minimum distance to the patient bank exceeds
    mu + sigma."""
    bank, stats = _patient_bank(banks)

    def label(row: np.ndarray) -> BeatLabel:
        return BeatLabel.VENTRICULAR if float(np.min(row)) > stats.mu_min + stats.sigma_min else BeatLabel.NORMAL

    return BeatRule(bank.beats, label)


def classify_beat_self_kl(banks: BankSet) -> BeatRule:
    """Ventricular iff the beat's distance histogram diverges from the
    patient bank's."""
    bank, stats = _patient_bank(banks)
    q = smooth_distribution(_histogram(stats.reference_distances, stats.bin_edges))

    def label(row: np.ndarray) -> BeatLabel:
        kl = kl_divergence(_histogram(row, stats.bin_edges), q)
        return BeatLabel.VENTRICULAR if kl > stats.mu_kl + stats.sigma_kl else BeatLabel.NORMAL

    return BeatRule(bank.beats, label)


def _distance_rows(beats: list[np.ndarray], members: list[np.ndarray]) -> np.ndarray:
    """Distances of every beat to every member, one row per beat, from
    one DTW call."""
    pairs = _beat_distances([x for x in beats for _ in members], members * len(beats))
    return pairs.reshape(len(beats), len(members))


def vt_labels_from_bank(
    record: Record | BankLead,
    annotation: BeatAnnotation,
    classifier: BeatClassifier,
    banks: BankSet,
) -> BeatAnnotation:
    """Label every annotated beat with ``classifier`` bound to ``banks``.

    ``classifier`` is :func:`classify_beat_vbank`,
    :func:`classify_beat_self_min` or :func:`classify_beat_self_kl`;
    ``record`` may be the lead already at the bank rate
    (:func:`bank_lead`). Beats whose slice cannot be compared (flat,
    out of length bounds, or containing gaps) come back Unknown; the
    others are warped against the bank members in one batch.
    """
    rec, _, factor = bank_lead(record, annotation.channel)
    if annotation.count < 3:
        raise TooFewBeats(f"beat labelling needs at least 3 beats, have {annotation.count}")
    segments = beat_segments(BeatAnnotation(annotation.channel, annotation.indices // factor))
    rule = classifier(banks)

    labels = [BeatLabel.UNKNOWN] * len(segments)
    comparable = list(_comparable_beats(rec.samples[0], segments))
    rows = _distance_rows([beat for *_, beat in comparable], rule.members)
    for (pos, *_), row in zip(comparable, rows):
        labels[pos] = rule.label(row)
    return BeatAnnotation(annotation.channel, annotation.indices.copy(), labels)


def save_beat_file(path: str | Path, values: np.ndarray, label: BeatLabel) -> Path:
    """Write one beat: header ``fs=125 label=V`` then one sample per line."""
    path = Path(path)
    code = "V" if label is BeatLabel.VENTRICULAR else "N"
    lines = [f"fs={BANK_RATE_HZ:g} label={code}"]
    lines.extend(repr(float(v)) for v in np.asarray(values, dtype=np.float64))
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write beat file {path}: {exc}") from None
    return path


def load_beat_file(path: str | Path) -> tuple[np.ndarray, BeatLabel]:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise IoFailure(f"cannot read beat file {path}: {exc}") from None
    if not lines:
        raise IoFailure(f"beat file {path} is empty")
    header = dict(f.split("=", 1) for f in lines[0].split() if "=" in f)
    if header.get("fs") != f"{BANK_RATE_HZ:g}" or header.get("label") not in ("V", "N"):
        raise IoFailure(f"beat file {path} has a bad header: {lines[0]!r}")
    try:
        values = np.array([float(v) for v in lines[1:] if v.strip()], dtype=np.float64)
    except ValueError as exc:
        raise IoFailure(f"beat file {path} has a bad sample line: {exc}") from None
    if len(values) == 0:
        raise IoFailure(f"beat file {path} has no samples")
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
    the bank invariant.
    """
    directory = Path(directory)
    files = sorted(directory.glob("*.txt"))
    if not files:
        raise EmptyBank(f"no beat files (*.txt) in {directory}")
    vbank = BeatBank(BankKind.VENTRICULAR)
    sbank = BeatBank(BankKind.STANDARD)
    for f in files:
        values, label = load_beat_file(f)
        bank = vbank if label is BeatLabel.VENTRICULAR else sbank
        bank.beats.append(znormalize(values))
        bank.provenance.append((f.name, 0, len(values)))
    return BankSet(ventricular=vbank, standard=sbank)
