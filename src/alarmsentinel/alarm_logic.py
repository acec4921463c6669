"""Alarm adjudication: regular-activity gate plus per-arrhythmia checks.

The flow mirrors the bedside logic: first decide whether any channel
shows completely regular activity in the analysis window (if so the
alarm cannot be real and is dismissed), otherwise run the check
specific to the alarm type. Every decision keeps per-channel evidence
so a verdict can be audited.

A deliberate asymmetry runs through everything here: when a check
cannot be evaluated (too few beats, no usable channel, bank
construction failed), it raises :class:`CannotDecide` with a
:class:`FailSafe` note and :func:`classify_alarm` lets the alarm
through as true. False negatives are the dangerous direction.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import groupby
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .beats import (
    BEAT_MIN_S,
    BeatAnnotation,
    BeatLabel,
    beat_segments,
    beat_slices,
    detect_pulses,
    detect_qrs,
    spectral_labels,
    window_heart_rate,
)
# unused here: kept because perfbench/spans.py wraps alarm_logic.classify_beat_spectral,
# and its tracer test fails when a wrap point is missing
from .beats import classify_beat_spectral  # noqa: F401
from .beat_banks import (
    BankSet,
    BeatRule,
    bank_novelty_stats,
    classify_beat_self_kl,
    classify_beat_self_min,
    classify_beat_vbank,
    extract_self_bank,
    vt_labels_from_bank,
)
from .dtw import DEFAULT_LEAD, BankLead, TrainingCorpus, bank_lead, classify_full_signal
from .errors import (
    CannotDecide,
    EmptyCorpus,
    FailSafe,
    InsufficientCleanBeats,
    InsufficientData,
    InvalidConfig,
    LengthMismatch,
    MalformedAnnotation,
    MissingLead,
    TooFewBeats,
    UnknownArrhythmia,
    UnsupportedMethod,
    WindowTooShort,
    ZeroVariance,
)
from .record_io import Arrhythmia, ChannelKind, Record, read_text
from .signal_quality import QualityReport, _density, assess_quality


# seconds before the analysis window in which the detectors' thresholds settle
# (Pan and Tompkins, IEEE TBME 1985, learn theirs in 2 s; 16 s moves benchmark
# verdicts, 20 s none), and the self bank's history: three 10 s sections
DETECT_WARMUP_S = 30.0

# the band in which the VF check looks for the dominant frequency and sums power
VF_SEARCH_HZ = (0.5, 30.0)


@dataclass
class Thresholds:
    """Thresholds for the gate and the five arrhythmia checks."""

    analysis_window_s: float = 16.0
    asystole_gap_s: float = 3.0
    brady_hr: float = 45.0
    brady_beats: int = 4
    tachy_hr: float = 140.0
    tachy_beats: int = 17
    vt_hr: float = 95.0
    vt_beats: int = 4
    vt_abp_std: float = 6.0
    vf_min_duration_s: float = 3.0
    vf_dominant_lo_hz: float = 2.0
    vf_dominant_hi_hz: float = 8.0
    vf_concentration: float = 0.6
    rr_cv_max: float = 0.1
    rr_min_s: float = 0.43
    rr_max_s: float = 1.5
    min_regular_beats: int = 5

    def __post_init__(self):
        for name in ("brady_beats", "tachy_beats", "vt_beats"):
            if getattr(self, name) < 2:
                raise InvalidConfig(f"{name} must be at least 2 (a rate window spans two beats or more)")
        for f in fields(self):
            value = getattr(self, f.name)
            # a NaN threshold compares False both ways, so its check would never fire
            if isinstance(value, float) and not np.isfinite(value):
                raise InvalidConfig(f"{f.name} must be finite, got {value}")
        if self.analysis_window_s <= 0:
            raise InvalidConfig(f"analysis_window_s must be above 0, got {self.analysis_window_s}")
        # each of these leaves a check that can never fire, which turns every true alarm false
        if self.vf_dominant_lo_hz >= self.vf_dominant_hi_hz:
            raise InvalidConfig(
                f"vf_dominant_lo_hz must be below vf_dominant_hi_hz, got {self.vf_dominant_lo_hz} and {self.vf_dominant_hi_hz}"
            )
        lo, hi = VF_SEARCH_HZ
        if self.vf_dominant_hi_hz < lo or self.vf_dominant_lo_hz > hi:
            key = "vf_dominant_hi_hz" if self.vf_dominant_hi_hz < lo else "vf_dominant_lo_hz"
            raise InvalidConfig(f"{key} leaves the VF band outside the {lo}-{hi} Hz search band, got {getattr(self, key)}")
        if self.vf_concentration > 1:
            raise InvalidConfig(f"vf_concentration is a share of power, at most 1, got {self.vf_concentration}")
        if self.vt_abp_std <= 0:
            raise InvalidConfig(f"vt_abp_std must be above 0, got {self.vt_abp_std}")
        if self.brady_hr <= 0:
            raise InvalidConfig(f"brady_hr must be above 0, got {self.brady_hr}")
        if self.asystole_gap_s > self.analysis_window_s:
            raise InvalidConfig(
                f"asystole_gap_s must be at most analysis_window_s ({self.analysis_window_s}), got {self.asystole_gap_s}"
            )

    def update(self, overrides: dict) -> "Thresholds":
        """A copy with ``overrides`` cast to the field types."""
        names = {f.name for f in fields(self)}
        cast = {}
        for key, value in overrides.items():
            if key not in names:
                raise InvalidConfig(f"unknown config key {key!r}")
            try:
                cast[key] = type(getattr(self, key))(value)
            except (TypeError, ValueError):
                raise InvalidConfig(f"config key {key!r}: {value!r} is not a number of the right type") from None
        return replace(self, **cast)

    @classmethod
    def from_file(cls, path: str | Path) -> "Thresholds":
        """Read ``key = value`` lines; unknown and repeated keys are errors."""
        overrides = {}
        for line_no, line in enumerate(read_text(path, "config").splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidConfig(f"config line {line_no}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in overrides:
                raise InvalidConfig(f"config line {line_no}: key {key!r} is set twice")
            overrides[key] = value
        return cls().update(overrides)


@dataclass
class ChannelEvidence:
    channel: str
    test: str
    outcome: bool
    witnesses: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "channel": self.channel,
            "test": self.test,
            "outcome": bool(self.outcome),
            "witnesses": {k: (None if v is None else float(v)) for k, v in self.witnesses.items()},
        }


@dataclass
class Verdict:
    is_true_alarm: bool
    gate_fired: bool
    evidence: list[ChannelEvidence]
    method: str

    def to_dict(self) -> dict:
        return {
            "decision": "true_alarm" if self.is_true_alarm else "false_alarm",
            "gate_fired": bool(self.gate_fired),
            "method": self.method,
            "evidence": [e.to_dict() for e in self.evidence],
        }


@dataclass
class AlarmContext:
    """What the arrhythmia checks read: the record, its beat annotations,
    the validity report over the analysis window (``quality.window``),
    and the inputs of the adjudication method."""

    record: Record
    annotations: list[BeatAnnotation | None]
    quality: QualityReport
    config: Thresholds = field(default_factory=Thresholds)
    method: str = "improved"
    banks: BankSet | None = None
    corpus: TrainingCorpus | None = None
    lead: str = DEFAULT_LEAD


_KIND_PRIORITY = {
    ChannelKind.ECG: 1,
    ChannelKind.ABP: 2,
    ChannelKind.PPG: 3,
    ChannelKind.RESP: 4,
    ChannelKind.OTHER: 5,
}


def most_reliable_channel(record: Record, quality: QualityReport, candidates: list[int]) -> int | None:
    """The candidate channel with the highest validity; ties prefer ECG
    lead II, then any ECG, then pressure, then PPG. None for no
    candidates."""
    if not candidates:
        return None

    def key(i: int) -> tuple:
        ch = record.channels[i]
        rank = 0 if (ch.kind is ChannelKind.ECG and ch.name.lower() == "ii") else _KIND_PRIORITY[ch.kind]
        return (-quality.validity[i], rank, i)

    return min(candidates, key=key)


def analysis_beats(record: Record, annotations: list[BeatAnnotation | None], lead: str) -> tuple[BankLead, BeatAnnotation]:
    """The bank methods' lead at the match rate, and its beats: the named
    lead, else the first ECG channel. Cannot decide without either
    (``vtach_no_ecg``), without beats on it (``vtach_no_annotations``),
    or when it is too short for the anti-alias filter
    (``bank_lead_too_short``)."""
    try:
        channel = record.channel_index(lead)
    except MissingLead:
        ecg = record.channels_of_kind(ChannelKind.ECG)
        if not ecg:
            raise CannotDecide(FailSafe.VTACH_NO_ECG) from None
        channel = ecg[0]
    ann = annotations[channel]
    if ann is None:
        raise CannotDecide(FailSafe.VTACH_NO_ANNOTATIONS)
    try:
        return bank_lead(record, channel), ann
    except InsufficientData:
        raise CannotDecide(FailSafe.BANK_LEAD_TOO_SHORT, samples=float(record.n_samples)) from None


def regular_activity(
    record: Record,
    annotations: list[BeatAnnotation | None],
    quality: QualityReport,
    config: Thresholds,
) -> tuple[list[ChannelEvidence], bool]:
    """Per-channel gate evidence and the any-channel verdict over the
    window of ``quality``.

    A channel is regular only when the window has zero invalid
    samples, at least five beats, RR spread (coefficient of variation)
    at most 0.1, and every RR interval within [0.43 s, 1.5 s]. Each
    channel's evidence witnesses its validity, its beat count in the
    window, and the RR spread once there are two beats.
    """
    fs = record.sample_rate
    evidence: list[ChannelEvidence] = []
    for i, ch in enumerate(record.channels):
        witnesses: dict[str, float] = {"validity": quality.validity[i]}
        ann = annotations[i]
        regular = False
        if ann is not None:
            beats_in = ann.within(*quality.window)
            witnesses["beats"] = float(beats_in.count)
            if beats_in.count >= 2:
                rr = np.diff(beats_in.indices) / fs
                cv = float(np.std(rr) / np.mean(rr))
                witnesses["rr_cv"] = cv
                regular = (
                    beats_in.count >= config.min_regular_beats
                    and quality.validity[i] == 1.0
                    and cv <= config.rr_cv_max
                    and float(rr.min()) >= config.rr_min_s
                    and float(rr.max()) <= config.rr_max_s
                )
        evidence.append(ChannelEvidence(ch.name, "regular_activity", regular, witnesses))
    return evidence, any(e.outcome for e in evidence)


def _longest_gap_samples(annotation: BeatAnnotation, window: tuple[int, int]) -> int:
    """Longest run of beat-free samples in the half-open window."""
    start, end = window
    inside = annotation.within(start, end).indices
    if len(inside) == 0:
        return end - start
    spans = [int(inside[0]) - start]
    if len(inside) > 1:
        spans.extend(int(d) - 1 for d in np.diff(inside))
    spans.append(end - int(inside[-1]) - 1)
    return max(spans)


def check_asystole(ctx: AlarmContext) -> list[ChannelEvidence]:
    """Fires iff the most reliable annotated channel has a beat-free
    stretch of at least 3 s in the window."""
    record = ctx.record
    candidates = [i for i in range(record.n_channels) if ctx.annotations[i] is not None]
    best = most_reliable_channel(record, ctx.quality, candidates)
    if best is None:
        raise CannotDecide(FailSafe.ASYSTOLE_NO_CHANNEL)
    fs = record.sample_rate
    gap = _longest_gap_samples(ctx.annotations[best], ctx.quality.window)
    fired = gap >= ctx.config.asystole_gap_s * fs
    return [ChannelEvidence(record.channels[best].name, "asystole_gap", fired, {"longest_gap_s": gap / fs})]


def _rate_check(ctx: AlarmContext, note: FailSafe, beats_per_window: int, pick_min: bool) -> list[ChannelEvidence]:
    """Rate evidence named ``note``, which is also the note when no channel has beats."""
    record, config, test = ctx.record, ctx.config, note.value
    candidates = [
        i for i in range(record.n_channels)
        if ctx.annotations[i] is not None and record.channels[i].kind in (ChannelKind.ECG, ChannelKind.ABP, ChannelKind.PPG)
    ]
    best = most_reliable_channel(record, ctx.quality, candidates)
    if best is None:
        raise CannotDecide(note, reason_no_channel=1.0)
    name = record.channels[best].name
    beats_in = ctx.annotations[best].within(*ctx.quality.window)
    if beats_in.count < beats_per_window:
        # not enough beats to measure a rate: never suppress on missing evidence
        return [ChannelEvidence(name, test, True, {"beats": float(beats_in.count), "needed": float(beats_per_window)})]
    rates = window_heart_rate(beats_in, record.sample_rate, beats_per_window)
    extreme = float(rates.min() if pick_min else rates.max())
    fired = extreme < config.brady_hr if pick_min else extreme > config.tachy_hr
    key = "min_window_hr" if pick_min else "max_window_hr"
    return [ChannelEvidence(name, test, fired, {key: extreme, "beats": float(beats_in.count)})]


def check_bradycardia(ctx: AlarmContext) -> list[ChannelEvidence]:
    """Fires iff the most reliable channel's slowest 4-beat window is
    under the threshold (or it has too few beats to say)."""
    return _rate_check(ctx, FailSafe.BRADYCARDIA_HR, ctx.config.brady_beats, pick_min=True)


def check_tachycardia(ctx: AlarmContext) -> list[ChannelEvidence]:
    """Fires iff the fastest 17-beat window exceeds the threshold (or
    there are too few beats to say)."""
    return _rate_check(ctx, FailSafe.TACHYCARDIA_HR, ctx.config.tachy_beats, pick_min=False)


def _vf_windows(windows: np.ndarray, fs: float, config: Thresholds) -> np.ndarray:
    """Which gap-free windows show one dominant 2-8 Hz oscillation, from
    one batched spectrum call."""
    f, psd = _density(windows, fs, "boxcar", max(1024, windows.shape[1]))
    band = (f >= VF_SEARCH_HZ[0]) & (f <= VF_SEARCH_HZ[1])
    f_band = f[band]
    # contiguous rows sum in the same order as a single window's spectrum
    p_band = np.ascontiguousarray(psd[:, band])
    total = p_band.sum(axis=1)
    f_dom = f_band[np.argmax(p_band, axis=1)]
    # the bins within 1 Hz of the peak are one contiguous run per row
    lo = np.searchsorted(f_band, f_dom - 1.0, side="left")
    width = np.searchsorted(f_band, f_dom + 1.0, side="right") - lo
    around = np.empty(len(p_band))
    for w in np.unique(width):
        rows = np.flatnonzero(width == w)
        around[rows] = p_band[rows[:, None], lo[rows, None] + np.arange(w)].sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        concentrated = around / total
    return (
        (total > 0.0)
        & (config.vf_dominant_lo_hz <= f_dom)
        & (f_dom <= config.vf_dominant_hi_hz)
        & (concentrated >= config.vf_concentration)
    )


def _vfib_detail(samples: np.ndarray, fs: float, config: Thresholds) -> tuple[bool, dict]:
    win = int(round(2.0 * fs))
    hop = int(round(0.5 * fs))
    qualifying = np.zeros(len(range(0, len(samples) - win + 1, hop)), dtype=bool)
    if len(qualifying):
        windows = sliding_window_view(samples, win)[::hop]
        whole = np.flatnonzero(~np.isnan(windows).any(axis=1))
        if len(whole):
            qualifying[whole] = _vf_windows(windows[whole], fs, config)
    best_span = 0.0
    run = 0
    for q in qualifying:
        run = run + 1 if q else 0
        if run:
            best_span = max(best_span, (run - 1) * (hop / fs) + (win / fs))
    return best_span >= config.vf_min_duration_s, {"sustained_s": best_span}


def check_vfib(ctx: AlarmContext) -> list[ChannelEvidence]:
    """Fires iff low-frequency oscillation dominates the most reliable
    ECG channel for long enough.

    Sliding 2 s spectra must show a dominant frequency in 2-8 Hz with
    at least 60% of 0.5-30 Hz power within 1 Hz of it, sustained for
    the configured minimum duration. A window shorter than that
    duration cannot be judged.
    """
    record, (start, end) = ctx.record, ctx.quality.window
    best = most_reliable_channel(record, ctx.quality, record.channels_of_kind(ChannelKind.ECG))
    if best is None:
        raise CannotDecide(FailSafe.VFIB_NO_ECG)
    fs = record.sample_rate
    if end - start < int(round(ctx.config.vf_min_duration_s * fs)):
        raise CannotDecide(FailSafe.VFIB_WINDOW_TOO_SHORT, window_s=(end - start) / fs)
    fired, witnesses = _vfib_detail(record.samples[best, start:end], fs, ctx.config)
    return [ChannelEvidence(record.channels[best].name, "vfib_dominance", fired, witnesses)]


def _ventricular_run_hr(
    beats: BeatAnnotation, labels: list[BeatLabel], fs: float, config: Thresholds
) -> tuple[bool, float, float]:
    """Longest run of consecutive ventricular ``labels`` of ``beats``, and
    the fastest ``vt_beats``-beat window inside any run."""
    best_run = 0
    best_hr = 0.0
    pos = 0
    for ventricular, group in groupby(labels, key=lambda label: label is BeatLabel.VENTRICULAR):
        length = len(list(group))
        if ventricular:
            best_run = max(best_run, length)
            if length >= config.vt_beats:
                run = BeatAnnotation(beats.channel, beats.indices[pos : pos + length])
                best_hr = max(best_hr, float(window_heart_rate(run, fs, config.vt_beats).max()))
        pos += length
    return best_hr > config.vt_hr, float(best_run), best_hr


def _ecg_vote(
    name: str, beats: BeatAnnotation, labels: list[BeatLabel], fs: float, config: Thresholds
) -> list[ChannelEvidence]:
    """The ``vtach_ecg`` vote of one lead's window beats and their labels
    (a fast ventricular run votes for the alarm); no vote when every
    beat is Unknown."""
    if all(label is BeatLabel.UNKNOWN for label in labels):
        return []  # no beat could be compared
    positive, run, hr = _ventricular_run_hr(beats, labels, fs, config)
    return [ChannelEvidence(name, "vtach_ecg", positive, {"ventricular_run": run, "run_hr": hr})]


def spectral_vt_labels(record: Record, annotation: BeatAnnotation) -> list[BeatLabel]:
    """The label of each beat, in order: Normal/Ventricular from its
    slice's band power, or Unknown without a usable slice."""
    fs = record.sample_rate
    segments = beat_segments(annotation)
    channel = record.samples[annotation.channel]
    # no upper length bound: a clamped slice is never longer than the record
    slices = [slice_ for _, _, slice_ in beat_slices(channel, segments, int(round(BEAT_MIN_S * fs)), record.n_samples)]
    found = iter(spectral_labels([x for x in slices if x is not None], fs))
    return [BeatLabel.UNKNOWN if x is None else next(found) for x in slices]


def _spectral_votes(ctx: AlarmContext) -> list[ChannelEvidence]:
    """A vote per ECG channel from the spectral labels of its window
    beats, and per gap-free pressure channel (a collapsed pulse)."""
    record, (start, end) = ctx.record, ctx.quality.window
    votes: list[ChannelEvidence] = []
    for i, ch in enumerate(record.channels):
        ann = ctx.annotations[i]
        if ch.kind is ChannelKind.ECG and ann is not None:
            beats_in = ann.within(start, end)
            try:
                labels = spectral_vt_labels(record, beats_in)
            except TooFewBeats:  # too few beats to segment: the channel abstains
                continue
            votes += _ecg_vote(ch.name, beats_in, labels, record.sample_rate, ctx.config)
        elif ch.kind is ChannelKind.ABP:
            segment = record.samples[i, start:end]
            if np.isnan(segment).any() or len(segment) == 0:
                continue  # no vote from a channel with gaps
            std = float(np.std(segment))
            votes.append(ChannelEvidence(ch.name, "vtach_abp", std < ctx.config.vt_abp_std, {"abp_std": std}))
    return votes


def _curated_rule(classify: Callable[..., BeatRule], ctx: AlarmContext, *_) -> BeatRule:
    """``classify`` bound to the curated banks of ``ctx``."""
    return classify(ctx.banks or BankSet())


def _self_rule(classify: Callable[..., BeatRule], ctx: AlarmContext, lead: BankLead, ann: BeatAnnotation) -> BeatRule:
    """``classify`` bound to the patient's own bank, built from the
    lead's pre-alarm beats, and to that bank's novelty statistics."""
    try:
        bank = extract_self_bank(lead, ann, exclude_s=ctx.config.analysis_window_s)
    except InsufficientCleanBeats as exc:
        raise CannotDecide(FailSafe.SELF_BANK_FAILED, clean_beats_found=float(exc.found)) from None
    return classify(bank, bank_novelty_stats(bank))


def _bank_votes(
    bind: Callable[..., BeatRule], classify: Callable[..., BeatRule], ctx: AlarmContext
) -> list[ChannelEvidence]:
    """Labels from ``classify``, bound to its banks by ``bind``
    (:func:`_curated_rule` or :func:`_self_rule`), on the single
    analysis lead (:func:`analysis_beats`); pressure does not vote, nor
    does a named lead that is not ECG. The lead is brought to the match
    rate once, for the bank and the labels alike.
    """
    lead, ann = analysis_beats(ctx.record, ctx.annotations, ctx.lead)
    rule = bind(classify, ctx, lead, ann)
    beats_in = ann.within(*ctx.quality.window)
    try:
        labels = vt_labels_from_bank(lead, beats_in, rule)
    except TooFewBeats:
        raise CannotDecide(FailSafe.VTACH_TOO_FEW_BEATS, beats=float(beats_in.count)) from None
    channel = ctx.record.channels[lead.channel]
    if channel.kind is not ChannelKind.ECG:
        return []
    return _ecg_vote(channel.name, beats_in, labels, ctx.record.sample_rate, ctx.config)


def _nearest_signal(ctx: AlarmContext) -> list[ChannelEvidence]:
    """The label of the nearest labelled pre-alarm signal on the corpus's lead."""
    if ctx.corpus is None:
        raise EmptyCorpus("dtw-full needs a training corpus")
    try:
        label, index, distance = classify_full_signal(ctx.record, ctx.corpus)
    except (MissingLead, InsufficientData, ZeroVariance):  # no lead, too short, all missing or flat
        raise CannotDecide(FailSafe.DTW_FULL_NO_SIGNAL) from None
    return [ChannelEvidence(ctx.corpus.lead, "nearest_neighbor", label, {"distance": distance, "neighbor": float(index)})]


class Method(NamedTuple):
    """What sets a method apart: the evidence it gathers for a VT alarm
    (for a bank method, its beat classifier and the banks it is bound
    to: the curated banks, or a patient bank built from the lead's beats
    in the span every method detects, :func:`detection_start`), and how
    a check's evidence combines into the verdict."""

    vt_evidence: Callable[[AlarmContext], list[ChannelEvidence]]
    combine: Callable[[Iterable[bool]], bool] = any


METHOD_TABLE: dict[str, Method] = {
    "baseline": Method(_spectral_votes, all),
    "improved": Method(_spectral_votes),
    "dtw-full": Method(_nearest_signal),
    "dtw-vbank": Method(partial(_bank_votes, _curated_rule, classify_beat_vbank)),
    "dtw-self-min": Method(partial(_bank_votes, _self_rule, classify_beat_self_min)),
    "dtw-self-kl": Method(partial(_bank_votes, _self_rule, classify_beat_self_kl)),
}
METHODS = tuple(METHOD_TABLE)
# the warping methods analyze a single lead and apply only to VT alarms
DTW_METHODS = tuple(m for m, spec in METHOD_TABLE.items() if spec.vt_evidence is not _spectral_votes)


def check_vtach(ctx: AlarmContext) -> list[ChannelEvidence]:
    """The VT evidence of ``ctx.method``: channel votes fed by its beat
    labeller (an ECG channel with a fast ventricular run, or a pressure
    channel with a collapsed pulse, votes for the alarm), or the
    nearest-neighbour match for dtw-full. No vote at all cannot be
    judged."""
    votes = METHOD_TABLE[ctx.method].vt_evidence(ctx)
    if not votes:
        raise CannotDecide(FailSafe.VTACH_NO_VOTES)
    return votes


CHECKS: dict[Arrhythmia, Callable[[AlarmContext], list[ChannelEvidence]]] = {
    Arrhythmia.ASYSTOLE: check_asystole,
    Arrhythmia.BRADYCARDIA: check_bradycardia,
    Arrhythmia.TACHYCARDIA: check_tachycardia,
    Arrhythmia.VFIB: check_vfib,
    Arrhythmia.VTACH: check_vtach,
}


def _window(record: Record, config: Thresholds) -> tuple[int, int]:
    """The ``analysis_window_s`` before the alarm, clamped at the record's start."""
    end = record.alarm.alarm_index
    return max(0, end - int(round(config.analysis_window_s * record.sample_rate))), end


def detection_start(record: Record, config: Thresholds) -> int:
    """The first sample the detectors see: :data:`DETECT_WARMUP_S` before
    the analysis window, or the record's start."""
    return max(0, _window(record, config)[0] - int(round(DETECT_WARMUP_S * record.sample_rate)))


def detect_annotations(
    record: Record, given: Mapping[int, BeatAnnotation | None] | None = None, config: Thresholds | None = None
) -> list[BeatAnnotation | None]:
    """Beat annotations per channel: the ``given`` entry (None for no beats)
    where there is one, detector output elsewhere, from
    :func:`detection_start` under ``config`` to the record's end, in record
    coordinates. A key that is no channel, or an entry on another channel
    than its key, is a :class:`LengthMismatch`; an entry that does not
    strictly increase, a :class:`MalformedAnnotation`."""
    given = given or {}
    for i, ann in given.items():
        if i not in range(record.n_channels):
            raise LengthMismatch(f"annotation key {i!r} is no channel of {record.n_channels}")
        if ann is not None and ann.channel != i:
            raise LengthMismatch(f"annotation entry {i} is on channel {ann.channel}")
        if ann is not None and (np.diff(ann.indices) <= 0).any():
            raise MalformedAnnotation(f"annotation entry {i} ({record.channels[i].name}): beats must strictly increase")
    start = detection_start(record, config or Thresholds())
    return [given[i] if i in given else _detected(record, i, start) for i in range(record.n_channels)]


def _detected(record: Record, channel: int, start: int) -> BeatAnnotation | None:
    """The detector's beats on ``channel`` from sample ``start`` on, in
    record coordinates; None for a channel kind without a detector, or a
    span too short to detect on."""
    kind = record.channels[channel].kind
    if kind is ChannelKind.ECG:
        detect = detect_qrs
    elif kind in (ChannelKind.ABP, ChannelKind.PPG):
        detect = detect_pulses
    else:
        return None
    try:
        found = detect(record.samples[channel, start:], record.sample_rate, channel=channel)
    except WindowTooShort:
        return None
    return BeatAnnotation(channel, found.indices + start)


def classify_alarm(
    record: Record,
    method: str = "improved",
    config: Thresholds | None = None,
    banks: BankSet | None = None,
    corpus: TrainingCorpus | None = None,
    annotations: Mapping[int, BeatAnnotation | None] | None = None,
    lead: str = DEFAULT_LEAD,
) -> Verdict:
    """Adjudicate one alarm record end to end.

    Validity screening and the regular-activity gate always run; the
    gate dismissing the alarm overrides everything else. Otherwise the
    record's arrhythmia tag picks the check from :data:`CHECKS`, and
    the method's ``combine`` turns the check's evidence into the
    decision. A check that cannot decide leaves the alarm true. The
    DTW methods apply only to ventricular tachycardia alarms and
    analyze a single lead.

    ``annotations`` maps a channel to its beats, or to None for no
    beats; :func:`detect_annotations` detects the channels it does not
    key over the same span for every method. ``banks`` holds the curated ventricular and standard
    banks that dtw-vbank needs (dtw-self-min and dtw-self-kl build the
    patient's bank from the beats of that span before the window);
    ``corpus`` is required for dtw-full, which reads the record on the
    corpus's lead; ``lead`` names the bank methods' lead.
    """
    if method not in METHOD_TABLE:
        raise UnsupportedMethod(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    arrhythmia = record.alarm.arrhythmia
    if arrhythmia is None:
        raise UnknownArrhythmia(f"record {record.name!r} carries no arrhythmia tag")
    if method in DTW_METHODS and arrhythmia is not Arrhythmia.VTACH:
        raise UnsupportedMethod(f"{method} is defined only for ventricular tachycardia alarms")

    config = config or Thresholds()
    window = _window(record, config)
    if window[0] >= window[1]:
        raise InsufficientData(f"record {record.name!r} has no samples in its analysis window {window}")
    quality = assess_quality(record, window)
    annotations = detect_annotations(record, annotations, config)

    evidence, gate = regular_activity(record, annotations, quality, config)
    if gate:
        return Verdict(is_true_alarm=False, gate_fired=True, evidence=evidence, method=method)

    ctx = AlarmContext(record, annotations, quality, config, method, banks, corpus, lead)
    try:
        found = CHECKS[arrhythmia](ctx)
    except CannotDecide as exc:
        found, decision = [ChannelEvidence("", exc.note, True, exc.witnesses)], True
    else:
        decision = METHOD_TABLE[method].combine(e.outcome for e in found)
    return Verdict(is_true_alarm=decision, gate_fired=False, evidence=evidence + found, method=method)
