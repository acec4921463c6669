"""Deterministic synthetic alarm records with known ground truth.

Every generated record carries its construction facts (beat times,
beat labels, whether a real event was injected), so the test suite
can judge the detectors and the full pipeline against an oracle that
does not depend on them. Events always land in the final 16 s, where
the analysis window looks.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .beat_banks import BankKind, BankSet, BeatBank
from .beats import BeatLabel
from .dtw import znormalize
from .errors import InvalidSpec
from .record_io import (
    AlarmMeta,
    Arrhythmia,
    ChannelMeta,
    Manifest,
    ManifestEntry,
    Record,
    channel_kind,
    write_manifest,
    write_record,
)

TEMPLATE_S = 0.65  # beat template support
R_OFFSET_S = 0.25  # R peak position inside the template
# Events end this long before the alarm rings. Two seconds leaves room
# for at least one resumed beat after a pause, so the long RR interval
# that breaks the regular-activity gate is visible on every channel.
EVENT_TAIL_S = 2.0


@dataclass
class SynthSpec:
    """Full description of one synthetic record."""

    name: str
    arrhythmia: Arrhythmia
    event: bool  # False = clean sinus rhythm mislabeled with this alarm
    heart_rate: float = 80.0
    duration_s: float = 120.0
    sample_rate: float = 250.0
    gap_s: float = 5.0  # asystole pause
    brady_rate: float = 38.0
    tachy_rate: float = 150.0
    vt_beats: int = 6
    vt_rate: float = 120.0
    vf_freq_hz: float = 5.0
    vf_duration_s: float = 5.0
    qrs_width_ms: float = 80.0
    vent_width_ms: float = 140.0
    noise_mv: float = 0.01
    baseline_wander_mv: float = 0.0
    seed: int = 0
    channels: tuple[str, ...] = ("II", "V", "ABP", "PLETH")

    def validate(self) -> None:
        if self.duration_s < 32.0:
            raise InvalidSpec("records must be at least 32 s (16 s window plus context)")
        if self.sample_rate not in (125.0, 250.0):
            raise InvalidSpec(f"unsupported sample rate {self.sample_rate}")
        for rate_name in ("heart_rate", "brady_rate", "tachy_rate", "vt_rate"):
            rate = getattr(self, rate_name)
            if not 15.0 <= rate <= 300.0:
                raise InvalidSpec(f"{rate_name} {rate} outside [15, 300] bpm")
        if not 0.0 < self.gap_s <= 14.0:
            raise InvalidSpec("asystole gap must be in (0, 14] s")
        if not 0.0 < self.vf_duration_s <= 14.0:
            raise InvalidSpec("fibrillation burst must be in (0, 14] s")
        if self.vt_beats < 2:
            raise InvalidSpec("a tachycardia run needs at least 2 beats")
        if self.noise_mv < 0 or self.baseline_wander_mv < 0:
            raise InvalidSpec("noise levels must be non-negative")
        if not self.channels:
            raise InvalidSpec("at least one channel required")


@dataclass
class GroundTruth:
    beat_times: np.ndarray  # seconds, R peak positions
    beat_labels: list[BeatLabel]
    expected_true: bool


def _gauss(t: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    return np.exp(-0.5 * ((t - mu) / sigma) ** 2)


def narrow_template(rel: np.ndarray, width_s: float = 0.080) -> np.ndarray:
    """Multiphasic QRS with small P and T waves; R peak at R_OFFSET_S.

    The spike-trough triplet spacing sets a spectral resonance near
    11 Hz, inside the 5-15 Hz window a clean section must concentrate
    its power in, and above the split the beat classifier uses to
    separate narrow complexes from wide ones.
    """
    r = R_OFFSET_S
    d = 0.575 * width_s  # trough offset: resonance period ~2d
    return (
        1.2 * _gauss(rel, r, 0.013)
        - 0.4 * _gauss(rel, r - d, 0.013)
        - 0.5 * _gauss(rel, r + d, 0.013)
        + 0.10 * _gauss(rel, r - 0.17, 0.025)
        + 0.18 * _gauss(rel, r + 0.24, 0.045)
    )


def wide_template(rel: np.ndarray, width_s: float = 0.140) -> np.ndarray:
    """Broad ventricular complex: dominant low-frequency hump with a
    sharp core that keeps the QRS detector triggering and aligned.

    The core carries enough 5 to 15 Hz energy to clear an adaptive
    detection threshold trained on neighboring narrow beats, yet the
    hump keeps band power below 10 Hz far ahead, so the spectral beat
    classifier still calls the complex ventricular.
    """
    r = R_OFFSET_S
    return (
        1.1 * _gauss(rel, r, width_s / 2.355)
        + 1.2 * _gauss(rel, r, 0.016)
        + 0.40 * _gauss(rel, r + 0.30, 0.09)
    )


def _beat_plan(spec: SynthSpec, rng: np.random.Generator) -> tuple[list[tuple[float, bool]], tuple[float, float] | None]:
    """Beat times with a wide/narrow flag, plus the optional VF span."""
    T = spec.duration_s
    base_rr = 60.0 / spec.heart_rate
    event_start = T - 16.0
    beats: list[tuple[float, bool]] = []
    vf_span: tuple[float, float] | None = None
    arr = spec.arrhythmia

    if spec.event and arr is Arrhythmia.VFIB:
        vf_span = (T - EVENT_TAIL_S - spec.vf_duration_s, T - EVENT_TAIL_S)
    gap_span = None
    if spec.event and arr is Arrhythmia.ASYSTOLE:
        gap_span = (T - EVENT_TAIL_S - spec.gap_s, T - EVENT_TAIL_S)

    t = 0.4
    vt_left = 0
    vt_started = False
    while t < T - (TEMPLATE_S - R_OFFSET_S):
        rr = base_rr
        wide = False
        if spec.event:
            if arr is Arrhythmia.BRADYCARDIA and t >= event_start:
                rr = 60.0 / spec.brady_rate
            elif arr is Arrhythmia.TACHYCARDIA and t >= event_start:
                rr = 60.0 / spec.tachy_rate
            elif arr is Arrhythmia.VTACH:
                if not vt_started and t >= T - 12.0:
                    vt_started = True
                    vt_left = spec.vt_beats
                if vt_left > 0:
                    wide = True
                    rr = 60.0 / spec.vt_rate
                    vt_left -= 1
        skip = (gap_span is not None and gap_span[0] <= t < gap_span[1]) or (
            vf_span is not None and vf_span[0] - 0.3 <= t < vf_span[1] + 0.3
        )
        if not skip:
            beats.append((t, wide))
        t += rr * (1.0 + rng.normal(0.0, 0.004))
    return beats, vf_span


def _stamp(target: np.ndarray, fs: float, t_beat: float, template, width: float, amp: float = 1.0) -> None:
    i0 = int(np.ceil((t_beat - R_OFFSET_S) * fs))
    i1 = min(i0 + int(round(TEMPLATE_S * fs)), len(target))
    i0 = max(i0, 0)
    if i1 <= i0:
        return
    rel = np.arange(i0, i1) / fs - (t_beat - R_OFFSET_S)
    target[i0:i1] += amp * template(rel, width)


def _pulse(target: np.ndarray, fs: float, t_beat: float, amp: float, base_delay: float = 0.25) -> None:
    centre = t_beat + base_delay
    i0 = max(int((centre - 0.36) * fs), 0)
    i1 = min(int((centre + 0.36) * fs), len(target))
    if i1 <= i0:
        return
    rel = np.arange(i0, i1) / fs
    target[i0:i1] += amp * _gauss(rel, centre, 0.09)


def generate(spec: SynthSpec) -> tuple[Record, GroundTruth]:
    """Render one record; ground truth comes from construction."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    fs = spec.sample_rate
    n = int(round(spec.duration_s * fs))
    t_axis = np.arange(n) / fs

    beats, vf_span = _beat_plan(spec, rng)
    in_vt = [wide for _, wide in beats]

    channels: list[ChannelMeta] = []
    samples = np.zeros((len(spec.channels), n))
    for ci, name in enumerate(spec.channels):
        kind = channel_kind(name)
        if kind.value == "ECG":
            ecg = np.zeros(n)
            scale = 1.0 if name.upper() == "II" else 0.8
            for (tb, wide) in beats:
                if wide:
                    _stamp(ecg, fs, tb, wide_template, spec.vent_width_ms / 1000.0, scale)
                else:
                    _stamp(ecg, fs, tb, narrow_template, spec.qrs_width_ms / 1000.0, scale)
            if vf_span is not None:
                lo, hi = (int(round(v * fs)) for v in vf_span)
                ecg[lo:hi] += 1.1 * scale * np.sin(2 * np.pi * spec.vf_freq_hz * (t_axis[lo:hi] - vf_span[0]))
            if spec.baseline_wander_mv > 0:
                ecg += spec.baseline_wander_mv * np.sin(2 * np.pi * 0.3 * t_axis)
            if spec.noise_mv > 0:
                ecg += rng.normal(0.0, spec.noise_mv, n)
            samples[ci] = ecg
            channels.append(ChannelMeta(name, kind, "mV", 200.0, 0, ""))
        elif kind.value == "ABP":
            abp = np.full(n, 80.0)
            for (tb, wide) in beats:
                _pulse(abp, fs, tb, 10.0 if wide else 40.0)
            if spec.noise_mv > 0:
                abp += rng.normal(0.0, 20.0 * spec.noise_mv, n)
            samples[ci] = abp
            channels.append(ChannelMeta(name, kind, "mmHg", 20.0, 0, ""))
        elif kind.value == "PPG":
            ppg = np.full(n, 0.5)
            for (tb, wide) in beats:
                _pulse(ppg, fs, tb, 0.09 if wide else 0.35, base_delay=0.3)
            if spec.noise_mv > 0:
                ppg += rng.normal(0.0, 0.3 * spec.noise_mv, n)
            samples[ci] = ppg
            channels.append(ChannelMeta(name, kind, "NU", 1000.0, 0, ""))
        else:
            if spec.noise_mv > 0:
                samples[ci] = rng.normal(0.0, spec.noise_mv, n)
            channels.append(ChannelMeta(name, kind, "NU", 1000.0, 0, ""))

    record = Record(
        name=spec.name,
        sample_rate=fs,
        channels=channels,
        samples=samples,
        alarm=AlarmMeta(spec.arrhythmia, spec.event, n),
    )
    truth = GroundTruth(
        beat_times=np.array([tb for tb, _ in beats]),
        beat_labels=[BeatLabel.VENTRICULAR if w else BeatLabel.NORMAL for w in in_vt],
        expected_true=spec.event,
    )
    return record, truth


_CLASS_PREFIX = {
    Arrhythmia.ASYSTOLE: "a",
    Arrhythmia.BRADYCARDIA: "b",
    Arrhythmia.TACHYCARDIA: "t",
    Arrhythmia.VTACH: "v",
    Arrhythmia.VFIB: "f",
}


def suite_specs(seed: int = 7, per_class: int = 10) -> list[SynthSpec]:
    """The standing synthetic evaluation suite: half true, half false."""
    specs: list[SynthSpec] = []
    for arrhythmia in Arrhythmia:
        prefix = _CLASS_PREFIX[arrhythmia]
        for i in range(per_class):
            event = i < (per_class + 1) // 2
            specs.append(
                SynthSpec(
                    name=f"{prefix}{100 + i}s",
                    arrhythmia=arrhythmia,
                    event=event,
                    heart_rate=72.0 + 4.0 * (i % 5),
                    seed=seed * 1000 + len(specs),
                )
            )
    return specs


def generate_suite(out_dir: str | Path, seed: int = 7, per_class: int = 10) -> Path:
    """Write the suite records plus a manifest CSV; returns its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: list[ManifestEntry] = []
    for spec in suite_specs(seed, per_class):
        record, truth = generate(spec)
        header = write_record(record, out_dir)
        entries.append(ManifestEntry(str(header.resolve()), spec.arrhythmia, truth.expected_true))
    return write_manifest(Manifest(entries), out_dir / "manifest.csv")


def surrogate_banks(seed: int = 0, size: int = 20, fs: float = 125.0) -> BankSet:
    """Ventricular and standard banks built from the beat templates.

    A stand-in for the hand-curated representative banks: each member
    is a template beat with its own small noise draw, z-normalized.
    """
    rng = np.random.default_rng(seed)
    rel = np.arange(int(TEMPLATE_S * fs)) / fs
    vbank = BeatBank(BankKind.VENTRICULAR)
    sbank = BeatBank(BankKind.STANDARD)
    for i in range(size):
        wide = wide_template(rel, 0.140) + rng.normal(0.0, 0.01, len(rel))
        narrow = narrow_template(rel, 0.080) + rng.normal(0.0, 0.01, len(rel))
        vbank.beats.append(znormalize(wide))
        vbank.provenance.append((f"surrogate_v{i}", 0, len(rel)))
        sbank.beats.append(znormalize(narrow))
        sbank.provenance.append((f"surrogate_n{i}", 0, len(rel)))
    return BankSet(ventricular=vbank, standard=sbank)
