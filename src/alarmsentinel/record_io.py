"""Load, window, and write multichannel alarm records.

A record is a small text header next to a 16-bit binary signal file.
The header names the channels and carries the alarm annotation as
comment lines; the signal file holds little-endian two's-complement
counts, frame-major (sample 0 of every channel, then sample 1, ...).
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache
from pathlib import Path

import numpy as np
from scipy.signal import butter, filtfilt

from .errors import (
    DuplicateEntry,
    InsufficientData,
    IoFailure,
    LengthMismatch,
    MalformedHeader,
    MalformedRow,
    MissingLead,
    UnknownArrhythmia,
    UnsupportedRate,
)

SENTINEL = -32768  # count value reserved for missing samples
COUNT_MIN = -32767
COUNT_MAX = 32767


class Arrhythmia(Enum):
    ASYSTOLE = "Asystole"
    BRADYCARDIA = "Bradycardia"
    TACHYCARDIA = "Tachycardia"
    VTACH = "Ventricular_Tachycardia"
    VFIB = "Ventricular_Flutter_Fib"


class ChannelKind(Enum):
    ECG = "ECG"
    ABP = "ABP"
    PPG = "PPG"
    RESP = "RESP"
    OTHER = "OTHER"


_ECG_NAMES = {
    "i", "ii", "iii", "avr", "avl", "avf", "mcl", "mcl1",
    "v", "v1", "v2", "v3", "v4", "v5", "v6",
}

_ARRHYTHMIA_ALIASES = {
    "asystole": Arrhythmia.ASYSTOLE,
    "bradycardia": Arrhythmia.BRADYCARDIA,
    "extreme bradycardia": Arrhythmia.BRADYCARDIA,
    "tachycardia": Arrhythmia.TACHYCARDIA,
    "extreme tachycardia": Arrhythmia.TACHYCARDIA,
    "ventricular tachycardia": Arrhythmia.VTACH,
    "vtach": Arrhythmia.VTACH,
    "vt": Arrhythmia.VTACH,
    "ventricular flutter fib": Arrhythmia.VFIB,
    "ventricular flutter fibrillation": Arrhythmia.VFIB,
    "ventricular fibrillation": Arrhythmia.VFIB,
    "ventricular flutter": Arrhythmia.VFIB,
    "vfib": Arrhythmia.VFIB,
    "vf": Arrhythmia.VFIB,
}


def parse_arrhythmia(name: str) -> Arrhythmia:
    """Map an arrhythmia name (any common alias) to its enum value."""
    key = re.sub(r"[\s_/]+", " ", name.strip().lower())
    try:
        return _ARRHYTHMIA_ALIASES[key]
    except KeyError:
        raise UnknownArrhythmia(f"unrecognised arrhythmia name: {name!r}") from None


def channel_kind(name: str) -> ChannelKind:
    """Classify a signal name into a channel kind."""
    key = name.strip().lower()
    if key in _ECG_NAMES or key.startswith("mcl"):
        return ChannelKind.ECG
    if key in ("abp", "art", "bp"):
        return ChannelKind.ABP
    if key in ("pleth", "ppg"):
        return ChannelKind.PPG
    if key == "resp":
        return ChannelKind.RESP
    return ChannelKind.OTHER


@dataclass
class ChannelMeta:
    """Per-channel calibration as declared in the header."""

    name: str
    kind: ChannelKind
    units: str
    gain: float
    baseline: int
    file: str = ""


@dataclass
class AlarmMeta:
    """Alarm annotation carried in the header comments."""

    arrhythmia: Arrhythmia | None
    truth: bool | None  # True = true alarm, None = unlabeled
    alarm_index: int


@dataclass
class Record:
    name: str
    sample_rate: float
    channels: list[ChannelMeta]
    samples: np.ndarray  # (n_channels, n_samples) float64, NaN = missing
    alarm: AlarmMeta

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate

    def channel_index(self, name: str) -> int:
        for i, ch in enumerate(self.channels):
            if ch.name.lower() == name.lower():
                return i
        raise MissingLead(f"record {self.name!r} has no channel {name!r}")

    def channels_of_kind(self, kind: ChannelKind) -> list[int]:
        return [i for i, ch in enumerate(self.channels) if ch.kind is kind]


def parse_header(text: str) -> tuple[str, float, int, list[ChannelMeta], AlarmMeta]:
    """Parse header text into (name, rate, n_samples, channels, alarm).

    Raises
    ------
    MalformedHeader
        On any grammar violation: wrong field counts, a non-16-bit
        format, a zero or non-finite gain, a non-finite sample rate, or
        an alarm index outside the record.
    UnknownArrhythmia
        If the arrhythmia comment matches no known alias.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MalformedHeader("empty header")

    head = lines[0].split()
    if len(head) != 4:
        raise MalformedHeader(f"expected 4 fields on line 1, got {len(head)}")
    name = head[0]
    try:
        n_sig = int(head[1])
        rate = float(head[2])
        n_samples = int(head[3])
    except ValueError as exc:
        raise MalformedHeader(f"bad numeric field on line 1: {exc}") from None
    if n_sig < 1:
        raise MalformedHeader("record must declare at least one signal")
    if not math.isfinite(rate):
        raise MalformedHeader(f"sample rate must be finite, got {head[2]!r}")
    if rate <= 0 or n_samples < 1:
        raise MalformedHeader("sample rate and length must be positive")
    if len(lines) < 1 + n_sig:
        raise MalformedHeader(f"header declares {n_sig} signals but has too few lines")

    channels: list[ChannelMeta] = []
    for ln in lines[1 : 1 + n_sig]:
        fields = ln.split()
        if len(fields) != 6:
            raise MalformedHeader(f"expected 6 fields on signal line, got {len(fields)}: {ln!r}")
        fname, fmt, gain_s, base_s, units, sig_name = fields
        if fmt != "16":
            raise MalformedHeader(f"unsupported signal format {fmt!r} (only 16)")
        try:
            gain = float(gain_s)
            baseline = int(base_s)
        except ValueError as exc:
            raise MalformedHeader(f"bad calibration field: {exc}") from None
        if not math.isfinite(gain):
            raise MalformedHeader(f"signal gain must be finite, got {gain_s!r}")
        if gain == 0:
            raise MalformedHeader("signal gain must be nonzero")
        channels.append(ChannelMeta(sig_name, channel_kind(sig_name), units, gain, baseline, fname))

    arrhythmia: Arrhythmia | None = None
    truth: bool | None = None
    alarm_index = n_samples
    for ln in lines[1 + n_sig :]:
        if not ln.startswith("#"):
            raise MalformedHeader(f"unexpected trailing line: {ln!r}")
        comment = ln.lstrip("#").strip()
        if not comment:
            continue
        low = comment.lower()
        if low == "true alarm":
            truth = True
        elif low == "false alarm":
            truth = False
        elif low.startswith("alarm_at"):
            parts = comment.split()
            if len(parts) != 2:
                raise MalformedHeader(f"bad alarm position comment: {comment!r}")
            try:
                alarm_index = int(parts[1])
            except ValueError:
                raise MalformedHeader(f"alarm position must be an integer: {comment!r}") from None
        elif arrhythmia is None:
            arrhythmia = parse_arrhythmia(comment)
        # further comment lines are free text and ignored

    if not 0 < alarm_index <= n_samples:
        raise MalformedHeader(f"alarm index {alarm_index} outside record of {n_samples} samples")
    return name, rate, n_samples, channels, AlarmMeta(arrhythmia, truth, alarm_index)


def decode_samples(raw: bytes, channels: list[ChannelMeta], n_samples: int) -> np.ndarray:
    """Decode frame-major 16-bit counts into calibrated analog values.

    The result is C-ordered, one contiguous row per channel, so every
    channel read downstream is a contiguous slice.
    """
    n_sig = len(channels)
    expected = 2 * n_sig * n_samples
    if len(raw) != expected:
        raise LengthMismatch(f"signal file holds {len(raw)} bytes, header implies {expected}")
    counts = np.frombuffer(raw, dtype="<i2").reshape(n_samples, n_sig).T
    analog = counts.astype(np.float64, order="C")
    analog -= np.array([ch.baseline for ch in channels], dtype=np.float64)[:, np.newaxis]
    analog /= np.array([ch.gain for ch in channels], dtype=np.float64)[:, np.newaxis]
    analog[counts == SENTINEL] = np.nan
    return analog


def encode_samples(analog: np.ndarray, channels: list[ChannelMeta]) -> bytes:
    """Inverse of :func:`decode_samples`; NaN encodes to the sentinel."""
    n_sig, n_samples = analog.shape
    if n_sig != len(channels):
        raise LengthMismatch("channel count does not match sample array")
    counts = np.empty((n_sig, n_samples), dtype=np.int16)
    for i, ch in enumerate(channels):
        col = analog[i]
        nan = np.isnan(col)
        raw = np.rint(np.where(nan, 0.0, col) * ch.gain + ch.baseline)
        raw = np.clip(raw, COUNT_MIN, COUNT_MAX).astype(np.int16)
        raw[nan] = SENTINEL
        counts[i] = raw
    return counts.T.tobytes()


def load_record(header_path: str | Path) -> Record:
    """Load a record given the path to its header file."""
    header_path = Path(header_path)
    try:
        text = header_path.read_text()
    except OSError as exc:
        raise IoFailure(f"cannot read header {header_path}: {exc}") from None
    name, rate, n_samples, channels, alarm = parse_header(text)

    dat_names = {ch.file for ch in channels}
    if len(dat_names) != 1:
        raise MalformedHeader(f"all signals must share one file, got {sorted(dat_names)}")
    dat_path = header_path.parent / channels[0].file
    try:
        raw = dat_path.read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read signal file {dat_path}: {exc}") from None
    samples = decode_samples(raw, channels, n_samples)
    return Record(name, rate, channels, samples, alarm)


def write_record(record: Record, directory: str | Path) -> Path:
    """Write ``<name>.hea`` and ``<name>.dat`` under ``directory``."""
    directory = Path(directory)
    lines = [f"{record.name} {record.n_channels} {_fmt_rate(record.sample_rate)} {record.n_samples}"]
    dat_name = f"{record.name}.dat"
    for ch in record.channels:
        gain = _fmt_rate(ch.gain)
        lines.append(f"{dat_name} 16 {gain} {ch.baseline} {ch.units} {ch.name}")
    if record.alarm.arrhythmia is not None:
        lines.append(f"#{record.alarm.arrhythmia.value}")
    if record.alarm.truth is not None:
        lines.append("#True alarm" if record.alarm.truth else "#False alarm")
    if record.alarm.alarm_index != record.n_samples:
        lines.append(f"#ALARM_AT {record.alarm.alarm_index}")
    header_path = directory / f"{record.name}.hea"
    try:
        header_path.write_text("\n".join(lines) + "\n")
        (directory / dat_name).write_bytes(encode_samples(record.samples, record.channels))
    except OSError as exc:
        raise IoFailure(f"cannot write record {record.name}: {exc}") from None
    return header_path


def _fmt_rate(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


@cache
def butter_filter(order: int, edges_hz: float | tuple[float, float], btype: str, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Butterworth ``(b, a)`` for ``filtfilt``, designed once per rate.

    The coefficients depend only on the arguments, so every caller on
    every thread shares one read-only pair. An edge that is not below
    the Nyquist frequency raises :class:`UnsupportedRate`.
    """
    edges = np.asarray(edges_hz, dtype=np.float64)
    if not (edges < fs / 2.0).all():
        raise UnsupportedRate(f"rate {fs:g} Hz is too low for a filter edge at {edges.max():g} Hz")
    b, a = butter(order, edges / (fs / 2.0), btype=btype)
    b.setflags(write=False)
    a.setflags(write=False)
    return b, a


def resample_half(record: Record) -> Record:
    """Halve the sampling rate: 50 Hz low-pass, then keep even samples.

    Defined for even integer rates only; missing samples stay missing
    at their decimated positions.

    Raises
    ------
    UnsupportedRate
        The rate is odd, not an integer, or too low for the filter.
    InsufficientData
        The record is not longer than the filter's edge padding.
    """
    rate = record.sample_rate
    if not float(rate).is_integer() or int(rate) % 2 != 0:
        raise UnsupportedRate(f"rate {rate} not halvable")
    b, a = butter_filter(4, 50.0, "low", rate)
    pad = 3 * max(len(a), len(b))  # filtfilt's default edge padding
    if record.n_samples <= pad:
        raise InsufficientData(
            f"record {record.name!r} has {record.n_samples} samples; the anti-alias filter needs more than {pad}"
        )
    out = np.empty((record.n_channels, math.ceil(record.n_samples / 2)), dtype=np.float64)
    for i in range(record.n_channels):
        x = record.samples[i]
        nan = np.isnan(x)
        if nan.all():
            out[i] = np.nan
            continue
        if nan.any():
            idx = np.arange(len(x))
            x = np.interp(idx, idx[~nan], x[~nan])
        y = filtfilt(b, a, x)[::2]
        y[nan[::2]] = np.nan
        out[i] = y
    alarm = replace(record.alarm, alarm_index=(record.alarm.alarm_index + 1) // 2)
    return Record(record.name, rate / 2.0, list(record.channels), out, alarm)


def single_channel(record: Record, index: int) -> Record:
    """The record cut down to channel ``index``; the samples are shared."""
    return Record(record.name, record.sample_rate, [record.channels[index]], record.samples[index][np.newaxis], record.alarm)


def pre_alarm_window(record: Record, seconds: float) -> Record:
    """Cut the ``seconds`` of signal ending at the alarm position."""
    n_win = int(round(seconds * record.sample_rate))
    start = record.alarm.alarm_index - n_win
    if start < 0:
        raise InsufficientData(
            f"record {record.name!r} has {record.alarm.alarm_index} pre-alarm samples, "
            f"needs {n_win}"
        )
    samples = record.samples[:, start : record.alarm.alarm_index].copy()
    alarm = replace(record.alarm, alarm_index=n_win)
    return Record(record.name, record.sample_rate, list(record.channels), samples, alarm)


@dataclass
class ManifestEntry:
    record: str  # resolved header path
    arrhythmia: Arrhythmia
    truth: bool | None


@dataclass
class Manifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


_LABELS = {"true": True, "false": False, "unknown": None}


def load_manifest(path: str | Path) -> Manifest:
    """Read a ``record,arrhythmia,label`` CSV; paths resolve against it.

    Raises
    ------
    MalformedRow
        On a wrong field count, unknown label, or bad arrhythmia name.
    DuplicateEntry
        If two rows name the same record.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise IoFailure(f"cannot read manifest {path}: {exc}") from None

    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    rows = list(csv.reader(text.splitlines()))
    for row_no, row in enumerate(rows):
        if not row or all(not f.strip() for f in row):
            continue
        if row_no == 0 and [f.strip().lower() for f in row] == ["record", "arrhythmia", "label"]:
            continue
        if len(row) != 3:
            raise MalformedRow(f"row {row_no + 1}: expected 3 fields, got {len(row)}")
        rec, arr, label = (f.strip() for f in row)
        if label.lower() not in _LABELS:
            raise MalformedRow(f"row {row_no + 1}: unknown label {label!r}")
        try:
            arrhythmia = parse_arrhythmia(arr)
        except UnknownArrhythmia as exc:
            raise MalformedRow(f"row {row_no + 1}: {exc}") from None
        resolved = str((path.parent / rec).resolve()) if not Path(rec).is_absolute() else rec
        if resolved in seen:
            raise DuplicateEntry(f"record listed twice: {rec}")
        seen.add(resolved)
        entries.append(ManifestEntry(resolved, arrhythmia, _LABELS[label.lower()]))
    return Manifest(entries)


def write_manifest(manifest: Manifest, path: str | Path) -> Path:
    """Write a manifest CSV with paths relative to its directory."""
    path = Path(path)
    lines = ["record,arrhythmia,label"]
    for e in manifest.entries:
        rec = e.record
        try:
            rec = str(Path(rec).relative_to(path.parent.resolve()))
        except ValueError:
            pass  # outside the manifest directory; keep absolute
        label = "unknown" if e.truth is None else ("true" if e.truth else "false")
        lines.append(f"{rec},{e.arrhythmia.value},{label}")
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write manifest {path}: {exc}") from None
    return path
