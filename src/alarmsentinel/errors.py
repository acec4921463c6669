"""Exception types raised across the alarm engine, and :class:`FailSafe`,
the closed set of notes that :class:`CannotDecide` carries.

Everything derives from :class:`AlarmSentinelError` so callers can catch
engine failures without swallowing programming errors.
"""
from enum import Enum


class AlarmSentinelError(Exception):
    """Base class for all engine errors."""


class MalformedHeader(AlarmSentinelError):
    """Header text does not match the record grammar."""


class UnknownArrhythmia(AlarmSentinelError):
    """Arrhythmia name not recognised by any alias."""


class IoFailure(AlarmSentinelError):
    """Underlying file could not be read or written."""


class LengthMismatch(AlarmSentinelError):
    """Binary payload or paired sequences disagree about length."""


class UnsupportedRate(AlarmSentinelError):
    """Operation defined only for specific sampling rates."""


class InsufficientData(AlarmSentinelError):
    """Record too short for the requested window."""


class MalformedRow(AlarmSentinelError):
    """Manifest row does not match the expected shape, or its record."""


class DuplicateEntry(AlarmSentinelError):
    """Manifest lists the same record path twice."""


class WindowTooShort(AlarmSentinelError):
    """Analysis window shorter than the operation requires."""


class ZeroDenominator(AlarmSentinelError):
    """Ratio requested with an all-zero denominator band."""


class ZeroVariance(AlarmSentinelError):
    """Statistic undefined on a constant signal."""


class MalformedAnnotation(AlarmSentinelError):
    """Annotation file violates format or ordering."""


class IndexOutOfBounds(AlarmSentinelError):
    """Annotation index lies outside the record."""


class TooFewBeats(AlarmSentinelError):
    """Fewer beats than the computation needs."""


class EmptySequence(AlarmSentinelError):
    """DTW input sequence has no samples."""


class NonFiniteSample(AlarmSentinelError):
    """DTW input sequence holds a NaN or an infinity."""


class EmptyCorpus(AlarmSentinelError):
    """No training entries available for nearest-neighbour search."""


class MissingLead(AlarmSentinelError):
    """Requested channel absent from the record."""


class InsufficientCleanBeats(AlarmSentinelError):
    """Could not collect the required number of clean beats.

    Carries ``found``, the number of beats that were collected before
    the pre-alarm signal ran out.
    """

    def __init__(self, message: str, found: int = 0):
        super().__init__(message)
        self.found = found


class FailSafe(str, Enum):
    """Every reason a check that cannot decide keeps the alarm: the
    closed set of fail-safe notes, each value the ``test`` of a
    verdict's last evidence entry."""

    ASYSTOLE_NO_CHANNEL = "asystole_no_channel"
    BRADYCARDIA_HR = "bradycardia_hr"
    TACHYCARDIA_HR = "tachycardia_hr"
    VFIB_NO_ECG = "vfib_no_ecg"
    VFIB_WINDOW_TOO_SHORT = "vfib_window_too_short"
    VTACH_NO_ECG = "vtach_no_ecg"
    VTACH_NO_ANNOTATIONS = "vtach_no_annotations"
    BANK_LEAD_TOO_SHORT = "bank_lead_too_short"
    SELF_BANK_FAILED = "self_bank_failed"
    VTACH_TOO_FEW_BEATS = "vtach_too_few_beats"
    DTW_FULL_NO_SIGNAL = "dtw_full_no_signal"
    VTACH_NO_VOTES = "vtach_no_votes"


class CannotDecide(AlarmSentinelError):
    """An arrhythmia check cannot be evaluated on this record.

    Takes a :class:`FailSafe` member and carries ``note``, its plain
    string value (the test name of the fail-safe evidence), and
    ``witnesses``. The adjudication turns it into a true alarm.
    """

    def __init__(self, note: FailSafe, **witnesses: float):
        if not isinstance(note, FailSafe):
            raise TypeError(f"CannotDecide takes a FailSafe member, not {note!r}")
        super().__init__(note.value)
        self.note = note.value
        self.witnesses = witnesses


class BankTooSmall(AlarmSentinelError):
    """Beat bank has too few members for the statistic."""


class EmptyBank(AlarmSentinelError):
    """Classification requested against an empty beat bank."""


class DimensionMismatch(AlarmSentinelError):
    """Paired distributions have different lengths."""


class NotNormalized(AlarmSentinelError):
    """Histogram does not sum to one."""


class EmptyCounts(AlarmSentinelError):
    """Metric requested on an empty confusion table."""


class UnsupportedMethod(AlarmSentinelError):
    """Classification method not defined for this alarm type."""


class InvalidConfig(AlarmSentinelError, ValueError):
    """Threshold configuration line, key or value is not acceptable."""


class InvalidSpec(AlarmSentinelError):
    """Synthesis parameters are contradictory or out of range."""
