"""Exception types raised across the alarm engine.

Everything derives from :class:`AlarmSentinelError` so callers can catch
engine failures without swallowing programming errors.
"""


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
    """Manifest row does not match the expected shape."""


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


class BandInfeasible(AlarmSentinelError):
    """Length difference exceeds the warping band radius."""


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


class CannotDecide(AlarmSentinelError):
    """An arrhythmia check cannot be evaluated on this record.

    Carries ``note``, the test name of the fail-safe evidence, and
    ``witnesses``. The adjudication turns it into a true alarm.
    """

    def __init__(self, note: str, **witnesses: float):
        super().__init__(note)
        self.note = note
        self.witnesses = witnesses


class BankTooSmall(AlarmSentinelError):
    """Beat bank has too few members for the statistic."""


class EmptyBank(AlarmSentinelError):
    """Classification requested against an empty beat bank."""


class DimensionMismatch(AlarmSentinelError):
    """Paired distributions have different lengths."""


class NotNormalized(AlarmSentinelError):
    """Histogram does not sum to one."""


class UnknownTruth(AlarmSentinelError):
    """Ground-truth label required but missing."""


class EmptyCounts(AlarmSentinelError):
    """Metric requested on an empty confusion table."""


class UnsupportedMethod(AlarmSentinelError):
    """Classification method not defined for this alarm type."""


class InvalidConfig(AlarmSentinelError, ValueError):
    """Threshold configuration line, key or value is not acceptable."""


class InvalidSpec(AlarmSentinelError):
    """Synthesis parameters are contradictory or out of range."""
