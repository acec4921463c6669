"""Property: damaged records never crash adjudication, and a verdict that
carries a fail-safe note always keeps the alarm.

Suite records are mutated the way bedside data goes wrong: missing-data
bursts, flat stretches, truncation, an alarm in the first seconds of the
record, and a missing lead II.
"""
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from alarmsentinel.alarm_logic import classify_alarm
from alarmsentinel.record_io import AlarmMeta, Record
from alarmsentinel.synthkit import generate, suite_specs

RECORDS = [generate(spec)[0] for spec in suite_specs(seed=7, per_class=2)]

mutations = st.one_of(
    st.tuples(st.just("nan"), st.floats(0.0, 20.0), st.floats(0.05, 4.0), st.integers(-1, 3)),
    st.tuples(st.just("flat"), st.floats(0.0, 20.0), st.floats(0.05, 4.0), st.integers(-1, 3)),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("early"), st.floats(0.0, 3.0)),
    st.tuples(st.just("drop_ii")),
)


def _mutate(record: Record, mutation: tuple) -> Record:
    samples, channels, alarm = record.samples.copy(), list(record.channels), record.alarm
    fs = record.sample_rate
    kind = mutation[0]
    if kind in ("nan", "flat"):
        _, before_s, length_s, channel = mutation
        start = max(0, alarm.alarm_index - int(before_s * fs))
        stop = start + max(1, int(length_s * fs))
        rows = slice(None) if channel < 0 else slice(channel, channel + 1)
        if channel < len(channels):
            samples[rows, start:stop] = np.nan if kind == "nan" else samples[rows, start : start + 1]
    elif kind == "truncate":
        keep = max(1, int(mutation[1] * samples.shape[1]))
        samples = samples[:, :keep]
        alarm = AlarmMeta(alarm.arrhythmia, alarm.truth, min(alarm.alarm_index, keep))
    elif kind == "early":
        # the record format puts the alarm at sample 1 or later
        alarm = AlarmMeta(alarm.arrhythmia, alarm.truth, min(max(1, int(mutation[1] * fs)), samples.shape[1]))
    else:
        keep = [i for i, ch in enumerate(channels) if ch.name.lower() != "ii"]
        samples, channels = samples[keep], [channels[i] for i in keep]
    return Record(record.name, fs, channels, samples, alarm)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    index=st.integers(0, len(RECORDS) - 1),
    changes=st.lists(mutations, min_size=1, max_size=3),
    method=st.sampled_from(["baseline", "improved"]),
)
def test_damaged_records_never_raise_and_fail_safe(index, changes, method):
    record = RECORDS[index]
    for change in changes:
        record = _mutate(record, change)
    verdict = classify_alarm(record, method)
    if any(e.channel == "" for e in verdict.evidence):
        assert verdict.is_true_alarm is True
