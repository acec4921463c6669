"""Property: damaged records never crash adjudication, and a verdict that
carries a fail-safe note always keeps the alarm.

Suite records are mutated the way bedside data goes wrong: missing-data
bursts, flat stretches, truncation, an alarm in the first seconds of the
record, and a missing lead II. The rule methods see every class; the four
DTW methods see the ventricular tachycardia records, with surrogate beat
banks and a corpus built from a suite of another seed.

A header can also carry a wrong rate, so records are relabelled to other
rates too. A rate too low for the QRS band filter raises
UnsupportedRate for every method, and the DTW methods, which match at
125 Hz, raise it at every rate but 125 and 250 Hz unless the gate has
already dismissed the alarm.

The matching methods' own inputs are damaged too: curated bank members
for dtw-vbank, corpus entries for dtw-full. A NaN, infinite or empty one
must raise a named error wherever the method warps against it, and a
record it never reaches (the gate dismissed the alarm) keeps its verdict.

Every method, the patient bank of dtw-self-min and dtw-self-kl
included, reads beats only from DETECT_WARMUP_S before the analysis
window, so an artifact older than that leaves every verdict as it was.
A true VT alarm with too little history before its window for a
patient bank keeps the alarm under both self-bank methods.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from alarmsentinel.alarm_logic import DTW_METHODS, METHODS, classify_alarm
from alarmsentinel.beat_banks import BankSet, BeatBank
from alarmsentinel.beats import QRS_BAND_HZ
from alarmsentinel.dtw import MATCH_RATE_HZ, TrainingCorpus, corpus_from_records
from alarmsentinel.errors import (
    BandInfeasible,
    EmptyBank,
    EmptyCorpus,
    EmptySequence,
    NonFiniteSample,
    UnsupportedMethod,
    UnsupportedRate,
)
from alarmsentinel.record_io import AlarmMeta, Arrhythmia, Record
from alarmsentinel.synthkit import generate, suite_specs, surrogate_banks

RECORDS = [generate(spec)[0] for spec in suite_specs(seed=7, per_class=2)]
VT_RECORDS = [generate(spec)[0] for spec in suite_specs(seed=7, per_class=4) if spec.arrhythmia is Arrhythmia.VTACH]
BANKS = surrogate_banks(seed=0)
CORPUS = corpus_from_records([
    (record, truth.expected_true)
    for record, truth in (generate(spec) for spec in suite_specs(seed=3, per_class=4) if spec.arrhythmia is Arrhythmia.VTACH)
])

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
    elif kind == "history":  # only ``seconds`` of record before the alarm
        cut = max(0, alarm.alarm_index - int(mutation[1] * fs))
        samples = samples[:, cut:]
        alarm = AlarmMeta(alarm.arrhythmia, alarm.truth, alarm.alarm_index - cut)
    elif kind == "rate":  # the same samples under another header rate
        fs = mutation[1]
    elif kind == "artifact":  # N(0, 3) noise on every channel, from before_s before the alarm
        _, before_s, length_s, seed = mutation
        start = max(0, alarm.alarm_index - int(before_s * fs))
        stop = start + int(length_s * fs)
        samples[:, start:stop] += np.random.default_rng(seed).normal(0.0, 3.0, samples[:, start:stop].shape)
    else:
        keep = [i for i, ch in enumerate(channels) if ch.name.lower() != "ii"]
        samples, channels = samples[keep], [channels[i] for i in keep]
    return Record(record.name, fs, channels, samples, alarm)


def _check(record: Record, changes: list, method: str, **inputs) -> None:
    for change in changes:
        record = _mutate(record, change)
    verdict = classify_alarm(record, method, **inputs)
    if any(e.channel == "" for e in verdict.evidence):
        assert verdict.is_true_alarm is True


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    index=st.integers(0, len(RECORDS) - 1),
    changes=st.lists(mutations, min_size=1, max_size=3),
    method=st.sampled_from(["baseline", "improved"]),
)
def test_damaged_records_never_raise_and_fail_safe(index, changes, method):
    _check(RECORDS[index], changes, method)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    index=st.integers(0, len(VT_RECORDS) - 1),
    changes=st.lists(mutations, min_size=1, max_size=3),
    method=st.sampled_from(DTW_METHODS),
)
def test_dtw_methods_on_damaged_vt_records_never_raise_and_fail_safe(index, changes, method):
    _check(VT_RECORDS[index], changes, method, banks=BANKS, corpus=CORPUS)


# the QRS band's upper edge must lie below the Nyquist frequency
LOWEST_RATE_HZ = 2 * QRS_BAND_HZ[1]
MATCH_RATES_HZ = (MATCH_RATE_HZ, 2 * MATCH_RATE_HZ)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    index=st.integers(0, len(RECORDS) - 1),
    changes=st.lists(mutations, max_size=2),
    rate=st.floats(LOWEST_RATE_HZ, 1000.0, exclude_min=True),
    method=st.sampled_from(["baseline", "improved"]),
)
def test_rule_methods_at_any_rate_the_filters_allow_never_raise_and_fail_safe(index, changes, rate, method):
    _check(RECORDS[index], changes + [("rate", rate)], method)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    index=st.integers(0, len(VT_RECORDS) - 1),
    rate=st.floats(1.0, LOWEST_RATE_HZ),
    method=st.sampled_from(METHODS),
)
def test_a_rate_too_low_for_the_filters_raises_unsupported_rate(index, rate, method):
    with pytest.raises(UnsupportedRate):
        classify_alarm(_mutate(VT_RECORDS[index], ("rate", rate)), method, banks=BANKS, corpus=CORPUS)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    index=st.integers(0, len(VT_RECORDS) - 1),
    rate=st.one_of(st.sampled_from(MATCH_RATES_HZ), st.floats(1.0, 1000.0)),
    method=st.sampled_from(DTW_METHODS),
)
def test_dtw_methods_raise_unsupported_rate_off_the_match_rates(index, rate, method):
    record = _mutate(VT_RECORDS[index], ("rate", rate))
    if rate in MATCH_RATES_HZ:
        _check(record, [], method, banks=BANKS, corpus=CORPUS)
        return
    try:
        verdict = classify_alarm(record, method, banks=BANKS, corpus=CORPUS)
    except UnsupportedRate:
        return
    assert verdict.gate_fired and verdict.is_true_alarm is False


# the errors a caller's inputs may raise; anything else out of classify_alarm is a defect
CALLER_ERRORS = (UnsupportedMethod, EmptyBank, EmptyCorpus, BandInfeasible)
BAD_INPUT_ERRORS = (NonFiniteSample, EmptySequence) + CALLER_ERRORS
CLEAN = {
    (index, method): classify_alarm(record, method, banks=BANKS, corpus=CORPUS).to_dict()
    for index, record in enumerate(VT_RECORDS)
    for method in ("dtw-vbank", "dtw-full")
}
NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


def _damage(values: np.ndarray, kind: str, at: int) -> np.ndarray:
    values = values.copy()
    if len(values) == 0:  # damaged once already
        return values
    if kind in NON_FINITE:
        values[at % len(values)] = NON_FINITE[kind]
    elif kind == "flat":
        values[:] = values[at % len(values)]
    elif kind == "empty":
        values = values[:0]
    else:  # "length": resized to ``at`` samples, repeating the start
        values = np.resize(values, at)
    return values


def _unreadable(sequences) -> bool:
    return any(len(x) == 0 or not np.isfinite(x).all() for x in sequences)


@st.composite
def damaged_banks(draw) -> BankSet:
    banks = {"ventricular": list(BANKS.ventricular.beats), "standard": list(BANKS.standard.beats)}
    for bank, member, kind, at in draw(st.lists(st.tuples(
        st.sampled_from(sorted(banks)),
        st.integers(0, 10**6),
        st.sampled_from(["nan", "inf", "-inf", "empty", "flat"]),
        st.integers(0, 10**6),
    ), min_size=1, max_size=3)):
        beats = banks[bank]
        if beats:
            beats[member % len(beats)] = _damage(beats[member % len(beats)], kind, at)
    return BankSet(
        BeatBank(BANKS.ventricular.kind, banks["ventricular"]), BeatBank(BANKS.standard.kind, banks["standard"])
    )


@st.composite
def damaged_corpora(draw) -> TrainingCorpus:
    entries = list(CORPUS.entries)
    shape = draw(st.sampled_from(["all", "one", "opposite twins"]))
    if shape == "one":
        entries = [draw(st.sampled_from(entries))]
    elif shape == "opposite twins":  # one entry twice, under both labels
        original = draw(st.sampled_from(entries))
        twin = replace(original, is_true_alarm=not original.is_true_alarm)
        entries.insert(draw(st.integers(0, len(entries))), twin)
    for entry, kind, at in draw(st.lists(st.tuples(
        st.integers(0, 10**6),
        st.sampled_from(["nan", "inf", "-inf", "empty", "length"]),
        st.integers(1, 2500),
    ), max_size=2)):
        k = entry % len(entries)
        entries[k] = replace(entries[k], values=_damage(entries[k].values, kind, at))
    return TrainingCorpus(entries)


def _check_inputs(index: int, method: str, unreadable: bool, **inputs) -> None:
    clean = CLEAN[index, method]
    if unreadable and not clean["gate_fired"]:
        with pytest.raises(BAD_INPUT_ERRORS):
            classify_alarm(VT_RECORDS[index], method, **inputs)
        return
    try:
        verdict = classify_alarm(VT_RECORDS[index], method, **inputs)
    except CALLER_ERRORS:
        return
    if clean["gate_fired"]:  # the damaged input was never read
        assert verdict.to_dict() == clean
    if any(e.channel == "" for e in verdict.evidence):
        assert verdict.is_true_alarm is True


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(index=st.integers(0, len(VT_RECORDS) - 1), banks=damaged_banks())
def test_vbank_on_damaged_banks_raises_named_errors_or_fails_safe(index, banks):
    unreadable = _unreadable(banks.ventricular.beats + banks.standard.beats)
    _check_inputs(index, "dtw-vbank", unreadable, banks=banks)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(index=st.integers(0, len(VT_RECORDS) - 1), corpus=damaged_corpora())
def test_dtw_full_on_damaged_corpora_raises_named_errors_or_fails_safe(index, corpus):
    unreadable = _unreadable([e.values for e in corpus.entries])
    _check_inputs(index, "dtw-full", unreadable, corpus=corpus)


# 120 s records of three other seeds, five classes, true and false alarms
SPAN_SEEDS = (100, 101, 102)
# noise from 70 s to 60 s before the alarm, before the detection span (16 s window plus 30 s warm-up)
ARTIFACT = ("artifact", 70.0, 10.0, 0)


@pytest.mark.parametrize("seed", SPAN_SEEDS)
def test_an_artifact_before_the_detection_span_changes_no_verdict(seed):
    for spec in suite_specs(seed=seed, per_class=2):
        record = generate(spec)[0]
        damaged = _mutate(record, ARTIFACT)
        methods = METHODS if spec.arrhythmia is Arrhythmia.VTACH else ["baseline", "improved"]
        for method in methods:
            clean = classify_alarm(record, method, banks=BANKS, corpus=CORPUS).to_dict()
            assert classify_alarm(damaged, method, banks=BANKS, corpus=CORPUS).to_dict() == clean, (spec.name, method)


TRUE_VT_RECORDS = [record for record in VT_RECORDS if record.alarm.truth]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    index=st.integers(0, len(TRUE_VT_RECORDS) - 1),
    seconds=st.floats(20.0, 35.0),
    method=st.sampled_from(["dtw-self-min", "dtw-self-kl"]),
)
def test_too_little_history_for_a_self_bank_keeps_a_true_vt_alarm(index, seconds, method):
    """20-35 s before the alarm leave at most one 10 s section before the
    16 s window, too few beats for a 20-beat patient bank."""
    verdict = classify_alarm(_mutate(TRUE_VT_RECORDS[index], ("history", seconds)), method)
    assert verdict.is_true_alarm is True and verdict.gate_fired is False
    assert verdict.evidence[-1].channel == "" and verdict.evidence[-1].test == "self_bank_failed"
