"""Invariances of the verdict under edits that carry no new information.

The cases are the seed-8 suite (``per_class=4``) under baseline and
improved, and its four VT records also under the three bank methods
(surrogate banks) and dtw-full (a corpus of the seed-9 VT records).
Every channel of those records agrees on the gate, so each false alarm
also comes with a copy whose first channel has a gap before the alarm,
which the other channels' regular activity still dismisses. Each
property adjudicates an edited copy of every case and compares:

- **channel order** reversed or rotated: the decision, ``gate_fired``
  and the set of evidence entries are unchanged;
- **history prepended**: the record's last 60 s before the alarm, put
  before its start with the alarm moved to match, leave the whole
  verdict dict unchanged;
- **ECG scaled** by 0.5 and by 2, pressure and pleth as they are: the
  decision and ``gate_fired`` are unchanged (the validity screen's range
  rules are absolute, and these factors stay inside them).

Two more stand apart from those cases:

- **sample rate**: the suite specs of seeds 7 and 8 (``per_class=6``)
  rendered at 125 Hz and at 250 Hz get the same decision under baseline
  and improved;
- **missing lead**: a true VT alarm whose lead II is missing throughout
  keeps its alarm under each DTW method, on the fail-safe note that the
  method's first missing input gives.
"""
from dataclasses import replace

import numpy as np
import pytest

from alarmsentinel.alarm_logic import DTW_METHODS, classify_alarm
from alarmsentinel.dtw import corpus_from_records
from alarmsentinel.record_io import Arrhythmia, ChannelKind, Record
from alarmsentinel.synthkit import generate, suite_specs, surrogate_banks

HISTORY_S = 60.0
ECG_SCALES = (0.5, 2.0)
RATE_SEEDS = (7, 8)


@pytest.fixture(scope="module")
def cases():
    """(record, method) pairs and the keyword arguments every method needs."""
    vt_train = [generate(s) for s in suite_specs(seed=9, per_class=4) if s.arrhythmia is Arrhythmia.VTACH]
    inputs = {
        "banks": surrogate_banks(seed=0),
        "corpus": corpus_from_records([(record, truth.expected_true) for record, truth in vt_train]),
    }
    pairs = []
    for spec in suite_specs(seed=8, per_class=4):
        record, _ = generate(spec)
        methods = ("baseline", "improved", *(DTW_METHODS if spec.arrhythmia is Arrhythmia.VTACH else ()))
        for copy in [record] if spec.event else [record, _first_channel_gap(record)]:
            pairs += [(copy, method) for method in methods]
    return pairs, inputs


def _first_channel_gap(record: Record) -> Record:
    """A copy with 0.8 s missing on the first channel, 6 s before the alarm."""
    start = record.alarm.alarm_index - int(round(6.0 * record.sample_rate))
    samples = record.samples.copy()
    samples[0, start : start + int(round(0.8 * record.sample_rate))] = np.nan
    return Record(f"{record.name}-gap", record.sample_rate, record.channels, samples, record.alarm)


def _reorder(record: Record, order: list[int]) -> Record:
    return Record(record.name, record.sample_rate, [record.channels[i] for i in order], record.samples[order], record.alarm)


def _with_history(record: Record, seconds: float) -> Record:
    """The record's last ``seconds`` before the alarm prepended, the alarm
    moved with them; unlike its first samples, they differ from what the
    record starts with."""
    n = int(round(seconds * record.sample_rate))
    end = record.alarm.alarm_index
    samples = np.concatenate([record.samples[:, end - n : end], record.samples], axis=1)
    alarm = replace(record.alarm, alarm_index=end + n)
    return Record(record.name, record.sample_rate, record.channels, samples, alarm)


def _outcome(verdict) -> tuple:
    """Decision, gate and the evidence as a set: the order of the
    evidence follows the channel order by design."""
    d = verdict.to_dict()
    entries = {
        (e["channel"], e["test"], e["outcome"], tuple(sorted(e["witnesses"].items()))) for e in d["evidence"]
    }
    return d["decision"], d["gate_fired"], frozenset(entries)


@pytest.mark.parametrize("edit", ["reversed", "rotated"])
def test_channel_order(cases, edit):
    # most_reliable_channel breaks a full tie of validity and kind by
    # channel index, so a record with two equally valid channels of one
    # kind could pick the other channel; that is the one allowed
    # difference, and no record of this suite reaches it
    pairs, inputs = cases
    changed = []
    for record, method in pairs:
        n = record.n_channels
        order = list(range(n))[::-1] if edit == "reversed" else [(i + 1) % n for i in range(n)]
        before = _outcome(classify_alarm(record, method, **inputs))
        after = _outcome(classify_alarm(_reorder(record, order), method, **inputs))
        if after != before:
            changed.append(f"{record.name}/{method}")
    assert not changed, f"{len(changed)} of {len(pairs)} verdicts changed: {changed}"


def test_prepended_history(cases):
    pairs, inputs = cases
    changed = []
    for record, method in pairs:
        before = classify_alarm(record, method, **inputs).to_dict()
        after = classify_alarm(_with_history(record, HISTORY_S), method, **inputs).to_dict()
        if after != before:
            changed.append(f"{record.name}/{method}")
    assert not changed, f"{len(changed)} of {len(pairs)} verdicts changed: {changed}"


def _scaled_ecg(record: Record, factor: float) -> Record:
    samples = record.samples.copy()
    samples[record.channels_of_kind(ChannelKind.ECG)] *= factor
    return Record(record.name, record.sample_rate, record.channels, samples, record.alarm)


@pytest.mark.parametrize("factor", ECG_SCALES)
def test_ecg_scale(cases, factor):
    pairs, inputs = cases
    changed = []
    for record, method in pairs:
        before = classify_alarm(record, method, **inputs)
        after = classify_alarm(_scaled_ecg(record, factor), method, **inputs)
        if (after.is_true_alarm, after.gate_fired) != (before.is_true_alarm, before.gate_fired):
            changed.append(f"{record.name}/{method}")
    assert not changed, f"{len(changed)} of {len(pairs)} decisions changed: {changed}"


def test_sample_rate():
    changed = []
    specs = [spec for seed in RATE_SEEDS for spec in suite_specs(seed=seed, per_class=6)]
    for spec in specs:
        records = [generate(replace(spec, sample_rate=fs))[0] for fs in (125.0, 250.0)]
        for method in ("baseline", "improved"):
            slow, fast = (classify_alarm(record, method).is_true_alarm for record in records)
            if slow != fast:
                changed.append(f"{spec.name}/{spec.seed}/{method}")
    assert not changed, f"{len(changed)} of {2 * len(specs)} decisions changed: {changed}"


@pytest.mark.parametrize(
    "method, note",
    [
        ("dtw-vbank", "vtach_too_few_beats"),
        ("dtw-self-min", "self_bank_failed"),
        ("dtw-self-kl", "self_bank_failed"),
        ("dtw-full", "dtw_full_no_signal"),
    ],
)
def test_a_missing_lead_keeps_a_true_vt_alarm(cases, method, note):
    # lead II is kept as a channel of NaN: the bank lead resamples it whole
    # to NaN, and the detector finds no beat on it
    pairs, inputs = cases
    true_vt = {record.name: record for record, _ in pairs if record.alarm.arrhythmia is Arrhythmia.VTACH and record.alarm.truth}
    assert len(true_vt) == 2
    for record in true_vt.values():
        samples = record.samples.copy()
        samples[record.channel_index("II")] = np.nan
        missing = Record(record.name, record.sample_rate, record.channels, samples, record.alarm)
        verdict = classify_alarm(missing, method, **inputs)
        assert verdict.is_true_alarm is True
        assert verdict.evidence[-1].test == note
