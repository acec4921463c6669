"""Behaviour lock: every verdict a case list produces, pinned in a JSON file.

The cases cover what the benchmark references do not: ``baseline`` and
``improved`` on the whole synthetic suite, rule-path false alarms that a
missing-data burst keeps away from the regular-activity gate, and every
fail-safe note, reached by record surgery (dropped channels, an early
``alarm_index``, NaN bursts, noisy records, a 12-sample record) and the
surrogate beat banks; a second test fails when some
:class:`~alarmsentinel.errors.FailSafe` note ends no golden verdict.
The bank-method and dtw-full fail-safes fire before any beat pair or
signal pair is warped. The ``warped`` cases label every beat of one true
and one false VT record with each bank method, and two dtw-full cases
search a corpus, one of them with an exact duplicate of the nearest
entry under the opposite label, which pins the earliest-entry tie rule.
Single cases pin branches nothing else reaches: beat pairs warped under
a band widened to their length gap, the bank methods' fallback to the
first ECG channel, a record already at the match rate, a pressure lead
named for the bank methods, and a lead held flat inside the window.

A verdict is compared whole: decision, ``gate_fired``, method, and every
evidence entry with its witnesses rounded to 12 significant digits.

``python tests/test_golden_verdicts.py`` rewrites the JSON file and
prints the name of every case whose verdict it changed, added or
removed. Do that only for a deliberate change of behaviour, and list
those cases in CHANGES.md.
"""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from alarmsentinel.alarm_logic import classify_alarm
from alarmsentinel.dtw import corpus_from_records
from alarmsentinel.errors import FailSafe
from alarmsentinel.record_io import AlarmMeta, Arrhythmia, ChannelMeta, Record, channel_kind
from alarmsentinel.synthkit import SynthSpec, generate, suite_specs, surrogate_banks

GOLDEN_PATH = Path(__file__).with_name("golden_verdicts.json")


def _round(value):
    return None if value is None else float(f"{value:.12g}")


def canonical(verdict) -> dict:
    d = verdict.to_dict()
    for e in d["evidence"]:
        e["witnesses"] = {k: _round(v) for k, v in sorted(e["witnesses"].items())}
    return d


def _record(arrhythmia, event, seed, **spec):
    record, _ = generate(SynthSpec(name=f"g{seed}", arrhythmia=arrhythmia, event=event, seed=seed, **spec))
    return record


def _burst(record, start_s=6.0, length_s=0.8):
    """NaN on every channel, ``start_s`` before the alarm."""
    start = record.alarm.alarm_index - int(round(start_s * record.sample_rate))
    record.samples[:, start : start + int(round(length_s * record.sample_rate))] = np.nan
    return record


def _early(record, seconds):
    """Move the alarm to ``seconds`` after the record starts."""
    record.alarm = replace(record.alarm, alarm_index=int(round(seconds * record.sample_rate)))
    return record


def _keep(record, names):
    """Drop every channel not named."""
    keep = [i for i, ch in enumerate(record.channels) if ch.name in names]
    return Record(record.name, record.sample_rate, [record.channels[i] for i in keep], record.samples[keep].copy(), record.alarm)


def _flat(record, start_s=10.0, length_s=3.0):
    """Lead II held at one value for ``length_s``, ``start_s`` before the alarm."""
    start = record.alarm.alarm_index - int(round(start_s * record.sample_rate))
    record.samples[0, start : start + int(round(length_s * record.sample_rate))] = record.samples[0, start]
    return record


def _tiny():
    """12 samples at 250 Hz on II and ABP: shorter than the resampler's
    anti-alias filter padding."""
    metas = [ChannelMeta(name, channel_kind(name), "mV", 200.0, 0, "") for name in ("II", "ABP")]
    samples = np.random.default_rng(0).normal(0.0, 0.5, (2, 12))
    return Record("tiny", 250.0, metas, samples, AlarmMeta(Arrhythmia.VTACH, True, 12))


def _cases():
    """``{name: (record factory, method, keyword arguments)}``."""
    A = Arrhythmia
    banks = surrogate_banks(seed=0)
    cases = {}

    for spec in suite_specs(seed=7, per_class=10):
        for method in ("baseline", "improved"):
            cases[f"suite/{spec.name}/{method}"] = (lambda spec=spec: generate(spec)[0], method, {})

    # false alarms whose burst keeps the gate from dismissing them
    for k, arrhythmia in enumerate(A):
        for method in ("baseline", "improved"):
            cases[f"burst/{arrhythmia.name}/false/{method}"] = (
                lambda a=arrhythmia, k=k: _burst(_record(a, False, 500 + k)), method, {}
            )
            cases[f"burst/{arrhythmia.name}/true/{method}"] = (
                lambda a=arrhythmia, k=k: _burst(_record(a, True, 510 + k), start_s=14.0), method, {}
            )

    # an alarm early in the record: short windows, few beats
    for k, arrhythmia in enumerate(a for a in A if a is not A.VFIB):
        for seconds in (1.0, 3.0):
            cases[f"early/{arrhythmia.name}/{seconds:g}s"] = (
                lambda a=arrhythmia, k=k, s=seconds: _early(_record(a, True, 520 + k), s), "improved", {}
            )
    cases["early/VFIB/4s"] = (lambda: _burst(_early(_record(A.VFIB, True, 530), 4.0), start_s=2.0), "improved", {})

    # fail-safe notes
    for arrhythmia in (A.ASYSTOLE, A.BRADYCARDIA, A.TACHYCARDIA):
        cases[f"no-pulse-channel/{arrhythmia.name}"] = (
            lambda a=arrhythmia: _record(a, True, 540, channels=("RESP",)), "improved", {}
        )
    cases["vfib_no_ecg"] = (lambda: _keep(_record(A.VFIB, True, 541), ("ABP", "PLETH")), "improved", {})
    cases["vfib_window_too_short"] = (lambda: _early(_record(A.VFIB, True, 531), 2.0), "improved", {})
    for method in ("baseline", "improved"):
        cases[f"vtach_no_votes/gapped-abp/{method}"] = (
            lambda: _burst(_keep(_record(A.VTACH, True, 542), ("ABP",))), method, {}
        )
        cases[f"vtach_no_votes/early/{method}"] = (
            lambda: _early(_keep(_record(A.VTACH, True, 543), ("II", "V")), 1.0), method, {}
        )
    for method in ("dtw-vbank", "dtw-self-min", "dtw-self-kl"):
        cases[f"vtach_no_ecg/{method}"] = (
            lambda: _burst(_keep(_record(A.VTACH, True, 544), ("ABP", "PLETH"))), method, {"banks": banks}
        )
        cases[f"vtach_no_annotations/{method}"] = (
            lambda: _burst(_record(A.VTACH, True, 545, channels=("II", "RESP"))), method, {"banks": banks, "lead": "RESP"}
        )
    for method in ("dtw-self-min", "dtw-self-kl"):
        cases[f"self_bank_failed/noisy/{method}"] = (
            lambda: _record(A.VTACH, False, 546, noise_mv=3.0), method, {}
        )
        cases[f"self_bank_failed/early/{method}"] = (
            lambda: _burst(_early(_record(A.VTACH, True, 547), 12.0)), method, {}
        )
    cases["vtach_too_few_beats/dtw-vbank"] = (
        lambda: _early(_record(A.VTACH, True, 548), 1.0), "dtw-vbank", {"banks": banks}
    )
    cases["bank_lead_too_short/dtw-vbank"] = (
        _tiny, "dtw-vbank", {"banks": banks, "annotations": {0: np.array([1, 5, 9]), 1: None}}
    )
    # lead II cut to three beats 5 s apart: every slice is too long, so every label is Unknown
    sparse = _record(A.VTACH, True, 91)
    annotations = {0: sparse.alarm.alarm_index - np.array([14, 9, 4]) * int(sparse.sample_rate)}
    cases["vtach_no_votes/unknown-beats/dtw-vbank"] = (
        lambda: sparse, "dtw-vbank", {"banks": banks, "annotations": annotations}
    )
    corpus = corpus_from_records([(_record(A.VTACH, False, 551), False)])
    cases["dtw_full_no_signal/no-lead"] = (
        lambda: _burst(_keep(_record(A.VTACH, True, 552), ("V", "ABP", "PLETH"))), "dtw-full", {"corpus": corpus}
    )
    cases["dtw_full_no_signal/early"] = (
        lambda: _burst(_early(_record(A.VTACH, True, 553), 8.0)), "dtw-full", {"corpus": corpus}
    )

    # the gate dismisses a false VT alarm before any DTW method runs
    for method in ("dtw-full", "dtw-vbank", "dtw-self-min", "dtw-self-kl"):
        cases[f"gate/{method}"] = (lambda: _record(A.VTACH, False, 549), method, {"banks": banks})

    # one nearest-neighbour match against a one-entry corpus
    cases["nearest/dtw-full"] = (
        lambda: _record(A.VTACH, True, 550),
        "dtw-full",
        {"corpus": corpus},
    )

    # every beat warped against a bank: a burst keeps the gate off the false alarm
    for truth, seed in ((True, 560), (False, 561)):
        label = "true" if truth else "false"
        for method, kwargs in (("dtw-vbank", {"banks": banks}), ("dtw-self-min", {}), ("dtw-self-kl", {})):
            cases[f"warped/{method}/{label}"] = (lambda t=truth, s=seed: _burst(_record(A.VTACH, t, s)), method, kwargs)
    # at 35 bpm the beat slices outgrow the 81-sample surrogate members by more
    # than BEAT_RADIUS, so their pairs are warped under a band widened to the gap
    for truth in (True, False):
        cases[f"widened-band/dtw-vbank/{'true' if truth else 'false'}"] = (
            lambda t=truth: _record(A.VTACH, t, 601, heart_rate=35.0), "dtw-vbank", {"banks": banks}
        )
    # without lead II the bank methods read the first ECG channel, V
    cases["first-ecg-fallback/dtw-vbank"] = (
        lambda: _keep(_record(A.VTACH, True, 602), ("V", "ABP", "PLETH")), "dtw-vbank", {"banks": banks}
    )
    # a record already at the match rate: bank_lead takes it as it is
    for method, kwargs in (("dtw-vbank", {"banks": banks}), ("dtw-self-min", {})):
        cases[f"rate-125/{method}"] = (lambda: _record(A.VTACH, True, 603, sample_rate=125.0), method, kwargs)
        # a pressure lead is warped but gives no vote (dtw-self-min finds no clean ECG section)
        cases[f"pressure-lead/{method}"] = (lambda: _record(A.VTACH, True, 604), method, {**kwargs, "lead": "ABP"})
    # 3 s of lead II held flat inside the window: its validity witnesses the flat-line screen
    cases["flat-ii/TACHYCARDIA/improved"] = (lambda: _flat(_record(A.TACHYCARDIA, False, 605)), "improved", {})
    # the nearest entry and its exact duplicate carry opposite labels: the earliest entry wins
    tied = corpus_from_records([(_record(A.VTACH, True, 554), True), (_record(A.VTACH, False, 551), False)])
    tied.entries.append(replace(tied.entries[0], values=tied.entries[0].values.copy(), is_true_alarm=False))
    cases["nearest/dtw-full/tie"] = (lambda: _record(A.VTACH, True, 550), "dtw-full", {"corpus": tied})
    return cases


def _verdicts() -> dict:
    return {name: canonical(classify_alarm(make(), method, **kwargs)) for name, (make, method, kwargs) in _cases().items()}


def test_golden_verdicts():
    expected = json.loads(GOLDEN_PATH.read_text())
    got = _verdicts()
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"{len(changed)} verdicts changed, first {changed[0]}: {got[changed[0]]}"


def test_every_fail_safe_note_is_pinned():
    """A note is pinned when some golden verdict ends on it (the note is
    the ``test`` of an evidence entry without a channel)."""
    pinned = {
        e["test"]
        for verdict in json.loads(GOLDEN_PATH.read_text()).values()
        for e in verdict["evidence"]
        if e["channel"] == ""
    }
    notes = {n.value for n in FailSafe}
    assert len(notes) >= 10
    assert notes <= pinned, f"notes no golden case reaches: {sorted(notes - pinned)}"


if __name__ == "__main__":
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    new = _verdicts()
    GOLDEN_PATH.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            print(f"changed: {name}")
    print(f"wrote {GOLDEN_PATH}")
