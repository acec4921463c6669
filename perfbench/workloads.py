"""Workload catalogs, seeded run plans, and input generation.

Every workload draws its alarms from a fixed catalog. A catalog entry
is a complete, deterministic description of one synthetic record
(heart rate, event parameters, noise seed, optional missing-data
burst), so the reference verdict of every (entry, method) pair can be
recorded once and checked on any run. The ``--seed`` of a run picks
which entries it uses and in which order; the same seed always gives
the same plan and the same files.

Plans and catalogs use only the standard library, so the orchestrator
can build them without importing numpy. Writing the records needs
``alarmsentinel.synthkit`` and happens in :func:`generate`, which the
orchestrator runs in its own process before the measured one starts.
"""
from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

# vt-dtw and evaluate-batch are the workloads BENCHMARK.json gates; rule-mix
# (one client on the rule path, the bedside case) stays runnable by hand.
WORKLOADS = ("vt-dtw", "evaluate-batch", "rule-mix")
CLASSES = ("asystole", "bradycardia", "tachycardia", "vtach", "vfib")
DTW_METHODS = ("dtw-vbank", "dtw-self-min", "dtw-self-kl", "dtw-full")
EVALUATE_WORKERS = 2
SURROGATE_BANK_SEED = 11
RULE_POOL_PER_STRATUM = 4  # 10 strata -> 40 records cycled by rule-mix
EVALUATE_POOL_PER_STRATUM = 6  # 10 strata -> 60-record manifest


@dataclass(frozen=True)
class Entry:
    """One catalog alarm: everything needed to render its record."""

    id: str
    arrhythmia: str
    event: bool
    heart_rate: float
    seed: int
    brady_rate: float = 38.0
    tachy_rate: float = 150.0
    vt_beats: int = 6
    vt_rate: float = 120.0
    gap_s: float = 5.0
    vf_freq_hz: float = 5.0
    vf_duration_s: float = 5.0
    burst_start_s: float = 0.0  # seconds before the alarm; 0 = no burst
    burst_len_s: float = 0.0


def _rule_entry(arrhythmia: str, event: bool, k: int) -> Entry:
    stratum = CLASSES.index(arrhythmia) * 2 + (0 if event else 1)
    seed = 10_000 + 100 * stratum + k
    rng = random.Random(seed)
    return Entry(
        id=f"{arrhythmia[:4]}-{'T' if event else 'F'}{k:02d}",
        arrhythmia=arrhythmia,
        event=event,
        heart_rate=round(rng.uniform(66.0, 94.0), 1),
        seed=seed,
        brady_rate=round(rng.uniform(30.0, 40.0), 1),
        tachy_rate=round(rng.uniform(150.0, 175.0), 1),
        vt_beats=rng.randint(5, 10),
        vt_rate=round(rng.uniform(110.0, 160.0), 1),
        gap_s=round(rng.uniform(4.0, 8.0), 2),
        vf_freq_hz=round(rng.uniform(4.0, 6.0), 2),
        vf_duration_s=round(rng.uniform(5.0, 8.0), 2),
    )


def _vt_entry(prefix: str, base: int, event: bool, k: int) -> Entry:
    """A VT alarm; the false ones carry a missing-data burst on every
    channel inside the analysis window, so the gate cannot dismiss them."""
    seed = base + (0 if event else 500) + k
    rng = random.Random(seed)
    burst_start = round(rng.uniform(2.5, 12.0), 2)
    burst_len = round(rng.uniform(0.4, 1.0), 2)
    return Entry(
        id=f"{prefix}-{'T' if event else 'F'}{k:02d}",
        arrhythmia="vtach",
        event=event,
        heart_rate=round(rng.uniform(78.0, 84.0), 1),
        seed=seed,
        vt_beats=rng.randint(5, 9),
        vt_rate=round(rng.uniform(110.0, 150.0), 1),
        burst_start_s=0.0 if event else burst_start,
        burst_len_s=0.0 if event else burst_len,
    )


def rule_catalog() -> list[Entry]:
    return [_rule_entry(a, e, k) for a in CLASSES for e in (True, False) for k in range(10)]


def vt_catalog() -> list[Entry]:
    return [_vt_entry("vt", 20_000, e, k) for e in (True, False) for k in range(12)]


def train_catalog() -> list[Entry]:
    """The dtw-full training set: its own seeds, disjoint from the tests."""
    return [_vt_entry("train", 40_000, e, k) for e in (True, False) for k in range(5)]


def reference_name(workload: str) -> str:
    """The catalog a workload draws from; references are kept per catalog."""
    return "vt" if workload == "vt-dtw" else "rule"


def catalog(workload: str) -> list[Entry]:
    """Entries whose reference verdicts the workload checks against."""
    return vt_catalog() if reference_name(workload) == "vt" else rule_catalog()


def catalog_methods(workload: str) -> tuple[str, ...]:
    return DTW_METHODS if reference_name(workload) == "vt" else ("improved",)


@dataclass(frozen=True)
class Item:
    """One adjudication in a run: a catalog entry under one method."""

    entry: str
    method: str

    @property
    def key(self) -> str:
        return f"{self.entry}|{self.method}"


def _stratified_pool(seed: int, per_stratum: int) -> list[str]:
    rng = random.Random(seed)
    by_stratum: dict[tuple[str, bool], list[str]] = {}
    for e in rule_catalog():
        by_stratum.setdefault((e.arrhythmia, e.event), []).append(e.id)
    pool = [eid for ids in by_stratum.values() for eid in rng.sample(ids, per_stratum)]
    rng.shuffle(pool)
    return pool


def _vt_items(seed: int) -> list[Item]:
    """16 distinct VT alarms; the methods rotate in a fixed order and
    each method gets as many true alarms as false ones."""
    rng = random.Random(seed)
    entries = vt_catalog()
    true_ids = rng.sample([e.id for e in entries if e.event], 8)
    false_ids = rng.sample([e.id for e in entries if not e.event], 8)
    items = []
    for k in range(16):
        ids = true_ids if (k + k // 4) % 2 == 0 else false_ids
        items.append(Item(ids.pop(), DTW_METHODS[k % 4]))
    return items


def plan(workload: str, seed: int, limit: int | None = None) -> list[Item]:
    """The seeded sequence of adjudications a run cycles through.

    ``limit`` truncates the plan (smoke runs use a single alarm).
    """
    if workload == "rule-mix":
        items = [Item(eid, "improved") for eid in _stratified_pool(seed, RULE_POOL_PER_STRATUM)]
    elif workload == "evaluate-batch":
        items = [Item(eid, "improved") for eid in _stratified_pool(seed, EVALUATE_POOL_PER_STRATUM)]
    elif workload == "vt-dtw":
        items = _vt_items(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items[:limit] if limit else items


def _render(entry: Entry, out_dir: Path) -> str:
    """Write one catalog entry as a record; returns the header path."""
    import numpy as np

    from alarmsentinel.record_io import parse_arrhythmia, write_record
    from alarmsentinel.synthkit import SynthSpec, generate

    spec = SynthSpec(
        name=entry.id.replace("-", "_"),
        arrhythmia=parse_arrhythmia(entry.arrhythmia),
        event=entry.event,
        heart_rate=entry.heart_rate,
        brady_rate=entry.brady_rate,
        tachy_rate=entry.tachy_rate,
        vt_beats=entry.vt_beats,
        vt_rate=entry.vt_rate,
        gap_s=entry.gap_s,
        vf_freq_hz=entry.vf_freq_hz,
        vf_duration_s=entry.vf_duration_s,
        seed=entry.seed,
    )
    record, _ = generate(spec)
    if entry.burst_len_s > 0:
        fs = record.sample_rate
        start = record.alarm.alarm_index - int(round(entry.burst_start_s * fs))
        record.samples[:, start : start + int(round(entry.burst_len_s * fs))] = np.nan
    return str(write_record(record, out_dir).resolve())


def generate(workload: str, seed: int, out_dir: Path, limit: int | None = None, full_catalog: bool = False) -> dict:
    """Write the inputs of one run and return its plan description.

    With ``full_catalog`` every catalog entry is written and the plan
    holds every (entry, method) pair; that is how references are made.
    """
    from alarmsentinel.beat_banks import save_bank
    from alarmsentinel.record_io import Manifest, ManifestEntry, parse_arrhythmia, write_manifest
    from alarmsentinel.synthkit import surrogate_banks

    out_dir.mkdir(parents=True, exist_ok=True)
    entries = {e.id: e for e in catalog(workload)}
    if full_catalog:
        items = [Item(eid, m) for eid in entries for m in catalog_methods(workload)]
    else:
        items = plan(workload, seed, limit)
    records_dir = out_dir / "records"
    records_dir.mkdir(exist_ok=True)
    paths: dict[str, str] = {}
    for item in items:
        if item.entry not in paths:
            paths[item.entry] = _render(entries[item.entry], records_dir)

    desc: dict = {
        "workload": workload,
        "seed": seed,
        "items": [asdict(i) for i in items],
        "records": paths,
        "truth": {eid: entries[eid].event for eid in paths},
        # untimed adjudications before the loop, only where they are cheap
        "warmup": 3 if workload in ("rule-mix", "evaluate-batch") and not full_catalog else 0,
    }
    if workload == "vt-dtw":
        bank_dir = out_dir / "banks"
        bank_dir.mkdir(exist_ok=True)
        banks = surrogate_banks(seed=SURROGATE_BANK_SEED)
        save_bank(banks.ventricular, bank_dir, prefix="v")
        save_bank(banks.standard, bank_dir, prefix="n")
        desc["bank_dir"] = str(bank_dir.resolve())
        train_dir = out_dir / "train"
        train_dir.mkdir(exist_ok=True)
        desc["train"] = [{"record": _render(e, train_dir), "truth": e.event} for e in train_catalog()]
    if workload == "evaluate-batch":
        manifest = Manifest([
            ManifestEntry(paths[i.entry], parse_arrhythmia(entries[i.entry].arrhythmia), entries[i.entry].event)
            for i in items
        ])
        desc["manifest"] = str(write_manifest(manifest, out_dir / "manifest.csv").resolve())
        desc["workers"] = EVALUATE_WORKERS
    (out_dir / "plan.json").write_text(json.dumps(desc, indent=1))
    return desc
