import argparse
import json
import os
import re
import signal
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from alarmsentinel import alarm_logic, cli
from alarmsentinel.alarm_logic import classify_alarm
from alarmsentinel.cli import main
from alarmsentinel.record_io import AlarmMeta, Arrhythmia, Manifest, ManifestEntry, load_manifest, load_record
from alarmsentinel.synthkit import SynthSpec, generate, surrogate_banks
from alarmsentinel.beat_banks import extract_self_bank, save_bank
from alarmsentinel.record_io import write_manifest, write_record


@pytest.fixture(scope="module")
def small_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_suite")
    assert main(["synth", "--out", str(out), "--per-class", "2", "--seed", "7"]) == 0
    return out, out / "manifest.csv"


@pytest.mark.parametrize("per_class", ["0", "-2"])
def test_synth_per_class_below_one_exits_two(tmp_path, capsys, per_class):
    out = tmp_path / "suite"
    assert main(["synth", "--out", str(out), "--per-class", per_class]) == 2
    assert capsys.readouterr().err == f"error: --per-class must be at least 1, got {per_class}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def bank_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_banks")
    banks = surrogate_banks(seed=0)
    save_bank(banks.ventricular, d, prefix="v")
    save_bank(banks.standard, d, prefix="n")
    return d


@pytest.fixture(scope="module")
def ventricular_only(tmp_path_factory):
    """A bank directory holding ventricular beat files alone."""
    d = tmp_path_factory.mktemp("cli_vbank_only")
    save_bank(surrogate_banks(seed=0).ventricular, d, prefix="v")
    return d


def entry_for(manifest_path, truth, arrhythmia=None):
    for e in load_manifest(manifest_path):
        if e.truth is truth and (arrhythmia is None or e.arrhythmia is arrhythmia):
            return e.record
    raise AssertionError("no matching manifest row")


def read_report(path):
    payload = json.loads(path.read_text())
    payload.pop("timing")
    for row in payload["records"]:
        row.pop("latency_ms", None)
    return payload


class TestSynthCommand:
    def test_suite_on_disk(self, small_suite):
        out, manifest_path = small_suite
        manifest = load_manifest(manifest_path)
        assert len(manifest.entries) == 10
        assert sum(e.truth for e in manifest) == 5


class TestClassifyCommand:
    def test_false_alarm_exits_zero(self, small_suite, capsys):
        record = entry_for(small_suite[1], truth=False, arrhythmia=Arrhythmia.ASYSTOLE)
        assert main(["classify", record]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["decision"] == "false_alarm"
        assert verdict["gate_fired"] is True

    def test_true_alarm_exits_one(self, small_suite, capsys):
        record = entry_for(small_suite[1], truth=True, arrhythmia=Arrhythmia.ASYSTOLE)
        assert main(["classify", record]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["decision"] == "true_alarm"

    def test_missing_record_is_an_error(self, tmp_path, capsys):
        assert main(["classify", str(tmp_path / "ghost.hea")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("rate", "nan"), ("rate", "inf"), ("gain", "nan"), ("gain", "-inf")])
    def test_non_finite_header_number_exits_two(self, small_suite, tmp_path, capsys, field, value):
        # exit 1 would read as "true alarm"; a nan rate used to exit 1 with a traceback
        rec, _ = generate(SynthSpec(name="hdr", arrhythmia=Arrhythmia.ASYSTOLE, event=False, seed=4))
        header = write_record(rec, tmp_path)
        lines = header.read_text().splitlines()
        fields = lines[0 if field == "rate" else 1].split()
        fields[2] = value
        lines[0 if field == "rate" else 1] = " ".join(fields)
        header.write_text("\n".join(lines) + "\n")
        assert main(["classify", str(header)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_non_utf8_header_exits_two(self, tmp_path, capsys):
        # a UnicodeDecodeError used to escape with a traceback, and exit 1 reads as "true alarm"
        header = tmp_path / "bin.hea"
        header.write_bytes(b"\xff\xfe\x00bad")
        assert main(["classify", str(header)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read header {header}: 'utf-8' codec")
        assert captured.err.count("\n") == 1

    def test_non_utf8_config_exits_two(self, small_suite, tmp_path, capsys):
        record = entry_for(small_suite[1], truth=True, arrhythmia=Arrhythmia.BRADYCARDIA)
        cfg = tmp_path / "bin.cfg"
        cfg.write_bytes(b"brady_hr = \xff50\n")
        assert main(["classify", record, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read config {cfg}:")

    @pytest.mark.parametrize("rate", ["0.5", "1e-300", "30"])
    def test_rate_too_low_for_the_filters_exits_two(self, tmp_path, capsys, rate):
        # scipy's filter design used to raise ValueError, and classify exited 1
        rec, _ = generate(SynthSpec(name="hdr", arrhythmia=Arrhythmia.ASYSTOLE, event=False, seed=4))
        header = write_record(rec, tmp_path)
        lines = header.read_text().splitlines()
        fields = lines[0].split()
        fields[2] = rate
        lines[0] = " ".join(fields)
        header.write_text("\n".join(lines) + "\n")
        assert main(["classify", str(header)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_vbank_requires_bank_dir(self, small_suite, capsys):
        record = entry_for(small_suite[1], truth=True, arrhythmia=Arrhythmia.VTACH)
        assert main(["classify", record, "--method", "dtw-vbank"]) == 2
        assert "--bank-dir" in capsys.readouterr().err

    def test_vbank_classifies_with_banks(self, small_suite, bank_dir, capsys):
        record = entry_for(small_suite[1], truth=True, arrhythmia=Arrhythmia.VTACH)
        assert main(["classify", record, "--method", "dtw-vbank", "--bank-dir", str(bank_dir)]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["method"] == "dtw-vbank"

    def test_vbank_with_one_bank_exits_two_on_a_gated_record(self, small_suite, ventricular_only, capsys):
        # the gate dismisses this alarm before any beat is labelled, so the
        # half-empty bank used to go unnoticed and classify exited 0
        record = entry_for(small_suite[1], truth=False, arrhythmia=Arrhythmia.VTACH)
        assert main(["classify", record, "--method", "dtw-vbank", "--bank-dir", str(ventricular_only)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "both banks" in captured.err

    def test_dtw_full_needs_a_corpus_source(self, small_suite, capsys):
        record = entry_for(small_suite[1], truth=True, arrhythmia=Arrhythmia.VTACH)
        assert main(["classify", record, "--method", "dtw-full"]) == 2
        assert "corpus" in capsys.readouterr().err

    def test_dtw_full_with_manifest(self, small_suite, capsys):
        # the query is a row of its own training manifest
        record = entry_for(small_suite[1], truth=True, arrhythmia=Arrhythmia.VTACH)
        assert main(["classify", record, "--method", "dtw-full", "--train-manifest", str(small_suite[1])]) in (0, 1)
        out, err = capsys.readouterr()
        assert err == ""
        (nearest,) = [e for e in json.loads(out)["evidence"] if e["test"] == "nearest_neighbor"]
        assert nearest["witnesses"]["distance"] > 0.0  # the record is not its own neighbour

    def test_dtw_full_warns_of_each_skipped_training_row(self, tmp_path, capsys):
        specs = [SynthSpec(f"w{seed}", Arrhythmia.VTACH, event=seed % 2 == 0, seed=seed) for seed in range(3)]
        specs[1] = replace(specs[1], channels=("V", "ABP", "PLETH"))  # no lead II
        headers = [write_record(generate(spec)[0], tmp_path) for spec in specs]
        manifest = tmp_path / "train.csv"
        rows = [f"{h},{Arrhythmia.VTACH.value},{'true' if i % 2 == 0 else 'false'}" for i, h in enumerate(headers[:2])]
        manifest.write_text("record,arrhythmia,label\n" + "\n".join(rows) + "\n")
        args = ["classify", str(headers[2]), "--method", "dtw-full", "--train-manifest", str(manifest)]
        assert main(args) in (0, 1)
        out, err = capsys.readouterr()
        (warning,) = err.splitlines()
        assert warning.startswith("warning: w1: ") and "II" in warning
        assert json.loads(out)["evidence"][-1]["witnesses"]["neighbor"] == 0.0  # the one entry built

    def test_dtw_full_corpus_decodes_one_training_record_at_a_time(self, tmp_path, capsys, monkeypatch):
        # a decoded record is a few MB, so the corpus build must not hold
        # the whole training split at once
        specs = [SynthSpec(f"t{seed}", Arrhythmia.VTACH, event=seed % 2 == 0, seed=seed) for seed in range(5)]
        headers = [write_record(generate(spec)[0], tmp_path) for spec in specs]
        manifest = tmp_path / "train.csv"
        rows = [f"{h},{Arrhythmia.VTACH.value},{'true' if i % 2 == 0 else 'false'}" for i, h in enumerate(headers[:4])]
        manifest.write_text("record,arrhythmia,label\n" + "\n".join(rows) + "\n")
        decoded, alive_at_load = [], []
        load = cli.load_record

        def tracked(path):
            record = load(path)
            decoded.append(weakref.ref(record))
            alive_at_load.append(sum(ref() is not None for ref in decoded))
            return record

        monkeypatch.setattr(cli, "load_record", tracked)
        args = ["classify", str(headers[4]), "--method", "dtw-full", "--train-manifest", str(manifest)]
        assert main(args) in (0, 1)
        assert len(alive_at_load) == 5  # four training records, then the query
        assert max(alive_at_load) <= 2
        capsys.readouterr()

        manifest.write_text(manifest.read_text() + f"{tmp_path / 'gone.hea'},{Arrhythmia.VTACH.value},true\n")
        assert main(args) == 2
        assert "gone.hea" in capsys.readouterr().err

    def test_short_vfib_window_fails_safe(self, tmp_path, capsys):
        rec, _ = generate(SynthSpec(name="vfshort", arrhythmia=Arrhythmia.VFIB, event=False, seed=4))
        rec.alarm = AlarmMeta(Arrhythmia.VFIB, False, int(2.5 * rec.sample_rate))
        header = write_record(rec, tmp_path)
        assert main(["classify", str(header)]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["evidence"][-1]["test"] == "vfib_window_too_short"

    def test_record_too_short_to_resample_fails_safe(self, small_suite, tmp_path, capsys):
        rec, _ = generate(SynthSpec(name="tiny", arrhythmia=Arrhythmia.VTACH, event=False, seed=4))
        rec.samples = rec.samples[:, :12].copy()
        rec.alarm = AlarmMeta(Arrhythmia.VTACH, False, 12)
        header = write_record(rec, tmp_path)
        args = ["classify", str(header), "--method", "dtw-full", "--train-manifest", str(small_suite[1])]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["evidence"][-1]["test"] == "dtw_full_no_signal"

    @pytest.mark.parametrize(
        "line",
        ["brady_hr 50", "brady_hr = slow", "brady_rate = 50", "brady_beats = 1", "brady_hr = nan",
         "analysis_window_s = nan", "vt_hr = inf", "brady_hr = 40\nbrady_hr = 50"],
    )
    def test_bad_config_exits_two(self, small_suite, tmp_path, capsys, line):
        # exit 1 would read as "true alarm"
        record = entry_for(small_suite[1], truth=True, arrhythmia=Arrhythmia.BRADYCARDIA)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["classify", record, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_annotation_override_changes_the_verdict(self, small_suite, tmp_path, capsys):
        record = entry_for(small_suite[1], truth=True, arrhythmia=Arrhythmia.ASYSTOLE)
        name = record.rsplit("/", 1)[-1].removesuffix(".hea")
        ann_dir = tmp_path / "ann"
        ann_dir.mkdir()
        # perfectly regular fake beats on every channel dismiss the alarm
        lines = "\n".join(str(i) for i in range(100, 30000, 200))
        for ch in range(4):
            (ann_dir / f"{name}.ch{ch}.txt").write_text(lines + "\n")
        assert main(["classify", record, "--annotations", str(ann_dir)]) == 0
        assert json.loads(capsys.readouterr().out)["gate_fired"] is True

    def test_a_channel_with_a_file_is_never_detected(self, small_suite, tmp_path, capsys):
        record = entry_for(small_suite[1], truth=True, arrhythmia=Arrhythmia.VTACH)
        name = record.rsplit("/", 1)[-1].removesuffix(".hea")
        assert [ch.name for ch in load_record(record).channels] == ["II", "V", "ABP", "PLETH"]
        (tmp_path / f"{name}.ch0.txt").write_text("\n".join(str(i) for i in range(100, 30000, 200)) + "\n")
        with mock.patch.object(alarm_logic, "detect_qrs", wraps=alarm_logic.detect_qrs) as qrs:
            assert main(["classify", record, "--annotations", str(tmp_path)]) in (0, 1)
        capsys.readouterr()
        assert [c.kwargs["channel"] for c in qrs.call_args_list] == [1]


class TestEvaluateCommand:
    def test_report_schema_and_determinism(self, small_suite, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        args = ["evaluate", "--manifest", str(small_suite[1]), "--workers", "2"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b), "--workers", "1"]) == 0
        stdout = capsys.readouterr().out
        assert "method improved" in stdout
        assert "overall" in stdout
        a, b = read_report(out_a), read_report(out_b)
        assert a == b
        assert set(a) == {"method", "lead", "config", "split", "records", "metrics"}
        assert a["split"] is None
        assert len(a["records"]) == 10
        assert a["metrics"]["overall"]["counts"]["tp"] + a["metrics"]["overall"]["counts"]["fn"] == 5

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_two(self, small_suite, tmp_path, capsys, workers):
        out = tmp_path / "r.json"
        assert main(["evaluate", "--manifest", str(small_suite[1]), "--workers", workers, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --workers must be at least 1, got {workers}\n"
        assert not out.exists()

    def test_dead_worker_is_an_error(self, small_suite, tmp_path, capsys, monkeypatch):
        victim = entry_for(small_suite[1], truth=True)
        parent_pid = os.getpid()
        classify = cli.classify_alarm

        def dies_in_a_worker(record, **kwargs):
            if record.name == victim.rsplit("/", 1)[-1].removesuffix(".hea") and os.getpid() != parent_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return classify(record, **kwargs)

        monkeypatch.setattr(cli, "classify_alarm", dies_in_a_worker)
        out = tmp_path / "r.json"
        assert main(["evaluate", "--manifest", str(small_suite[1]), "--workers", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "worker process died" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "tag, error",
        [("#Asystole\n", "manifest row says Ventricular_Tachycardia, record header says Asystole"),
         ("", "record 'a100s' carries no arrhythmia tag")],
        ids=["another-class", "untagged"],
    )
    def test_row_of_another_class_than_its_header_is_an_error(self, small_suite, tmp_path, capsys, tag, error):
        # the header's class picks the check and the row's class files the verdict, so they must agree
        for suffix in (".hea", ".dat"):
            (tmp_path / f"a100s{suffix}").write_bytes((small_suite[0] / f"a100s{suffix}").read_bytes())
        header = tmp_path / "a100s.hea"
        header.write_text(header.read_text().replace("#Asystole\n", tag))
        rows = [e for e in load_manifest(small_suite[1]) if e.arrhythmia is Arrhythmia.VTACH]
        manifest, out = tmp_path / "relabelled.csv", tmp_path / "r.json"
        write_manifest(Manifest(rows + [ManifestEntry(str(header), Arrhythmia.VTACH, True)]), manifest)
        assert main(["evaluate", "--manifest", str(manifest), "--workers", "1", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert f"{len(rows) + 1} records, 1 failed" in captured.out
        assert captured.err == f"warning: {header}: {error}\n"
        (row,) = [r for r in json.loads(out.read_text())["records"] if "error" in r]
        assert row == {"record": str(header), "arrhythmia": "Ventricular_Tachycardia", "truth": "true_alarm",
                       "decision": "true_alarm", "error": error}

    def test_dtw_method_reports_a_vt_record_filed_under_another_class(self, tmp_path, capsys):
        # the VT filter reads the row's class, so a VT record filed elsewhere used to vanish from the report
        assert main(["synth", "--out", str(tmp_path), "--per-class", "4", "--seed", "7"]) == 0
        capsys.readouterr()
        manifest = tmp_path / "manifest.csv"
        entries = list(load_manifest(manifest))
        (k,) = [k for k, e in enumerate(entries) if Path(e.record).name == "v100s.hea"]
        entries[k] = replace(entries[k], arrhythmia=Arrhythmia.ASYSTOLE)
        # rows whose header cannot be read stay left out
        unreadable = [tmp_path / "malformed.hea", tmp_path / "binary.hea"]
        unreadable[0].write_text("not a header\n")
        unreadable[1].write_bytes(b"\xff\xfe not text\n")
        write_manifest(Manifest(entries + [ManifestEntry(str(h), Arrhythmia.ASYSTOLE, False) for h in unreadable]), manifest)
        out = tmp_path / "r.json"
        args = ["evaluate", "--manifest", str(manifest), "--method", "dtw-self-min", "--workers", "1", "--out", str(out)]
        assert main(args) == 0
        error = "manifest row says Asystole, record header says Ventricular_Tachycardia"
        captured = capsys.readouterr()
        assert captured.err == f"warning: {entries[k].record}: {error}\n"
        assert "2 records, 1 failed" in captured.out
        payload = json.loads(out.read_text())
        assert payload["split"] == {"seed": 2015, "train": 2, "test": 1}
        reported = [r["record"] for r in payload["records"]]
        assert reported == [e.record for e in entries if e.record in reported]  # manifest order
        assert payload["records"][reported.index(entries[k].record)] == {
            "record": entries[k].record, "arrhythmia": "Asystole",
            "truth": "true_alarm" if entries[k].truth else "false_alarm", "decision": "true_alarm", "error": error,
        }

    def test_unreadable_record_counts_as_true_alarm(self, small_suite, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.hea"
        corrupt.write_text("not a header\n")
        manifest = small_suite[0] / "manifest_corrupt.csv"
        manifest.write_text(small_suite[1].read_text().rstrip("\n") + f"\n{corrupt},vtach,false\n")
        clean, out = tmp_path / "clean.json", tmp_path / "r.json"
        assert main(["evaluate", "--manifest", str(small_suite[1]), "--out", str(clean)]) == 0
        assert main(["evaluate", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert "corrupt.hea" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        (row,) = [r for r in payload["records"] if "error" in r]
        assert row["decision"] == "true_alarm" and row["truth"] == "false_alarm"
        before = json.loads(clean.read_text())["metrics"]["overall"]["counts"]
        after = payload["metrics"]["overall"]["counts"]
        assert after == {**before, "fp": before["fp"] + 1}

    def test_non_utf8_record_is_an_error_row(self, small_suite, tmp_path, capsys):
        # the UnicodeDecodeError of one row used to end the whole run with a traceback
        binary = tmp_path / "bin.hea"
        binary.write_bytes(b"\xff\xfe\x00bad")
        manifest = small_suite[0] / "manifest_binary.csv"
        manifest.write_text(small_suite[1].read_text().rstrip("\n") + f"\n{binary},asystole,false\n")
        out = tmp_path / "r.json"
        assert main(["evaluate", "--manifest", str(manifest), "--workers", "1", "--out", str(out)]) == 0
        assert f"warning: {binary}: cannot read header {binary}:" in capsys.readouterr().err
        (row,) = [r for r in json.loads(out.read_text())["records"] if "error" in r]
        assert row["record"] == str(binary) and row["decision"] == "true_alarm"

    def test_non_utf8_manifest_exits_two(self, tmp_path, capsys):
        manifest = tmp_path / "bin.csv"
        manifest.write_bytes(b"\xff\xfe\x00bad\n")
        out = tmp_path / "r.json"
        assert main(["evaluate", "--manifest", str(manifest), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read manifest {manifest}:")
        assert not out.exists()

    def test_csv_output(self, small_suite, tmp_path):
        out = tmp_path / "r.json"
        csv = tmp_path / "r.csv"
        rc = main(["evaluate", "--manifest", str(small_suite[1]), "--out", str(out), "--csv", str(csv)])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("class,tp,tn,fp,fn,")
        assert lines[-1].startswith("overall,")

    def test_dtw_method_filters_to_vt_and_splits(self, small_suite, bank_dir, tmp_path):
        out = tmp_path / "vt.json"
        rc = main([
            "evaluate", "--manifest", str(small_suite[1]), "--method", "dtw-vbank",
            "--bank-dir", str(bank_dir), "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["split"] == {"seed": 2015, "train": 1, "test": 1}
        assert all(r["arrhythmia"] == Arrhythmia.VTACH.value for r in payload["records"])

    def test_vbank_with_one_bank_exits_two(self, small_suite, ventricular_only, tmp_path, capsys):
        # train on the true VT alarm, so the one test row is the gated false one,
        # which used to be adjudicated without a beat label and reported
        train = entry_for(small_suite[1], truth=True, arrhythmia=Arrhythmia.VTACH)
        split_path = tmp_path / "train.csv"
        split_path.write_text(f"record,arrhythmia,label\n{train},{Arrhythmia.VTACH.value},true\n")
        out = tmp_path / "vt.json"
        rc = main([
            "evaluate", "--manifest", str(small_suite[1]), "--method", "dtw-vbank",
            "--bank-dir", str(ventricular_only), "--split", str(split_path), "--out", str(out),
        ])
        assert rc == 2
        assert "both banks" in capsys.readouterr().err
        assert not out.exists()

    def test_explicit_split_manifest(self, small_suite, tmp_path):
        manifest = load_manifest(small_suite[1])
        vt = [e for e in manifest if e.arrhythmia is Arrhythmia.VTACH]
        split_path = tmp_path / "train.csv"
        label = "true" if vt[0].truth else "false"
        split_path.write_text(
            "record,arrhythmia,label\n"
            f"{vt[0].record},{vt[0].arrhythmia.value},{label}\n"
        )
        out = tmp_path / "split.json"
        rc = main([
            "evaluate", "--manifest", str(small_suite[1]), "--method", "dtw-self-min",
            "--split", str(split_path), "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["split"] == {"seed": None, "train": 1, "test": 1}
        tested = {r["record"] for r in payload["records"]}
        assert vt[0].record not in tested

    @pytest.mark.parametrize("missing", [False, True])
    def test_split_rows_match_manifest_rows_by_file(self, tmp_path, capsys, monkeypatch, missing):
        recs = tmp_path / "recs"
        recs.mkdir()
        specs = [SynthSpec(f"v{seed}", Arrhythmia.VTACH, event=seed % 2 == 0, seed=seed) for seed in range(4)]
        headers = [write_record(generate(spec)[0], recs) for spec in specs]
        rows = [f"{h},{Arrhythmia.VTACH.value},{'true' if i % 2 == 0 else 'false'}" for i, h in enumerate(headers)]
        manifest, split = tmp_path / "all.csv", tmp_path / "train.csv"
        manifest.write_text("record,arrhythmia,label\n" + "\n".join(rows) + "\n")
        # v0 as the manifest spells it, v1 through a parent directory
        train = [rows[0], f"{recs / '..' / recs.name / headers[1].name},{Arrhythmia.VTACH.value},false"]
        if missing:
            train.append(f"{recs / 'gone.hea'},{Arrhythmia.VTACH.value},true")
        split.write_text("record,arrhythmia,label\n" + "\n".join(train) + "\n")
        read = []
        monkeypatch.setattr(cli, "load_record", lambda path: read.append(path) or load_record(path))
        out = tmp_path / "r.json"
        args = ["evaluate", "--manifest", str(manifest), "--method", "dtw-self-min", "--split", str(split)]
        rc = main(args + ["--workers", "1", "--out", str(out)])
        if missing:
            assert rc == 2
            assert capsys.readouterr().err == f"error: split row names no --manifest row: {recs / 'gone.hea'}\n"
            assert read == [] and not out.exists()
        else:
            assert rc == 0
            capsys.readouterr()
            payload = json.loads(out.read_text())
            assert payload["split"] == {"seed": None, "train": 2, "test": 2}
            assert [r["record"] for r in payload["records"]] == [str(h) for h in headers[2:]]

    def test_dtw_full_reports_skipped_training_rows(self, tmp_path, capsys):
        specs = [SynthSpec(f"e{seed}", Arrhythmia.VTACH, event=seed % 2 == 0, seed=seed) for seed in range(6)]
        specs[1] = replace(specs[1], channels=("V", "ABP", "PLETH"))  # no lead II
        headers = [write_record(generate(spec)[0], tmp_path) for spec in specs]
        rows = [f"{h},{Arrhythmia.VTACH.value},{'true' if i % 2 == 0 else 'false'}" for i, h in enumerate(headers)]
        manifest, split = tmp_path / "all.csv", tmp_path / "train.csv"
        manifest.write_text("record,arrhythmia,label\n" + "\n".join(rows) + "\n")
        split.write_text("record,arrhythmia,label\n" + "\n".join(rows[:4]) + "\n")
        out = tmp_path / "r.json"
        args = ["evaluate", "--manifest", str(manifest), "--method", "dtw-full", "--split", str(split)]
        assert main(args + ["--workers", "1", "--out", str(out)]) == 0
        (warning,) = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: e1: ")
        info = json.loads(out.read_text())["split"]
        (skipped,) = info.pop("skipped")
        assert skipped == {"record": "e1", "error": warning.removeprefix("warning: e1: ")}
        assert info == {"seed": None, "train": 4, "test": 2, "corpus": 3}

    def test_unknown_labels_rejected(self, small_suite, tmp_path, capsys):
        original = small_suite[1].read_text().splitlines()
        flipped = [original[0]] + [
            line.rsplit(",", 1)[0] + ",unknown" if i == 1 else line
            for i, line in enumerate(original[1:], start=1)
        ]
        bad = small_suite[0] / "manifest_unknown.csv"
        bad.write_text("\n".join(flipped) + "\n")
        assert main(["evaluate", "--manifest", str(bad), "--out", str(tmp_path / "x.json")]) == 2
        assert "unknown labels" in capsys.readouterr().err

    def test_latency_budget_breach(self, small_suite, tmp_path, capsys):
        rc = main([
            "evaluate", "--manifest", str(small_suite[1]),
            "--out", str(tmp_path / "r.json"), "--assert-latency-ms", "0.001",
        ])
        assert rc == 2
        assert "latency budget exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["nan", "inf", "0", "-1"])
    def test_latency_budget_must_be_finite_and_positive(self, small_suite, tmp_path, capsys, monkeypatch, budget):
        # nan compares False against every latency, so it used to pass any run
        def never(path):
            raise AssertionError(f"read {path} before the budget was checked")

        monkeypatch.setattr(cli, "load_record", never)
        out = tmp_path / "r.json"
        args = ["evaluate", "--manifest", str(small_suite[1]), "--out", str(out), "--assert-latency-ms", budget]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: --assert-latency-ms must be a finite number above 0, got {float(budget)}\n"
        )
        assert not out.exists()

    def test_config_override_lands_in_report(self, small_suite, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("asystole_gap_s = 2.5\n")
        out = tmp_path / "cfg.json"
        rc = main(["evaluate", "--manifest", str(small_suite[1]), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["config"]["asystole_gap_s"] == 2.5


@pytest.fixture
def corpus_records(monkeypatch):
    """Names of the records given to every dtw-full corpus build."""
    seen = []
    build = cli.corpus_from_records

    def capture(labelled, **kwargs):
        return build(((seen.append(record.name) or record, truth) for record, truth in labelled), **kwargs)

    monkeypatch.setattr(cli, "corpus_from_records", capture)
    return seen


class TestCorpusLeavesOutTheRecordsUnderTest:
    """No dtw-full corpus holds a record it is used to adjudicate."""

    @pytest.mark.parametrize("spelling", ["as listed", "through a parent"])
    def test_classify_a_row_of_the_train_manifest(self, small_suite, corpus_records, capsys, spelling):
        record = Path(entry_for(small_suite[1], truth=False, arrhythmia=Arrhythmia.VTACH))
        query = record if spelling == "as listed" else record.parent / ".." / record.parent.name / record.name
        args = ["classify", str(query), "--method", "dtw-full", "--train-manifest", str(small_suite[1])]
        assert main(args) in (0, 1)
        capsys.readouterr()
        assert corpus_records == [load_record(e.record).name for e in load_manifest(small_suite[1])
                                  if e.arrhythmia is Arrhythmia.VTACH and e.record != str(record)]

    @pytest.mark.parametrize("explicit_split", [False, True])
    def test_evaluate(self, small_suite, corpus_records, tmp_path, capsys, explicit_split):
        out = tmp_path / "r.json"
        args = ["evaluate", "--manifest", str(small_suite[1]), "--method", "dtw-full", "--out", str(out)]
        if explicit_split:
            train = entry_for(small_suite[1], truth=True, arrhythmia=Arrhythmia.VTACH)
            split = tmp_path / "train.csv"
            split.write_text(f"record,arrhythmia,label\n{train},{Arrhythmia.VTACH.value},true\n")
            args += ["--split", str(split)]
        assert main(args) == 0
        capsys.readouterr()
        tested = {load_record(r["record"]).name for r in json.loads(out.read_text())["records"]}
        assert corpus_records and tested
        assert tested.isdisjoint(corpus_records)


class TestBankCommand:
    def test_build_self_writes_twenty_beats(self, small_suite, tmp_path, capsys):
        record = entry_for(small_suite[1], truth=False, arrhythmia=Arrhythmia.VTACH)
        out = tmp_path / "selfbank"
        assert main(["bank", "build-self", "--record", record, "--out", str(out)]) == 0
        assert len(list(out.glob("*.txt"))) == 20
        assert "wrote 20 beat files" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["dtw-self-min", "dtw-self-kl"])
    def test_build_self_writes_the_bank_the_self_methods_build(self, tmp_path, capsys, method):
        """Noise 70-60 s before the alarm, older than the detection span,
        changes the bank a whole-record detection would draw; build-self
        and the method must still agree."""
        rec, _ = generate(SynthSpec(name="vt", arrhythmia=Arrhythmia.VTACH, event=True, seed=20003))
        noisy = slice(rec.alarm.alarm_index - int(70 * rec.sample_rate), rec.alarm.alarm_index - int(60 * rec.sample_rate))
        rec.samples[:, noisy] += np.random.default_rng(0).normal(0.0, 3.0, rec.samples[:, noisy].shape)
        header = write_record(rec, tmp_path)
        assert main(["bank", "build-self", "--record", str(header), "--out", str(tmp_path / "cli")]) == 0
        capsys.readouterr()
        built = []

        def spy(*args, **kwargs):
            built.append(extract_self_bank(*args, **kwargs))
            return built[-1]

        with mock.patch.object(alarm_logic, "extract_self_bank", spy):
            classify_alarm(load_record(header), method)
        [bank] = built
        (tmp_path / "method").mkdir()
        save_bank(bank, tmp_path / "method", prefix="vt")
        written = sorted(p.name for p in (tmp_path / "cli").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "method").iterdir()) and len(written) == 20
        for name in written:
            assert (tmp_path / "cli" / name).read_text() == (tmp_path / "method" / name).read_text()

    def test_build_self_reports_too_few_clean_beats(self, tmp_path, capsys):
        spec = SynthSpec(name="grime", arrhythmia=Arrhythmia.VTACH, event=False, noise_mv=3.0, seed=5)
        rec, _ = generate(spec)
        header = write_record(rec, tmp_path)
        rc = main(["bank", "build-self", "--record", str(header), "--out", str(tmp_path / "b")])
        assert rc == 3
        assert "found 0" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["vtach_no_ecg", "vtach_no_annotations", "bank_lead_too_short"])
    def test_build_self_names_the_lead_rule_that_fails(self, tmp_path, capsys, case):
        channels = {"vtach_no_ecg": ("ABP", "PLETH"), "vtach_no_annotations": ("II", "RESP")}.get(case, ("II",))
        rec, _ = generate(SynthSpec(name="lead", arrhythmia=Arrhythmia.VTACH, event=False, seed=5, channels=channels))
        args = ["bank", "build-self", "--out", str(tmp_path / "b")]
        if case == "vtach_no_annotations":
            args += ["--lead", "RESP"]
        if case == "bank_lead_too_short":
            # beats supplied on a record too short for the anti-alias filter
            rec.samples = rec.samples[:, :12].copy()
            rec.alarm = AlarmMeta(Arrhythmia.VTACH, False, 12)
            (tmp_path / "lead.ch0.txt").write_text("1\n5\n9\n")
            args += ["--annotations", str(tmp_path)]
        header = write_record(rec, tmp_path)
        assert main(args + ["--record", str(header)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: cannot build a bank from record lead: {case}\n"
        assert not (tmp_path / "b").exists()

    def test_inspect_prints_novelty_stats(self, small_suite, tmp_path, capsys):
        record = entry_for(small_suite[1], truth=False, arrhythmia=Arrhythmia.VTACH)
        out = tmp_path / "selfbank"
        assert main(["bank", "build-self", "--record", record, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["bank", "inspect", "--bank-dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "beats: 20" in text
        assert "mu_min=" in text and "sigma_kl=" in text

    def test_inspect_names_a_beat_file_with_a_non_finite_sample(self, bank_dir, tmp_path):
        d = tmp_path / "bank"
        d.mkdir()
        for f in bank_dir.glob("*.txt"):
            (d / f.name).write_text(f.read_text())
        (d / "odd.txt").write_text("fs=125 label=N\n0.1\ninf\n0.3\n")
        # a fresh interpreter, so any numpy warning would reach stderr
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "alarmsentinel.cli", "bank", "inspect", "--bank-dir", str(d)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.splitlines() == [f"error: beat file {d / 'odd.txt'} has a non-finite sample"]


def _parser_options(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parser_options(sub)
        else:
            yield from action.option_strings


def test_readme_names_every_option_and_no_other():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}  # pip's flag
    options = set(_parser_options(cli.build_parser())) - {"-h", "--help"}
    assert sorted(named - options) == [], "README names options the command line lacks"
    assert sorted(options - named) == [], "command-line options README does not name"
