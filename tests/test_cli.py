import json
import os
import signal

import pytest

from alarmsentinel import cli
from alarmsentinel.cli import main
from alarmsentinel.record_io import AlarmMeta, Arrhythmia, load_manifest
from alarmsentinel.synthkit import SynthSpec, generate, surrogate_banks
from alarmsentinel.beat_banks import save_bank
from alarmsentinel.record_io import write_record


@pytest.fixture(scope="module")
def small_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_suite")
    assert main(["synth", "--out", str(out), "--per-class", "2", "--seed", "7"]) == 0
    return out, out / "manifest.csv"


@pytest.fixture(scope="module")
def bank_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_banks")
    banks = surrogate_banks(seed=0)
    save_bank(banks.ventricular, d, prefix="v")
    save_bank(banks.standard, d, prefix="n")
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

    def test_dtw_full_needs_a_corpus_source(self, small_suite, capsys):
        record = entry_for(small_suite[1], truth=True, arrhythmia=Arrhythmia.VTACH)
        assert main(["classify", record, "--method", "dtw-full"]) == 2
        assert "corpus" in capsys.readouterr().err

    def test_dtw_full_with_manifest_and_cache(self, small_suite, tmp_path, capsys):
        record = entry_for(small_suite[1], truth=True, arrhythmia=Arrhythmia.VTACH)
        cache = tmp_path / "corpus.bin"
        rc = main([
            "classify", record, "--method", "dtw-full",
            "--train-manifest", str(small_suite[1]),
            "--save-corpus-cache", str(cache),
        ])
        assert rc in (0, 1)
        assert cache.exists()
        first = json.loads(capsys.readouterr().out)
        (nearest,) = [e for e in first["evidence"] if e["test"] == "nearest_neighbor"]
        assert nearest["witnesses"]["distance"] > 0.0  # the record is not its own neighbour
        rc2 = main(["classify", record, "--method", "dtw-full", "--corpus-cache", str(cache)])
        assert rc2 == rc
        assert json.loads(capsys.readouterr().out) == first

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
        cache = tmp_path / "c.bin"
        assert main([
            "classify", entry_for(small_suite[1], truth=True, arrhythmia=Arrhythmia.VTACH), "--method", "dtw-full",
            "--train-manifest", str(small_suite[1]), "--save-corpus-cache", str(cache),
        ]) in (0, 1)
        capsys.readouterr()
        assert main(["classify", str(header), "--method", "dtw-full", "--corpus-cache", str(cache)]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["evidence"][-1]["test"] == "dtw_full_no_signal"

    @pytest.mark.parametrize(
        "line",
        ["brady_hr 50", "brady_hr = slow", "brady_rate = 50", "brady_beats = 1", "brady_hr = nan",
         "analysis_window_s = nan", "vt_hr = inf"],
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

    def test_config_override_lands_in_report(self, small_suite, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("asystole_gap_s = 2.5\n")
        out = tmp_path / "cfg.json"
        rc = main(["evaluate", "--manifest", str(small_suite[1]), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["config"]["asystole_gap_s"] == 2.5


class TestBankCommand:
    def test_build_self_writes_twenty_beats(self, small_suite, tmp_path, capsys):
        record = entry_for(small_suite[1], truth=False, arrhythmia=Arrhythmia.VTACH)
        out = tmp_path / "selfbank"
        assert main(["bank", "build-self", "--record", record, "--out", str(out)]) == 0
        assert len(list(out.glob("*.txt"))) == 20
        assert "wrote 20 beat files" in capsys.readouterr().out

    def test_build_self_reports_too_few_clean_beats(self, tmp_path, capsys):
        spec = SynthSpec(name="grime", arrhythmia=Arrhythmia.VTACH, event=False, noise_mv=3.0, seed=5)
        rec, _ = generate(spec)
        header = write_record(rec, tmp_path)
        rc = main(["bank", "build-self", "--record", str(header), "--out", str(tmp_path / "b")])
        assert rc == 3
        assert "found 0" in capsys.readouterr().err

    def test_inspect_prints_novelty_stats(self, small_suite, tmp_path, capsys):
        record = entry_for(small_suite[1], truth=False, arrhythmia=Arrhythmia.VTACH)
        out = tmp_path / "selfbank"
        assert main(["bank", "build-self", "--record", record, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["bank", "inspect", "--bank-dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "beats: 20" in text
        assert "mu_min=" in text and "sigma_kl=" in text
