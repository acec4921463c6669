"""Tests of the benchmark itself: generator, references, metric names, smoke runs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    first = workloads.generate(workload, 5, tmp_path / "a", limit=2)
    second = workloads.generate(workload, 5, tmp_path / "b", limit=2)
    assert first["items"] == second["items"]
    assert _files(tmp_path / "a" / "records") == _files(tmp_path / "b" / "records")
    assert workloads.plan(workload, 5) == workloads.plan(workload, 5)
    assert workloads.plan(workload, 5) != workloads.plan(workload, 6)


def test_dtw_full_training_set_is_disjoint_from_the_tests():
    train = workloads.train_catalog()
    test = workloads.vt_catalog()
    assert not {e.id for e in train} & {e.id for e in test}
    assert not {e.seed for e in train} & {e.seed for e in test}


def test_every_plan_item_has_a_reference():
    for workload in workloads.WORKLOADS:
        refs = verdicts.load_references(workloads.reference_name(workload))
        keys = {f"{e.id}|{m}" for e in workloads.catalog(workload) for m in workloads.catalog_methods(workload)}
        assert keys == set(refs), workload


def test_reference_digest_is_stable_across_runs(tmp_path):
    from alarmsentinel import alarm_logic, record_io

    refs = verdicts.load_references("rule")
    desc = workloads.generate("rule-mix", 3, tmp_path, limit=4)
    for item in desc["items"]:
        path = desc["records"][item["entry"]]
        got = {
            verdicts.digest(verdicts.canonical(
                alarm_logic.classify_alarm(record_io.load_record(path), item["method"]).to_dict()
            ))
            for _ in range(2)
        }
        assert got == {refs[f"{item['entry']}|{item['method']}"]["digest"]}


def test_canonical_rounds_witnesses_to_six_digits():
    verdict = {
        "decision": "true_alarm", "gate_fired": False, "method": "improved",
        "evidence": [{"channel": "II", "test": "t", "outcome": True, "witnesses": {"x": 1.23456789, "y": None}}],
    }
    canon = verdicts.canonical(verdict)
    assert canon["evidence"][0]["witnesses"] == {"x": 1.23457, "y": None}
    nudged = json.loads(json.dumps(verdict))
    nudged["evidence"][0]["witnesses"]["x"] = 1.234568
    assert verdicts.digest(verdicts.canonical(nudged)) == verdicts.digest(canon)


def test_cells_required_matches_a_direct_count():
    for n, m, r in [(5, 5, 0), (5, 7, 2), (9, 4, 6), (30, 28, 125), (12, 12, 3)]:
        direct = sum(1 for i in range(n) for j in range(m) if abs(i - j) <= min(r, max(n, m)))
        assert spans.cells_required(n, m, r) == direct


def test_layer_self_times_and_remainder_add_up():
    S = spans.Span
    trace = [
        S(1, 0, "record_io.load_record", 0.0, 1.0, 0, None),
        S(3, 2, "beats.detect_qrs", 2.0, 3.0, 0, 100),
        S(2, 0, "alarm_logic.classify_alarm", 1.5, 6.0, 0, None),
        S(0, None, spans.ROOT_SPAN, 0.0, 8.0, 0, None),
    ]
    metrics, observed = spans.summarize(trace)
    shares = sum(metrics[f"{layer}.self_share"] for layer in spans.LAYERS) + metrics["untraced_share"]
    assert shares == pytest.approx(1.0)
    assert metrics["alarm_logic.check_ms"] == pytest.approx(3500.0)
    assert metrics["untraced_share"] == pytest.approx(2.5 / 8.0)
    assert not observed["dtw.ns_per_cell"] and metrics["dtw.ns_per_cell"] == 0.0


def test_tracer_restores_the_package_functions():
    from alarmsentinel import alarm_logic

    original = alarm_logic.assess_quality
    tracer = spans.Tracer()
    tracer.install()
    assert alarm_logic.assess_quality is not original
    tracer.uninstall()
    assert alarm_logic.assess_quality is original
    assert not tracer.missing


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _result(proc: subprocess.CompletedProcess, kind: str) -> dict:
    """The final JSON line; also checks every printed metric is declared with its unit."""
    assert proc.returncode == 0, proc.stdout + proc.stderr
    declared = _declared(kind)
    for line in proc.stdout.splitlines():
        if line.startswith("metric "):
            _, name, _, value, *unit = line.split()
            assert name in declared, name
            assert value == "not" or unit[0] == declared[name], line
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_alarm_smoke_run_passes(workload):
    proc = _bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "0", "--limit", "1")
    result = _result(proc, "end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["rule-mix", "evaluate-batch"])
def test_traced_smoke_run_prints_the_declared_layer_metrics(workload):
    proc = _bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "1", "--limit", "1")
    assert _result(proc, "per_layer")["correct"]


def test_benchmark_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "rule-mix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
