"""Adjudication benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload rule-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run writes its inputs from the
seed, measures set-up time in fresh processes, then starts the
measured process (``worker.py``), which adjudicates in
a closed loop with one client for ``--seconds``. Every verdict is
checked against the committed reference for its catalog entry and
method; a mismatch or an adjudication that raised counts as failed and
makes the command exit with code 1.

Output: one line per metric with its unit and sample count, the
environment, then as the last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones named in ``BENCHMARK.json``; with
``--trace 1`` the per-layer ones from a traced run.

``--make-references`` adjudicates every catalog entry of a workload
once and rewrites ``perfbench/references/<workload>.json``. Do that
only for a deliberate change of behaviour, and say so.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import verdicts
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 3  # fresh processes timed for set-up, besides the measured one
SETUP_TIMEOUT_S = 20
RUN_LIMIT_S = 170  # the whole run, generation and set-ups included, ends well within 180 s


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _python(script: str, *args: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / script), *args]


def _start_worker(cmd: list[str], timeout: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns it and its set-up time."""
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - started
    if line.strip() != "READY":
        proc.kill()
        _, err = proc.communicate()
        raise RuntimeError(f"worker did not get ready: {err.strip()[-2000:]}")
    return proc, setup_s


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker still running after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")


def _challenge_score(decisions: dict[str, bool], truth: dict[str, bool]) -> float:
    tp = sum(1 for k, d in decisions.items() if d and truth[k])
    tn = sum(1 for k, d in decisions.items() if not d and not truth[k])
    fp = sum(1 for k, d in decisions.items() if d and not truth[k])
    fn = sum(1 for k, d in decisions.items() if not d and truth[k])
    return (tp + tn) / (tp + tn + fp + 5 * fn)


def check(result: dict, references: dict) -> tuple[int, int, list[str], dict[str, bool]]:
    """Compare every adjudication with its reference verdict.

    Returns attempted, failed, the first few problems, and the decision
    per distinct catalog entry (for the challenge score).
    """
    failed = 0
    problems: list[str] = []
    decisions: dict[str, bool] = {}
    for key, _, got, decision, error in result["adjudications"]:
        ref = references.get(key)
        if error is not None:
            failed += 1
            problems.append(f"{key}: raised {error}")
        elif ref is None:
            failed += 1
            problems.append(f"{key}: no reference verdict")
        elif got != ref["digest"]:
            failed += 1
            problems.append(
                f"{key}: verdict {json.dumps(result['verdicts'][key], sort_keys=True)} "
                f"differs from reference {json.dumps(ref['verdict'], sort_keys=True)}"
            )
        else:
            decisions.setdefault(key.split("|")[0], decision)
    return len(result["adjudications"]), failed, problems[:5], decisions


def end_to_end(result: dict, plan: dict, setup: list[float], decisions: dict[str, bool]) -> list[tuple]:
    """(name, value, unit, sample count) of every end-to-end figure.

    The 90th percentile appears only with at least ten samples beyond
    it. The challenge score is printed but not gated: any change to it
    changes a verdict, which the reference check already fails.
    """
    # an adjudication that raised inside evaluate has no latency; 0.0 when none finished
    latencies = [a[1] for a in result["adjudications"] if a[1] is not None] or [0.0]
    n = len(latencies)
    if "evaluate_calls" in result:
        walls = [c[0] for c in result["evaluate_calls"]]
        rate, rate_n = n / sum(walls), f"{n} records in {len(walls)} evaluate commands"
    else:
        rate, rate_n = n / (sum(latencies) / 1e3), f"{n} adjudications"
    rows = [("adjudicate_ms_p50", statistics.median(latencies), "ms", f"{n} adjudications")]
    if n >= 100:
        rows.append(("adjudicate_ms_p90", statistics.quantiles(latencies, n=10)[-1], "ms", f"{n} adjudications"))
    rows += [
        ("records_per_s", rate, "1/s", rate_n),
        ("peak_rss_mb", result["peak_rss_mb"], "MB", "1 process"),
        ("setup_s", statistics.median(setup), "s", f"{len(setup)} set-ups"),
    ]
    if decisions:
        score = _challenge_score(decisions, plan["truth"])
        rows.append(("challenge_score", score, "ratio", f"{len(decisions)} distinct alarms"))
    return rows


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def make_references(workload: str) -> int:
    """Adjudicate the whole catalog of ``workload`` and store the verdicts."""
    name = workloads.reference_name(workload)
    run_dir = WORK_DIR / f"references-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    plan = workloads.generate(workload, 0, run_dir, full_catalog=True)
    out = run_dir / "result.json"
    proc, _ = _start_worker(_python("worker.py", "--plan", str(run_dir / "plan.json"), "--out", str(out),
                                    "--seconds", "1e9", "--limit", str(len(plan["items"]))), SETUP_TIMEOUT_S)
    _finish(proc, timeout=3600)
    result = json.loads(out.read_text())
    refs = {}
    for key, _, got, _, error in result["adjudications"]:
        if error is not None:
            raise RuntimeError(f"{key} raised {error}; a reference must be a verdict")
        refs.setdefault(key, {"digest": got, "verdict": result["verdicts"][key]})
    path = verdicts.reference_path(name)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(dict(sorted(refs.items())), indent=1, sort_keys=True) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(f"wrote {len(refs)} reference verdicts to {path.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, help="smoke run: this many alarms (evaluate: one command over them)")
    parser.add_argument("--make-references", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "alarmsentinel" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # inputs are generated here, before the measured process starts
    if args.make_references:
        return make_references(args.workload)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK_DIR / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    started = time.perf_counter()
    try:
        plan = workloads.generate(args.workload, args.seed, run_dir, args.limit)
        plan_path = str(run_dir / "plan.json")

        setup = []
        for _ in range(1 if args.limit else SETUP_PROBES):
            probe, setup_s = _start_worker(_python("worker.py", "--plan", plan_path, "--setup-only"), SETUP_TIMEOUT_S)
            _finish(probe, SETUP_TIMEOUT_S)
            setup.append(setup_s)
        out = run_dir / "result.json"
        cmd = ["--plan", plan_path, "--out", str(out), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", str(WORK_DIR / f"{tag}-spans.jsonl")]
        if args.limit:
            cmd += ["--limit", "1" if args.workload == "evaluate-batch" else str(args.limit)]
        proc, setup_s = _start_worker(_python("worker.py", *cmd), SETUP_TIMEOUT_S)
        setup.append(setup_s)
        _finish(proc, timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)))
        result = json.loads(out.read_text())
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    references = verdicts.load_references(workloads.reference_name(args.workload))
    attempted, failed, problems, decisions = check(result, references)
    env = result["env"]
    keys = [f"{i['entry']}|{i['method']}" for i in plan["items"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({time.perf_counter() - started:.1f} s including generation)")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"verdicts: {attempted} checked against the references, {failed} failed; "
          f"expected plan digest {verdicts.run_digest(keys, references)}")
    for problem in problems:
        print(f"  FAILED {problem}")

    if args.trace:
        declared = _declared("per_layer")
        layer = result["per_layer"]
        values = layer["metrics"]
        print(f"per-layer metrics: means per traced adjudication ({values['trace.adjudications']:.0f} traced); "
              "shares are of adjudication wall time")
        for name, unit in declared.items():
            shown = f"{values[name]:.6g} {unit}" if layer["observed"][name] else "not observed"
            print(f"metric {name} = {shown}")
        adjudication_ms = values["trace.adjudication_ms"]
        parts = [f"{name} {values[f'{name}.self_share'] * adjudication_ms:.4g} ms" for name in spans.LAYERS]
        parts.append(f"untraced {values['untraced_share'] * adjudication_ms:.4g} ms")
        print("self time per adjudication: " + ", ".join(parts))
        for wrap in layer["missing_wraps"]:
            print(f"  wrap point {wrap} no longer exists")
    else:
        declared = _declared("end_to_end")
        rows = end_to_end(result, plan, setup, decisions)
        for name, value, unit, samples in rows:  # "info" lines are printed but not gated
            print(f"{'metric' if name in declared else 'info'} {name} = {value:.6g} {unit}  (n = {samples})")
        values = {row[0]: row[1] for row in rows}
    print(f"failed_fraction = {failed / attempted:.6g} ({failed} of {attempted})")

    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
