"""The measured process of one benchmark run.

Started by ``run.py`` with the package's ``src`` directory on the path.
It imports the package, does the workload's set-up (bank directory,
training corpus), prints ``READY``, and then adjudicates in a closed
loop with one client until the time is up. Everything goes through the
package's public functions, looked up on their modules at call time so
that the tracing wrappers see them. The result is written as JSON.

With ``--trace 1`` the loop runs with the wrappers installed for two
thirds of the time; in the last third the first adjudications are
replayed without them, and the difference is the tracing overhead.
"""
from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from spans import Tracer, summarize
from verdicts import canonical, digest, is_fail_safe


class Workload:
    """Set-up state plus one adjudication step for a generated plan."""

    def __init__(self, plan: dict):
        from alarmsentinel import alarm_logic, beat_banks, dtw, record_io

        self.plan = plan
        self.items = [(i["entry"], i["method"]) for i in plan["items"]]
        self.paths = plan["records"]
        self.alarm_logic, self.record_io = alarm_logic, record_io
        self.banks = self.corpus = None
        if "bank_dir" in plan:
            self.banks = beat_banks.load_bank_dir(plan["bank_dir"])
        if "train" in plan:
            labelled = [(record_io.load_record(t["record"]), t["truth"]) for t in plan["train"]]
            self.corpus = dtw.corpus_from_records(labelled)
        if "manifest" in plan:
            from alarmsentinel import cli

            self.cli = cli
            self.entry_of = {path: eid for eid, path in self.paths.items()}

    def adjudicate(self, entry: str, method: str):
        record = self.record_io.load_record(self.paths[entry])
        return self.alarm_logic.classify_alarm(record, method=method, banks=self.banks, corpus=self.corpus)

    def evaluate(self, out_dir: Path) -> tuple[float, float, int, list[dict]]:
        """One ``evaluate`` command over the manifest: wall s, CPU s, exit code, rows."""
        report = out_dir / "report.json"
        argv = [
            "evaluate", "--manifest", self.plan["manifest"], "--workers", str(self.plan["workers"]),
            "--out", str(report), "--csv", str(out_dir / "report.csv"),
        ]
        sink = io.StringIO()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        with redirect_stdout(sink), redirect_stderr(sink):
            code = self.cli.main(argv)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        rows = json.loads(report.read_text())["records"] if code == 0 else []
        return wall, cpu, code, rows


def _outcome(key: str, ms: float, verdict: dict | None, error: str | None, seen: dict) -> list:
    if verdict is None:
        return [key, ms, None, None, error]
    canon = canonical(verdict)
    seen.setdefault(key, canon)
    return [key, ms, digest(canon), canon["decision"] == "true_alarm", None]


def direct_loop(work: Workload, items: list, seconds: float, limit: int | None, tracer: Tracer | None = None):
    """Closed loop, one client: the next alarm starts when the last ends.

    An alarm is not started when the median so far says it would end
    after the deadline, so a run never overshoots by a whole alarm.
    Returns ``[(key, ms, verdict dict | None, error | None)]``.
    """
    done = []
    latencies: list[float] = []
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if latencies and (elapsed + statistics.median(latencies[-25:]) / 1e3 > seconds or (limit and k >= limit)):
            break
        entry, method = items[k % len(items)]
        k += 1
        t0 = time.perf_counter()
        verdict, error = None, None
        try:
            if tracer is None:
                verdict = work.adjudicate(entry, method)
            else:
                with tracer.adjudication():
                    verdict = work.adjudicate(entry, method)
        except Exception as exc:  # a failed adjudication is counted, the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1e3
        latencies.append(ms)
        done.append((f"{entry}|{method}", ms, verdict and verdict.to_dict(), error))
    return done


def evaluate_loop(work: Workload, seconds: float, limit: int | None, out_dir: Path):
    """Repeated ``evaluate`` commands; each adjudicates the whole manifest."""
    done, calls = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if calls and (elapsed + statistics.median(c[0] for c in calls) > seconds or (limit and len(calls) >= limit)):
            break
        wall, cpu, code, rows = work.evaluate(out_dir)
        calls.append((wall, cpu, code))
        if code != 0:
            done.append(("evaluate", wall * 1e3, None, f"evaluate exited with code {code}"))
        for row in rows:
            key = f"{work.entry_of[row['record']]}|improved"
            if "error" in row:  # evaluate reports no latency for a record that raised
                done.append((key, None, None, row["error"]))
            else:
                done.append((key, row["latency_ms"], row, None))
    return done, calls


def environment(workers: int) -> dict:
    import numpy
    import scipy

    from alarmsentinel import dtw

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "dtw_backend": "numba" if hasattr(dtw._dtw_core, "py_func") else "python",
        "cpus": os.cpu_count(),
        "workers": workers,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="measured process of one benchmark run")
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, help="stop after this many adjudications (or evaluate calls)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here as JSON lines")
    args = parser.parse_args(argv)

    plan = json.loads(Path(args.plan).read_text())
    tracer = Tracer() if args.trace else None
    if tracer is not None:  # set-up is traced too: corpus building is a dtw metric
        tracer.install()
    work = Workload(plan)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if tracer is not None:
        tracer.uninstall()

    evaluating = "manifest" in plan
    out_dir = Path(args.plan).parent
    # untimed adjudications that let lazy imports inside scipy finish
    for entry, method in work.items[: plan["warmup"]]:
        work.adjudicate(entry, method)

    result: dict = {}
    seconds = args.seconds
    if tracer is not None:  # two thirds traced, the last third replays untraced
        seconds = args.seconds * 2 / 3
        tracer.install()
    if evaluating:
        done, calls = evaluate_loop(work, seconds, args.limit, out_dir)
        result["evaluate_calls"] = [list(c) for c in calls]
    else:
        done = direct_loop(work, work.items, seconds, args.limit, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        metrics, observed = summarize(tracer.spans)
        if evaluating:
            wall = sum(c[0] for c in calls)
            cpu = sum(c[1] for c in calls)
            metrics["cli.cpu_per_wall"] = min(cpu / wall, float(plan["workers"]))
            observed["cli.cpu_per_wall"] = True
        else:
            metrics["cli.cpu_per_wall"], observed["cli.cpu_per_wall"] = 0.0, False
        judged = [v for _, _, v, _ in done if v is not None]
        for name, flag in (("gate_dismissed_share", lambda v: v["gate_fired"]), ("failsafe_share", is_fail_safe)):
            share = sum(1 for v in judged if flag(v)) / len(judged) if judged else 0.0
            metrics[f"alarm_logic.{name}"], observed[f"alarm_logic.{name}"] = share, bool(judged)
        metrics["trace.overhead_share"], observed["trace.overhead_share"] = _overhead(
            work, done, calls if evaluating else None, args.seconds - seconds, out_dir
        )
        result["per_layer"] = {"metrics": metrics, "observed": observed, "missing_wraps": tracer.missing}
        if args.spans:
            with open(args.spans, "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s._asdict()) + "\n")

    seen: dict = {}
    result["adjudications"] = [_outcome(key, ms, v, err, seen) for key, ms, v, err in done]
    result["verdicts"] = seen
    result["env"] = environment(plan.get("workers", 1))
    Path(args.out).write_text(json.dumps(result))
    return 0


def _overhead(work: Workload, traced: list, calls: list | None, budget_s: float, out_dir: Path) -> tuple[float, bool]:
    """Replay the first traced adjudications untraced and compare.

    Returns (traced / untraced - 1, observed). At least one replay
    runs; no replay starts that would likely end after ``budget_s``.
    """
    if calls is not None:
        replays = [(wall, lambda: work.evaluate(out_dir)) for wall, _, _ in calls]
    else:
        replays = [
            (ms / 1e3, lambda key=key: work.adjudicate(*key.split("|")))
            for key, ms, _, error in traced
            if error is None
        ]
    start = time.perf_counter()
    traced_s = untraced_s = last = 0.0
    for traced_time, replay in replays:
        if untraced_s and time.perf_counter() - start + last > budget_s:
            break
        t0 = time.perf_counter()
        replay()
        last = time.perf_counter() - t0
        untraced_s += last
        traced_s += traced_time
    if untraced_s == 0.0:
        return 0.0, False
    return traced_s / untraced_s - 1.0, True


if __name__ == "__main__":
    sys.exit(main())
