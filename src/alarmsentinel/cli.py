"""Command-line surface: classify, evaluate, bank, synth.

Exit codes are a contract: for ``classify``, 0 means the alarm was
judged false, 1 true, and anything above 1 is an error; ``bank``
reports too few clean beats as 3. Reports and verdicts print as JSON
so downstream tooling never parses prose.
"""
from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict
from pathlib import Path

from .alarm_logic import (
    DTW_METHODS, METHODS, Thresholds, Verdict, analysis_beats, classify_alarm, detect_annotations, detection_start,
)
from .beat_banks import bank_novelty_stats, classify_beat_vbank, extract_self_bank, load_bank_dir, save_bank
from .beats import import_annotations
from .dtw import DEFAULT_LEAD, TrainingCorpus, corpus_from_records
from .errors import AlarmSentinelError, CannotDecide, EmptyBank, EmptyCorpus, InsufficientCleanBeats, MalformedRow
from .evaluation import per_arrhythmia_report, train_test_split
from .record_io import Arrhythmia, load_manifest, load_record, parse_header, read_text
from .synthkit import generate_suite


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _config_from(args) -> Thresholds:
    if args.config:
        return Thresholds.from_file(args.config)
    return Thresholds()


def _annotation_files(record, directory: str | None) -> dict:
    """Beats read from ``<name>.ch<i>.txt`` files in a directory, keyed
    by channel ``i``; a channel without a file is no key."""
    if not directory:
        return {}
    paths = {i: Path(directory) / f"{record.name}.ch{i}.txt" for i in range(record.n_channels)}
    return {i: import_annotations(path, record, channel=i) for i, path in paths.items() if path.exists()}


def _corpus_for(args, train) -> TrainingCorpus:
    """The dtw-full corpus, built from the training manifest rows; each
    row left out of it is named on stderr."""
    # one record decoded at a time: the corpus keeps only each one's match window
    labelled = ((load_record(e.record), e.truth) for e in train)
    corpus = corpus_from_records(labelled, lead=args.lead, skip_errors=True)
    for record, error in corpus.skipped:
        print(f"warning: {record}: {error}", file=sys.stderr)
    if len(corpus) == 0:
        raise EmptyCorpus("training corpus is empty")
    return corpus


def _run_for(args, train) -> tuple[dict, str | None]:
    """What every adjudication of a command shares: ``classify_alarm``'s
    keyword arguments and the annotation directory. ``train`` holds the
    manifest rows a dtw-full corpus is built from."""
    config = _config_from(args)
    banks = load_bank_dir(args.bank_dir) if args.bank_dir else None
    if args.method == "dtw-vbank":
        if banks is None:
            raise EmptyBank("--method dtw-vbank requires --bank-dir")
        classify_beat_vbank(banks)  # both banks must be populated before any record is read
    corpus = _corpus_for(args, train) if args.method == "dtw-full" else None
    kwargs = {"method": args.method, "config": config, "banks": banks, "corpus": corpus, "lead": args.lead}
    return kwargs, args.annotations


def _class_mismatch(arrhythmia: Arrhythmia, tagged: Arrhythmia) -> MalformedRow:
    return MalformedRow(f"manifest row says {arrhythmia.value}, record header says {tagged.value}")


def _header_tag(path: str) -> Arrhythmia | None:
    """The class a record's header tags, read from the header text alone;
    None for a header that cannot be read."""
    try:
        return parse_header(read_text(path, "header"))[4].arrhythmia
    except AlarmSentinelError:
        return None


def _verdict(path: str, run: tuple, arrhythmia: Arrhythmia | None = None) -> Verdict:
    """The verdict on the record at ``path`` under ``run`` (:func:`_run_for`).
    A record whose header tags another class than ``arrhythmia`` (its
    manifest row's class) is a :class:`MalformedRow`."""
    kwargs, annotation_dir = run
    record = load_record(path)
    tagged = record.alarm.arrhythmia
    if arrhythmia is not None and tagged is not None and tagged is not arrhythmia:
        raise _class_mismatch(arrhythmia, tagged)
    return classify_alarm(record, annotations=_annotation_files(record, annotation_dir), **kwargs)


def cmd_classify(args) -> int:
    train = []
    if args.method == "dtw-full":
        if not args.train_manifest:
            return _fail("--method dtw-full requires --train-manifest to build its corpus from")
        # the corpus holds VT alarms only, and never the record under test
        query = Path(args.record).resolve()
        train = [
            e for e in load_manifest(args.train_manifest)
            if e.arrhythmia is Arrhythmia.VTACH and Path(e.record).resolve() != query
        ]
        unlabelled = [e.record for e in train if e.truth is None]
        if unlabelled:
            return _fail(f"training manifest row without a label: {unlabelled[0]}")
    verdict = _verdict(args.record, _run_for(args, train))
    print(json.dumps(verdict.to_dict(), indent=2))
    return 1 if verdict.is_true_alarm else 0


def _metric_cell(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3f}"


_METRIC_COLUMNS = ("sensitivity", "specificity", "ppv", "npv", "f1", "challenge_score")


def _report_rows(report):
    """``(class name, counts, metric cells)`` per class, then overall."""
    for arrhythmia, row in list(report.per_arrhythmia.items()) + [(None, report.overall)]:
        name = arrhythmia.value if arrhythmia is not None else "overall"
        yield name, row.counts, [getattr(row, column) for column in _METRIC_COLUMNS]


def _print_summary(report, n_records: int, n_failed: int, method: str) -> None:
    print(f"method {method}: {n_records} records, {n_failed} failed")
    header = f"{'class':<26}{'tp':>4}{'tn':>4}{'fp':>4}{'fn':>4}   sens   spec    ppv    npv     f1  score"
    print(header)
    for name, c, cells in _report_rows(report):
        print(f"{name:<26}{c.tp:>4}{c.tn:>4}{c.fp:>4}{c.fn:>4} " + " ".join(f"{_metric_cell(v):>6}" for v in cells))


def _report_csv(report) -> str:
    lines = ["class,tp,tn,fp,fn," + ",".join(_METRIC_COLUMNS)]
    for name, c, cells in _report_rows(report):
        text = ",".join("" if v is None else f"{v:.6f}" for v in cells)
        lines.append(f"{name},{c.tp},{c.tn},{c.fp},{c.fn},{text}")
    return "\n".join(lines) + "\n"


def _row(entry, **fields) -> dict:
    """A manifest row's report row, with ``fields`` after its own."""
    return {
        "record": entry.record,
        "arrhythmia": entry.arrhythmia.value,
        "truth": "true_alarm" if entry.truth else "false_alarm",
        **fields,
    }


def _adjudicate(entry, run) -> dict:
    """One manifest row's report row under ``run`` (:func:`_run_for`)."""
    started = time.perf_counter()
    try:
        verdict = _verdict(entry.record, run, entry.arrhythmia)
    except AlarmSentinelError as exc:
        # a record that cannot be adjudicated keeps its alarm
        return _row(entry, decision="true_alarm", error=str(exc))
    latency_ms = (time.perf_counter() - started) * 1000.0
    return _row(entry, latency_ms=latency_ms, **verdict.to_dict())


_worker_run = None  # the run's inputs inside an evaluate worker process


def _start_worker(run) -> None:
    global _worker_run
    _worker_run = run


def _adjudicate_in_worker(entry) -> dict:
    return _adjudicate(entry, _worker_run)


def cmd_evaluate(args) -> int:
    if args.workers is not None and args.workers < 1:
        return _fail(f"--workers must be at least 1, got {args.workers}")
    budget = args.assert_latency_ms
    if budget is not None and not (math.isfinite(budget) and budget > 0):
        return _fail(f"--assert-latency-ms must be a finite number above 0, got {budget}")
    manifest = load_manifest(args.manifest)
    unknown = [e.record for e in manifest if e.truth is None]
    if unknown:
        return _fail(f"{len(unknown)} manifest rows have unknown labels (first: {unknown[0]})")
    rows = list(manifest.entries)
    if not rows:
        return _fail("manifest is empty")

    train, split_info, refused = [], None, []
    if args.method in DTW_METHODS:
        # a VT record filed under another class keeps its alarm as an error row, in neither split
        refused = [
            _row(e, decision="true_alarm", error=str(_class_mismatch(e.arrhythmia, Arrhythmia.VTACH))) for e in rows
            if e.arrhythmia is not Arrhythmia.VTACH and _header_tag(e.record) is Arrhythmia.VTACH
        ]
        rows = [e for e in rows if e.arrhythmia is Arrhythmia.VTACH]
        if not rows:
            return _fail("no ventricular tachycardia rows for a DTW method")
        if args.split:
            # rows match by the file they name, whatever the spelling of its path
            listed = {Path(e.record).resolve() for e in manifest}
            train_paths = {Path(e.record).resolve(): e.record for e in load_manifest(args.split)}
            stray = [spelling for path, spelling in train_paths.items() if path not in listed]
            if stray:
                return _fail(f"split row names no --manifest row: {stray[0]}")
            train = [e for e in rows if Path(e.record).resolve() in train_paths]
            test = [e for e in rows if Path(e.record).resolve() not in train_paths]
        else:
            train, test = train_test_split(rows, seed=args.split_seed)
        if not test:
            return _fail("train/test split left no test records")
        split_info = {"seed": None if args.split else args.split_seed, "train": len(train), "test": len(test)}
        rows = test

    run = _run_for(args, train)
    kwargs, _ = run
    corpus = kwargs["corpus"]
    if corpus is not None:
        split_info["corpus"] = len(corpus)
        split_info["skipped"] = [{"record": record, "error": error} for record, error in corpus.skipped]
    workers = min(args.workers or min(8, os.cpu_count() or 1), len(rows))
    if workers > 1:
        # forked workers inherit the run's inputs; only rows cross processes
        try:
            with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_start_worker, initargs=(run,),
            ) as pool:
                results = list(pool.map(_adjudicate_in_worker, rows))
        except BrokenProcessPool:
            return _fail("a worker process died before every record was adjudicated")
    else:
        results = [_adjudicate(entry, run) for entry in rows]
    # every row in manifest order, refused ones included
    by_record = {r["record"]: r for r in results + refused}
    results = [by_record[e.record] for e in manifest if e.record in by_record]

    failed = [r for r in results if "error" in r]
    ok = [r for r in results if "error" not in r]
    for r in failed:
        print(f"warning: {r['record']}: {r['error']}", file=sys.stderr)
    if not ok:
        return _fail("every record failed to classify")

    triples = [
        (Arrhythmia(r["arrhythmia"]), r["decision"] == "true_alarm", r["truth"] == "true_alarm")
        for r in results
    ]
    report = per_arrhythmia_report(triples)
    latencies = [r["latency_ms"] for r in ok]
    payload = {
        "method": args.method,
        "lead": args.lead,
        "config": asdict(kwargs["config"]),
        "split": split_info,
        "records": results,
        "metrics": report.to_dict(),
        "timing": {"max_ms": max(latencies), "mean_ms": sum(latencies) / len(latencies)},
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    _print_summary(report, len(results), len(failed), args.method)
    print(f"report written to {args.out}")
    if args.csv:
        Path(args.csv).write_text(_report_csv(report))
    if budget is not None and max(latencies) > budget:
        return _fail(f"latency budget exceeded: {max(latencies):.1f} ms > {budget} ms")
    return 0


def cmd_bank(args) -> int:
    if args.bank_cmd == "build-self":
        record, config = load_record(args.record), Thresholds()
        given = _annotation_files(record, args.annotations)
        try:
            annotations = detect_annotations(record, given, detection_start(record, config))
            lead, annotation = analysis_beats(record, annotations, args.lead)
        except CannotDecide as exc:
            return _fail(f"cannot build a bank from record {record.name}: {exc.note}")
        try:
            bank = extract_self_bank(lead, annotation, exclude_s=config.analysis_window_s)
        except InsufficientCleanBeats as exc:
            print(f"error: {exc} (found {exc.found})", file=sys.stderr)
            return 3
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        paths = save_bank(bank, out, prefix=record.name)
        print(f"wrote {len(paths)} beat files to {out}")
        return 0

    if args.bank_cmd == "inspect":
        bank_set = load_bank_dir(args.bank_dir)
        bank = bank_set.standard if len(bank_set.standard) else bank_set.ventricular
        stats = bank_novelty_stats(bank)
        print(f"beats: {len(bank)} ({bank.kind.value}), ventricular files: {len(bank_set.ventricular)}, "
              f"standard files: {len(bank_set.standard)}")
        print(f"mu_min={stats.mu_min:.6f} sigma_min={stats.sigma_min:.6f} "
              f"mu_kl={stats.mu_kl:.6f} sigma_kl={stats.sigma_kl:.6f}")
        return 0

    return _fail(f"unknown bank sub-command {args.bank_cmd!r}")


def cmd_synth(args) -> int:
    if args.per_class < 1:
        return _fail(f"--per-class must be at least 1, got {args.per_class}")
    manifest_path = generate_suite(args.out, seed=args.seed, per_class=args.per_class)
    print(f"suite written, manifest at {manifest_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alarmsentinel", description="False-arrhythmia-alarm adjudication")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--method", choices=METHODS, default="improved")
        p.add_argument("--config", help="key = value file overriding test thresholds")
        p.add_argument("--bank-dir", help="directory of beat files (V/N labels)")
        p.add_argument("--annotations", help="directory of <record>.ch<i>.txt annotation files")
        p.add_argument("--lead", default=DEFAULT_LEAD, help="lead for single-lead DTW methods")

    c = sub.add_parser("classify", help="adjudicate one record")
    c.add_argument("record", help="path to the record header")
    add_common(c)
    c.add_argument("--train-manifest", help="manifest to build a dtw-full corpus from")
    c.set_defaults(fn=cmd_classify)

    e = sub.add_parser("evaluate", help="run a manifest and report metrics")
    e.add_argument("--manifest", required=True)
    add_common(e)
    e.add_argument("--out", default="report.json", help="report JSON path")
    e.add_argument("--csv", help="also write a per-class metrics CSV")
    e.add_argument("--split", help="manifest listing the training records (DTW methods)")
    e.add_argument("--split-seed", type=int, default=2015, help="seed for the 2:1 train/test split")
    e.add_argument("--workers", type=int, help="worker processes, at least 1 (fork, so POSIX only); "
                   "default: the CPU count, at most 8")
    e.add_argument("--assert-latency-ms", type=float, help="fail if any record takes longer")
    e.set_defaults(fn=cmd_evaluate)

    b = sub.add_parser("bank", help="build or inspect beat banks")
    bank_sub = b.add_subparsers(dest="bank_cmd", required=True)
    bs = bank_sub.add_parser("build-self", help="extract a patient's own beat bank")
    bs.add_argument("--record", required=True)
    bs.add_argument("--out", required=True)
    bs.add_argument("--lead", default=DEFAULT_LEAD)
    bs.add_argument("--annotations", help="directory of annotation files")
    bs.set_defaults(fn=cmd_bank)
    bi = bank_sub.add_parser("inspect", help="print novelty statistics of a bank directory")
    bi.add_argument("--bank-dir", required=True)
    bi.set_defaults(fn=cmd_bank)

    s = sub.add_parser("synth", help="generate the synthetic suite")
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--per-class", type=int, default=10)
    s.set_defaults(fn=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AlarmSentinelError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
