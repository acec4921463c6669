"""Span tracing from outside the package, and the per-layer summary.

Each wrapper replaces a public function at the name its caller looks
up (``alarm_logic.assess_quality`` is the name ``classify_alarm``
calls, ``beat_banks.resample_half`` the one the bank code calls), so
the package itself is unchanged. A span records its name, start, end,
parent span and adjudication id; spans stay in memory until the run
ends. Wrappers are installed only for the traced part of a run.
"""
from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time
from contextlib import contextmanager
from functools import wraps
from typing import NamedTuple


def _samples_len(args, kwargs):
    return len(args[0])


def _record_size(args, kwargs):
    record = args[0]
    return record.n_channels * record.n_samples


def _warp_shape(args, kwargs):
    a, b, params = args[0], args[1], args[2]
    return (len(a), len(b), params.radius)


# (module, attribute looked up by the caller, span name, extra, starts an adjudication).
# Each either feeds a metric or moves time to the layer that spends it;
# cli's detect_annotations makes the evaluate path's detection a span.
WRAPS = (
    ("record_io", "load_record", "record_io.load_record", None, False),
    ("cli", "load_record", "record_io.load_record", None, True),
    ("beat_banks", "resample_half", "record_io.resample_half", _record_size, False),
    ("dtw", "resample_half", "record_io.resample_half", _record_size, False),
    ("dtw", "pre_alarm_window", "record_io.pre_alarm_window", None, False),
    ("alarm_logic", "assess_quality", "signal_quality.assess_quality", None, False),
    ("beat_banks", "clean_window_metrics", "signal_quality.clean_window_metrics", None, False),
    ("beat_banks", "is_clean", "signal_quality.is_clean", None, False),
    ("alarm_logic", "detect_qrs", "beats.detect_qrs", _samples_len, False),
    ("alarm_logic", "detect_pulses", "beats.detect_pulses", _samples_len, False),
    ("alarm_logic", "beat_segments", "beats.beat_segments", None, False),
    ("beat_banks", "beat_segments", "beats.beat_segments", None, False),
    ("alarm_logic", "classify_beat_spectral", "beats.classify_beat_spectral", None, False),
    ("alarm_logic", "classify_alarm", "alarm_logic.classify_alarm", None, False),
    ("cli", "classify_alarm", "alarm_logic.classify_alarm", None, False),
    ("cli", "detect_annotations", "alarm_logic.detect_annotations", None, False),
    ("alarm_logic", "regular_activity", "alarm_logic.regular_activity", None, False),
    ("alarm_logic", "extract_self_bank", "beat_banks.extract_self_bank", None, False),
    ("alarm_logic", "bank_novelty_stats", "beat_banks.bank_novelty_stats", None, False),
    ("alarm_logic", "vt_labels_from_bank", "beat_banks.vt_labels_from_bank", None, False),
    ("beat_banks", "dtw_distance", "dtw.dtw_distance", _warp_shape, False),
    ("dtw", "dtw_distance", "dtw.dtw_distance", _warp_shape, False),
    ("alarm_logic", "classify_full_signal", "dtw.classify_full_signal", None, False),
    ("dtw", "corpus_from_records", "dtw.corpus_from_records", None, False),
    ("cli", "main", "cli.main", None, False),
)

LAYERS = ("record_io", "signal_quality", "beats", "alarm_logic", "beat_banks", "dtw")
ROOT_SPAN = "bench.adjudicate"


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    adjudication: int | None
    extra: object

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans on every thread; install() patches the package."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []  # wrap points the package no longer has
        self._ids = itertools.count()
        self._adjudications = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, extra=None, starts_adjudication=False):
        stack = self._stack()
        if starts_adjudication and not stack:
            self._local.adjudication = next(self._adjudications)
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            info = extra(args, kwargs) if extra is not None else None
            self.spans.append(Span(span_id, parent, name, start, end, getattr(self._local, "adjudication", None), info))

    @contextmanager
    def adjudication(self):
        """Root span of one adjudication made by the benchmark loop."""
        self._local.adjudication = next(self._adjudications)
        stack = self._stack()
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, None, ROOT_SPAN, start, end, self._local.adjudication, None))
            self._local.adjudication = None

    def install(self) -> None:
        for module_name, attr, name, extra, starts in WRAPS:
            module = importlib.import_module(f"alarmsentinel.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, extra, starts))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, extra, starts):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra, starts)

        return traced


def cells_required(n: int, m: int, radius: int) -> int:
    """Cells an unpruned DP fills inside the band |i - j| <= radius."""
    r = min(radius, max(n, m))
    return sum(max(0, min(m - 1, i + r) - max(0, i - r) + 1) for i in range(n))


def summarize(spans: list[Span]) -> tuple[dict[str, float], dict[str, bool]]:
    """Per-layer metrics per adjudication, and which of them were observed.

    Times and counts are means per traced adjudication. Self time is a
    span's duration minus the part its child spans cover; the part of
    an adjudication that no span covers is reported as
    ``untraced_share``, so the layer shares and it sum to one.
    """
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def self_time(s: Span) -> float:
        return s.duration - child_time.get(s.id, 0.0)

    def has_ancestor(s: Span, name: str) -> bool:
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    inside = [s for s in spans if s.adjudication is not None]
    # an adjudication lasts from its first top-level span to its last one
    bounds: dict[int, list[float]] = {}
    for s in inside:
        if s.parent is None:
            lo_hi = bounds.setdefault(s.adjudication, [s.start, s.end])
            lo_hi[0] = min(lo_hi[0], s.start)
            lo_hi[1] = max(lo_hi[1], s.end)
    n_adj = len(bounds)
    total = sum(hi - lo for lo, hi in bounds.values())
    per_adj = 1.0 / n_adj if n_adj else 0.0

    named: dict[str, list[Span]] = {}
    for s in inside:
        named.setdefault(s.name, []).append(s)

    def spans_of(*names: str) -> list[Span]:
        return [s for n in names for s in named.get(n, [])]

    metrics: dict[str, float] = {}
    observed: dict[str, bool] = {}

    def put(name: str, value: float, seen: bool) -> None:
        metrics[name] = value if seen else 0.0
        observed[name] = seen

    def put_ms(name: str, *span_names: str) -> None:
        found = spans_of(*span_names)
        put(name, 1e3 * sum(s.duration for s in found) * per_adj, bool(found))

    put_ms("record_io.load_ms", "record_io.load_record")
    resample = spans_of("record_io.resample_half")
    put("record_io.resample_calls", len(resample) * per_adj, bool(resample))
    put("record_io.samples_resampled", sum(s.extra for s in resample) * per_adj, bool(resample))

    put_ms("signal_quality.validity_ms", "signal_quality.assess_quality")
    clean = spans_of("signal_quality.clean_window_metrics")
    put("signal_quality.clean_metrics_calls", len(clean) * per_adj, bool(clean))

    put_ms("beats.detect_ms", "beats.detect_qrs", "beats.detect_pulses")
    detect = spans_of("beats.detect_qrs", "beats.detect_pulses")
    put("beats.samples_scanned", sum(s.extra for s in detect) * per_adj, bool(detect))
    put_ms("beats.spectral_label_ms", "beats.classify_beat_spectral")

    put_ms("alarm_logic.gate_ms", "alarm_logic.regular_activity")
    check = spans_of("alarm_logic.classify_alarm")
    put("alarm_logic.check_ms", 1e3 * sum(self_time(s) for s in check) * per_adj, bool(check))

    put_ms("beat_banks.self_bank_ms", "beat_banks.extract_self_bank")
    put_ms("beat_banks.novelty_stats_ms", "beat_banks.bank_novelty_stats")
    put_ms("beat_banks.label_ms", "beat_banks.vt_labels_from_bank")
    warps = spans_of("dtw.dtw_distance")
    for name, caller in (("novelty_pairs", "bank_novelty_stats"), ("beat_pairs", "vt_labels_from_bank")):
        pairs = sum(1 for s in warps if has_ancestor(s, f"beat_banks.{caller}"))
        put(f"beat_banks.{name}", pairs * per_adj, bool(spans_of(f"beat_banks.{caller}")))

    put_ms("dtw.nn_ms", "dtw.classify_full_signal")
    builds = [s for s in spans if s.name == "dtw.corpus_from_records"]  # set-up, outside adjudications
    put("dtw.corpus_build_ms", 1e3 * sum(s.duration for s in builds), bool(builds))
    cells = sum(cells_required(*s.extra) for s in warps)
    put("dtw.cells_required", cells * per_adj, bool(warps))
    busy_ns = 1e9 * sum(s.duration for s in warps)
    put("dtw.ns_per_cell", busy_ns / cells if cells else 0.0, cells > 0)

    evaluate = [s for s in spans if s.name == "cli.main"]
    put("cli.evaluate_s", statistics.fmean(s.duration for s in evaluate) if evaluate else 0.0, bool(evaluate))

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in inside:
        layer = s.name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += self_time(s)
    for layer in LAYERS:
        share = layer_self[layer] / total if total else 0.0
        put(f"{layer}.self_share", share, any(s.name.startswith(layer + ".") for s in inside))
    covered = sum(layer_self.values())
    put("untraced_share", (total - covered) / total if total else 0.0, n_adj > 0)
    put("trace.adjudications", float(n_adj), n_adj > 0)
    put("trace.adjudication_ms", 1e3 * total * per_adj, n_adj > 0)
    return metrics, observed
