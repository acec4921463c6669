from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import periodogram

from alarmsentinel import alarm_logic, beat_banks
from alarmsentinel.alarm_logic import (
    DETECT_WARMUP_S,
    METHODS,
    AlarmContext,
    Thresholds,
    _ecg_vote,
    _longest_gap_samples,
    _vf_windows,
    _vfib_detail,
    check_asystole,
    check_bradycardia,
    check_tachycardia,
    check_vfib,
    check_vtach,
    classify_alarm,
    detect_annotations,
    detection_start,
    most_reliable_channel,
    regular_activity,
    spectral_vt_labels,
)
from alarmsentinel.beats import BeatLabel, detect_pulses, detect_qrs, within
from alarmsentinel.beat_banks import SECTION_S
from alarmsentinel.dtw import MATCH_RATE_HZ, CorpusEntry, corpus_from_records
from alarmsentinel.errors import (
    CannotDecide,
    EmptyBank,
    EmptyCorpus,
    FailSafe,
    IndexOutOfBounds,
    InsufficientData,
    InvalidConfig,
    LengthMismatch,
    MalformedAnnotation,
    NonFiniteSample,
    UnknownArrhythmia,
    UnsupportedMethod,
)
from alarmsentinel.record_io import AlarmMeta, Arrhythmia, ChannelMeta, Record, channel_kind
from alarmsentinel.signal_quality import QualityReport, _density, clean_window_metrics
from alarmsentinel.synthkit import SynthSpec, generate, surrogate_banks


def make_record(channels=("II",), fs=250.0, n=4000, arrhythmia=Arrhythmia.VTACH, is_true=True):
    metas = [ChannelMeta(name, channel_kind(name), "mV", 200.0, 0, "") for name in channels]
    samples = np.zeros((len(metas), n))
    return Record("fab", fs, metas, samples, AlarmMeta(arrhythmia, is_true, n))


def clean_quality(record, window=None, validity=None):
    """A report without invalid samples over ``window`` (the whole record
    by default)."""
    v = list(validity) if validity is not None else [1.0] * record.n_channels
    return QualityReport(window=window or (0, record.n_samples), validity=v)


def ann(indices):
    return np.asarray(indices, dtype=np.int64)


def context(record, annotations, quality=None, window=(0, 4000)):
    """Check inputs over ``quality``'s window, or over a clean report of
    ``window`` when no report is given."""
    return AlarmContext(record, annotations, quality or clean_quality(record, window))


def fired(evidence):
    (only,) = evidence
    return only.outcome


def cannot_decide(check, ctx):
    """The note a check raises when it cannot be evaluated."""
    with pytest.raises(CannotDecide) as exc:
        check(ctx)
    return exc.value.note


def gate_outcomes(record, annotations, quality):
    evidence, gate = regular_activity(record, annotations, quality, Thresholds())
    return [e.outcome for e in evidence], gate


class TestConfigHandling:
    def test_update_casts_to_field_types(self):
        cfg = Thresholds().update({"tachy_beats": "20", "vt_abp_std": "5.5"})
        assert cfg.tachy_beats == 20 and isinstance(cfg.tachy_beats, int)
        assert cfg.vt_abp_std == 5.5

    def test_update_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            Thresholds().update({"asystole_gap": 2.0})

    def test_from_file(self, tmp_path):
        p = tmp_path / "thresholds.cfg"
        p.write_text("# comment\nbrady_hr = 50\n\nvf_concentration = 0.7  # inline\n")
        cfg = Thresholds.from_file(p)
        assert cfg.brady_hr == 50.0
        assert cfg.vf_concentration == 0.7
        assert cfg.tachy_hr == 140.0  # untouched default

    def test_from_file_rejects_bad_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("brady_hr 50\n")
        with pytest.raises(ValueError, match="expected 'key = value'"):
            Thresholds.from_file(p)

    def test_from_file_rejects_a_repeated_key(self, tmp_path):
        # the last value used to win silently
        p = tmp_path / "twice.cfg"
        p.write_text("brady_hr = 40\n# slower\nbrady_hr = 50\n")
        with pytest.raises(InvalidConfig, match="config line 3: key 'brady_hr' is set twice"):
            Thresholds.from_file(p)

    def test_non_numeric_value_rejected(self):
        with pytest.raises(InvalidConfig, match="brady_hr"):
            Thresholds().update({"brady_hr": "slow"})
        with pytest.raises(InvalidConfig, match="vt_beats"):
            Thresholds().update({"vt_beats": "4.5"})

    def test_rate_windows_need_two_beats(self, tmp_path):
        with pytest.raises(InvalidConfig, match="brady_beats"):
            Thresholds(brady_beats=1)
        with pytest.raises(InvalidConfig, match="tachy_beats"):
            Thresholds().update({"tachy_beats": "1"})
        p = tmp_path / "one_beat.cfg"
        p.write_text("vt_beats = 0\n")
        with pytest.raises(InvalidConfig, match="vt_beats"):
            Thresholds.from_file(p)
        assert Thresholds(brady_beats=2).brady_beats == 2

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # an empty 9-8 Hz band, and a band of one frequency
            ({"vf_dominant_lo_hz": 9.0}, "vf_dominant_lo_hz must be below vf_dominant_hi_hz, got 9.0 and 8.0"),
            ({"vf_dominant_lo_hz": 8.0}, "vf_dominant_lo_hz must be below vf_dominant_hi_hz, got 8.0 and 8.0"),
            ({"vf_dominant_hi_hz": 1.5}, "vf_dominant_lo_hz must be below vf_dominant_hi_hz, got 2.0 and 1.5"),
            ({"vf_concentration": 1.5}, "vf_concentration is a share of power, at most 1, got 1.5"),
            ({"brady_hr": 0.0}, "brady_hr must be above 0, got 0.0"),
            ({"brady_hr": -5.0}, "brady_hr must be above 0, got -5.0"),
            # no beat-free stretch is longer than the window it lies in
            ({"asystole_gap_s": 17.0}, r"asystole_gap_s must be at most analysis_window_s \(16.0\), got 17.0"),
            ({"analysis_window_s": 2.0}, r"asystole_gap_s must be at most analysis_window_s \(2.0\), got 3.0"),
            # a VF band wholly outside the 0.5-30 Hz band the spectrum is searched in
            (
                {"vf_dominant_lo_hz": 31.0, "vf_dominant_hi_hz": 40.0},
                "vf_dominant_lo_hz leaves the VF band outside the 0.5-30.0 Hz search band, got 31.0",
            ),
            (
                {"vf_dominant_lo_hz": 0.1, "vf_dominant_hi_hz": 0.4},
                "vf_dominant_hi_hz leaves the VF band outside the 0.5-30.0 Hz search band, got 0.4",
            ),
            # no spread is below 0, so the pressure vote could never fire
            ({"vt_abp_std": 0.0}, "vt_abp_std must be above 0, got 0.0"),
            ({"vt_abp_std": -1.0}, "vt_abp_std must be above 0, got -1.0"),
        ],
    )
    def test_a_check_that_can_never_fire_is_rejected(self, overrides, message):
        # each of these turned true synthkit alarms false (seed 5 under improved for
        # the first rows; the VF bands on VF seeds 0-4, vt_abp_std on VT seeds 0-5)
        with pytest.raises(InvalidConfig, match=message):
            Thresholds(**overrides)
        with pytest.raises(InvalidConfig, match=message):
            Thresholds().update({key: str(value) for key, value in overrides.items()})

    def test_the_edges_of_the_firing_range_are_accepted(self):
        cfg = Thresholds(vf_dominant_lo_hz=7.5, vf_concentration=1.0, brady_hr=1.0, asystole_gap_s=16.0)
        assert (cfg.vf_dominant_lo_hz, cfg.vf_concentration, cfg.brady_hr, cfg.asystole_gap_s) == (7.5, 1.0, 1.0, 16.0)
        assert Thresholds(analysis_window_s=3.0).asystole_gap_s == 3.0
        assert Thresholds(vf_dominant_lo_hz=0.1, vf_dominant_hi_hz=0.5).vf_dominant_hi_hz == 0.5
        assert Thresholds(vf_dominant_lo_hz=30.0, vf_dominant_hi_hz=40.0).vf_dominant_lo_hz == 30.0
        assert Thresholds(vt_abp_std=1e-9).vt_abp_std == 1e-9

    @pytest.mark.parametrize("name", [f.name for f in fields(Thresholds) if isinstance(f.default, float)])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_rejected(self, name, value):
        # a NaN threshold kept none of the true bradycardia alarms of the seed-7 suite
        with pytest.raises(InvalidConfig, match=name):
            Thresholds().update({name: value})
        with pytest.raises(InvalidConfig, match=name):
            Thresholds(**{name: float(value)})


class TestFailSafe:
    def test_cannot_decide_takes_only_a_fail_safe_member(self):
        with pytest.raises(TypeError, match="FailSafe"):
            CannotDecide("vtach_no_votes")

    def test_note_is_the_plain_value(self):
        # verdict JSON and CLI messages print the value, never ``FailSafe.VTACH_NO_VOTES``
        exc = CannotDecide(FailSafe.VTACH_NO_VOTES, beats=2.0)
        assert type(exc.note) is str and exc.note == str(exc) == "vtach_no_votes"
        assert exc.witnesses == {"beats": 2.0}


class TestMostReliableChannel:
    def test_validity_beats_kind(self):
        rec = make_record(("ABP", "II"))
        q = clean_quality(rec, validity=[1.0, 0.5])
        assert most_reliable_channel(rec, q, [0, 1]) == 0

    def test_tie_prefers_lead_ii_then_ecg_then_pressure(self):
        rec = make_record(("PLETH", "ABP", "V", "II"))
        q = clean_quality(rec)
        assert most_reliable_channel(rec, q, [0, 1, 2, 3]) == 3  # II
        assert most_reliable_channel(rec, q, [0, 1, 2]) == 2  # other ECG
        assert most_reliable_channel(rec, q, [0, 1]) == 1  # ABP over PPG

    def test_empty_pool(self):
        rec = make_record()
        assert most_reliable_channel(rec, clean_quality(rec), []) is None


class TestRegularActivity:
    def setup_case(self, indices, fs=250.0, validity=1.0):
        """A report over the record's 16 s analysis window, as
        classify_alarm builds it, with ``validity`` on the one channel."""
        rec = make_record(fs=fs)
        window = (rec.n_samples - int(16.0 * fs), rec.n_samples)
        return rec, [ann(indices)], clean_quality(rec, window, validity=[validity])

    def test_steady_rhythm_is_regular(self):
        rec, anns, q = self.setup_case(np.arange(100, 4000, 200))
        per_channel, gate = gate_outcomes(rec, anns, q)
        assert per_channel == [True]
        assert gate is True

    def test_too_few_beats(self):
        rec, anns, q = self.setup_case([100, 300, 500, 700])
        assert gate_outcomes(rec, anns, q) == ([False], False)

    def test_rr_bounds_are_inclusive(self):
        # 0.43 s and 1.5 s are exact sample counts at 200 Hz
        fast = np.arange(0, 4000, 86)
        rec, anns, q = self.setup_case(fast, fs=200.0)
        assert gate_outcomes(rec, anns, q)[1] is True
        slow = np.arange(0, 4000, 300)
        rec, anns, q = self.setup_case(slow, fs=200.0)
        assert gate_outcomes(rec, anns, q)[1] is True

    def test_rr_outside_bounds(self):
        short = np.arange(0, 4000, 85)  # 0.425 s at 200 Hz
        rec, anns, q = self.setup_case(short, fs=200.0)
        assert gate_outcomes(rec, anns, q)[1] is False
        long = np.arange(0, 4000, 301)
        rec, anns, q = self.setup_case(long, fs=200.0)
        assert gate_outcomes(rec, anns, q)[1] is False

    def test_high_rr_spread(self):
        idx = np.cumsum([100] + [125, 275] * 8)  # alternating 0.5 s / 1.1 s
        rec, anns, q = self.setup_case(idx)
        assert gate_outcomes(rec, anns, q)[1] is False

    def test_any_invalid_sample_disqualifies(self):
        idx = np.arange(100, 4000, 200)
        rec, anns, q = self.setup_case(idx, validity=1.0 - 1 / 4000)  # one invalid sample in the window
        assert gate_outcomes(rec, anns, q)[1] is False

    def test_missing_annotation_is_not_regular(self):
        rec = make_record()
        assert gate_outcomes(rec, [None], clean_quality(rec)) == ([False], False)

    def test_gate_is_any_channel(self):
        rec = make_record(("II", "ABP"))
        q = clean_quality(rec)
        anns = [None, ann(np.arange(100, 4000, 200))]
        per_channel, gate = gate_outcomes(rec, anns, q)
        assert per_channel == [False, True]
        assert gate is True


def asystole_fires(annotation, window):
    rec = make_record(arrhythmia=Arrhythmia.ASYSTOLE)
    return fired(check_asystole(context(rec, [annotation], window=window)))


class TestAsystole:
    def test_empty_window_fires(self):
        assert asystole_fires(ann([]), (0, 1000)) is True

    def test_gap_threshold_is_inclusive(self):
        # interior gap of exactly 3 s (750 samples at 250 Hz)
        fires = ann([5, 756, 1500, 1900])
        assert asystole_fires(fires, (0, 2000)) is True
        holds = ann([5, 755, 1499, 1900])
        assert asystole_fires(holds, (0, 2000)) is False

    def test_leading_and_trailing_spans_count(self):
        assert asystole_fires(ann([900, 1000]), (0, 2000)) is True  # 900 leading
        assert asystole_fires(ann([100, 900]), (0, 2000)) is True  # 1099 trailing

    def test_beats_outside_window_are_ignored(self):
        a = ann([5, 755, 1499, 1900, 5000])
        assert asystole_fires(a, (0, 2000)) is False

    def test_no_annotated_channel_cannot_decide(self):
        rec = make_record(arrhythmia=Arrhythmia.ASYSTOLE)
        assert cannot_decide(check_asystole, context(rec, [None])) == "asystole_no_channel"


@st.composite
def gap_windows(draw):
    """A window of up to a few thousand samples, and strictly increasing
    beats around it: none to many, some of them outside."""
    start = draw(st.integers(0, 2000))
    end = start + draw(st.integers(1, 3000))
    beats = draw(st.lists(st.integers(max(0, start - 300), end + 300), max_size=400, unique=True))
    return np.array(sorted(beats), dtype=np.int64), (start, end)


def longest_gap_scan(beats, window):
    """The longest run of beat-free samples, from a boolean beat mask."""
    start, end = window
    mask = np.zeros(end - start, dtype=bool)
    mask[[b - start for b in beats if start <= b < end]] = True
    longest = run = 0
    for beat in mask:
        run = 0 if beat else run + 1
        longest = max(longest, run)
    return longest


@given(gap_windows())
@example((np.array([], dtype=np.int64), (0, 1)))
@example((np.array([0, 1, 2]), (0, 3)))
@example((np.array([5, 9]), (5, 10)))
@settings(max_examples=200, deadline=None)
def test_longest_gap_matches_the_scan(case):
    beats, window = case
    assert _longest_gap_samples(ann(beats), window) == longest_gap_scan(beats, window)


class TestRateExtremes:
    def test_brady_threshold_is_strict(self):
        rec = make_record(arrhythmia=Arrhythmia.BRADYCARDIA)
        q = clean_quality(rec)
        at_45 = [ann([0, 333, 666, 1000])]  # 4 beats over 4.0 s -> exactly 45 bpm
        assert fired(check_bradycardia(context(rec, at_45, q))) is False
        under = [ann([0, 333, 666, 1001])]
        assert fired(check_bradycardia(context(rec, under, q))) is True

    def test_brady_finds_slow_stretch_in_fast_rhythm(self):
        rec = make_record(arrhythmia=Arrhythmia.BRADYCARDIA)
        idx = [0, 100, 200, 1300, 1400, 1500, 1600, 1700]
        assert fired(check_bradycardia(context(rec, [ann(idx)]))) is True

    def test_too_few_beats_fails_safe(self):
        rec = make_record(arrhythmia=Arrhythmia.BRADYCARDIA)
        assert fired(check_bradycardia(context(rec, [ann([0, 300, 600])]))) is True
        assert cannot_decide(check_bradycardia, context(rec, [None])) == "bradycardia_hr"

    def test_tachy_rate_rule(self):
        rec = make_record(arrhythmia=Arrhythmia.TACHYCARDIA)
        q = clean_quality(rec)
        fast = [ann(np.arange(0, 1700, 100))]  # 17 beats at 150 bpm
        assert fired(check_tachycardia(context(rec, fast, q))) is True
        slower = [ann(np.arange(0, 1870, 110))]  # 136 bpm
        assert fired(check_tachycardia(context(rec, slower, q))) is False
        few = [ann(np.arange(0, 1600, 100))]  # 16 beats
        assert fired(check_tachycardia(context(rec, few, q))) is True

    def test_rate_reads_most_reliable_channel(self):
        rec = make_record(("II", "ABP"), arrhythmia=Arrhythmia.BRADYCARDIA)
        q = clean_quality(rec, validity=[0.5, 1.0])
        anns = [ann([0, 500, 1000, 1500]), ann(np.arange(0, 4000, 200))]
        # lead II alone would fire at 30 bpm; the cleaner pressure channel wins
        assert fired(check_bradycardia(context(rec, anns, q))) is False


class TestVfib:
    fs = 250.0

    def tone(self, freq, seconds=16.0, amp=1.0):
        t = np.arange(int(seconds * self.fs)) / self.fs
        return amp * np.sin(2 * np.pi * freq * t)

    def context(self, samples):
        rec = make_record(n=len(samples), arrhythmia=Arrhythmia.VFIB)
        rec.samples[0] = samples
        return context(rec, [None], window=(0, len(samples)))

    def fires(self, samples):
        return fired(check_vfib(self.context(samples)))

    def test_sustained_low_frequency_fires(self):
        assert self.fires(self.tone(5.0)) is True

    def test_high_dominant_frequency_does_not(self):
        assert self.fires(self.tone(10.0)) is False

    def test_burst_inside_other_activity(self):
        x = self.tone(15.0)
        t = np.arange(len(x)) / self.fs
        burst = (t >= 7.0) & (t < 12.0)
        x[burst] += 2.0 * np.sin(2 * np.pi * 5.0 * t[burst])
        assert self.fires(x) is True

    def test_split_power_is_not_concentrated(self):
        x = self.tone(5.0) + self.tone(15.0)
        assert self.fires(x) is False

    def test_gap_blocks_are_skipped(self):
        x = self.tone(5.0)
        x[:500] = np.nan
        assert self.fires(x) is True
        assert self.fires(np.full(4000, np.nan)) is False

    def test_window_too_short(self):
        ctx = self.context(self.tone(5.0, seconds=2.0))
        assert cannot_decide(check_vfib, ctx) == "vfib_window_too_short"


def vfib_detail_loop(samples, fs, config):
    """The window-by-window VF rule the batched one replaces, kept as an
    oracle; also returns each window's flag."""
    n = len(samples)
    win = int(round(2.0 * fs))
    hop = int(round(0.5 * fs))
    qualifying = []
    for s in range(0, n - win + 1, hop):
        block = samples[s : s + win]
        if np.isnan(block).any():
            qualifying.append(False)
            continue
        f, psd = periodogram(block, fs=fs, detrend="constant", nfft=max(1024, win))
        band = (f >= 0.5) & (f <= 30.0)
        total = float(psd[band].sum())
        if total <= 0.0:
            qualifying.append(False)
            continue
        f_band = f[band]
        p_band = psd[band]
        f_dom = float(f_band[np.argmax(p_band)])
        around = (f_band >= max(0.5, f_dom - 1.0)) & (f_band <= f_dom + 1.0)
        concentrated = float(p_band[around].sum()) / total
        qualifying.append(
            config.vf_dominant_lo_hz <= f_dom <= config.vf_dominant_hi_hz
            and concentrated >= config.vf_concentration
        )
    best_span = 0.0
    run = 0
    for q in qualifying:
        run = run + 1 if q else 0
        if run:
            best_span = max(best_span, (run - 1) * (hop / fs) + (win / fs))
    return best_span >= config.vf_min_duration_s, {"sustained_s": best_span}, qualifying


@st.composite
def vf_signals(draw):
    """An ECG stretch pieced together from tones around the 2-8 Hz band,
    white noise, flat stretches and gaps."""
    fs = draw(st.sampled_from([125.0, 250.0]))
    pieces = draw(st.lists(
        st.tuples(
            st.sampled_from(["tone", "tone", "noise", "flat", "gap"]),
            st.integers(1, 1500),
            st.floats(0.5, 20.0),
            st.floats(1e-3, 5.0),
        ),
        min_size=1, max_size=6,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for kind, n, freq, amp in pieces:
        if kind == "tone":
            parts.append(amp * np.sin(2 * np.pi * freq * np.arange(n) / fs) + rng.normal(0.0, 0.05 * amp, n))
        elif kind == "noise":
            parts.append(rng.normal(0.0, amp, n))
        elif kind == "flat":
            parts.append(np.full(n, amp))
        else:
            parts.append(np.full(n, np.nan))
    return np.concatenate(parts), fs


def gap_in_every_window(fs=250.0):
    x = 2.0 * np.sin(2 * np.pi * 5.0 * np.arange(4000) / fs)
    x[::400] = np.nan
    return x, fs


class TestVfibMatchesTheLoop:
    @given(vf_signals())
    @example(gap_in_every_window())
    @example((np.full(3000, np.nan), 250.0))
    @example((np.ones(499), 250.0))
    @settings(max_examples=150, deadline=None)
    def test_vfib_detail(self, signal):
        x, fs = signal
        config = Thresholds()
        with mock.patch.object(alarm_logic, "_density", wraps=_density) as spectrum:
            got = _vfib_detail(x, fs, config)
        fired_, witnesses, flags = vfib_detail_loop(x, fs, config)
        assert got == (fired_, witnesses)
        # one spectrum call per channel, and a window with a gap never reaches it
        assert spectrum.call_count <= 1
        for call in spectrum.call_args_list:
            assert not np.isnan(call.args[0]).any()
        win, hop = int(round(2.0 * fs)), int(round(0.5 * fs))
        windows = [x[s : s + win] for s in range(0, len(x) - win + 1, hop)]
        whole = [i for i, w in enumerate(windows) if not np.isnan(w).any()]
        if whole:
            batched = _vf_windows(np.array([windows[i] for i in whole]), fs, config)
            assert batched.tolist() == [flags[i] for i in whole]

    def test_sustained_tone_fires_in_both(self):
        x, fs = gap_in_every_window()
        x = np.nan_to_num(x, nan=0.0)
        assert _vfib_detail(x, fs, Thresholds()) == vfib_detail_loop(x, fs, Thresholds())[:2]
        assert _vfib_detail(x, fs, Thresholds())[0] is True


class TestVtach:
    def run_vote(self, indices, pattern):
        """The ECG vote on beats carrying the given N/V labels."""
        labels = [BeatLabel.VENTRICULAR if c == "V" else BeatLabel.NORMAL for c in pattern]
        return fired(_ecg_vote("II", ann(indices), labels, 250.0, Thresholds()))

    def test_fast_run_fires(self):
        idx = np.arange(0, 875, 125)  # RR 0.5 s -> 4-beat windows at 120 bpm
        assert self.run_vote(idx, "NVVVVNN") is True

    def test_short_run_does_not(self):
        assert self.run_vote(np.arange(0, 875, 125), "NVVVNNN") is False

    def test_slow_run_does_not(self):
        idx = np.arange(0, 1575, 225)  # RR 0.9 s -> 66.7 bpm
        assert self.run_vote(idx, "VVVVVVV") is False

    def test_unlabeled_ecg_abstains(self):
        # two beats are too few to label, and no other channel votes
        rec = make_record()
        assert cannot_decide(check_vtach, context(rec, [ann([100, 400])])) == "vtach_no_votes"

    def test_collapsed_pressure_fires(self):
        rec = make_record(("ABP",))
        rec.samples[0] = 80.0  # std 0 < 6
        assert fired(check_vtach(context(rec, [None]))) is True

    def test_pulsatile_pressure_does_not(self):
        rec = make_record(("ABP",))
        t = np.arange(4000) / 250.0
        rec.samples[0] = 80.0 + 20.0 * np.sin(2 * np.pi * 1.2 * t)
        assert fired(check_vtach(context(rec, [None]))) is False

    def test_pressure_with_gaps_abstains(self):
        # the only channel abstains, so the check cannot decide
        rec = make_record(("ABP",))
        rec.samples[0] = 80.0
        rec.samples[0, 100] = np.nan
        assert cannot_decide(check_vtach, context(rec, [None])) == "vtach_no_votes"


def test_only_an_ecg_bank_lead_votes():
    """A bank method labels the beats of a pressure lead too, but only an
    ECG lead votes."""
    record = generate(SynthSpec(name="vt", arrhythmia=Arrhythmia.VTACH, event=True, seed=560))[0]
    start = record.alarm.alarm_index - int(round(6.0 * record.sample_rate))
    # a NaN burst keeps the regular-activity gate off
    record.samples[:, start : start + int(round(0.8 * record.sample_rate))] = np.nan
    for lead, check in (("ABP", ("", "vtach_no_votes")), ("II", ("II", "vtach_ecg"))):
        verdict = classify_alarm(record, "dtw-vbank", banks=surrogate_banks(0), lead=lead)
        assert verdict.gate_fired is False
        assert [(e.channel, e.test) for e in verdict.evidence[record.n_channels:]] == [check]


class TestSpectralVtLabelsIntegration:
    def test_wide_run_labelled_ventricular(self):
        spec = SynthSpec(name="vt", arrhythmia=Arrhythmia.VTACH, event=True, seed=91)
        rec, truth = generate(spec)
        a = detect_qrs(rec.samples[0], rec.sample_rate)
        window = (rec.n_samples - 4000, rec.n_samples)
        beats_in = within(a, *window)
        labels = spectral_vt_labels(rec.samples[0], rec.sample_rate, beats_in)
        assert len(labels) == len(beats_in)
        assert labels.count(BeatLabel.VENTRICULAR) >= 4

    def test_sinus_record_has_no_ventricular_labels(self, sinus_record):
        rec = sinus_record
        a = detect_qrs(rec.samples[0], rec.sample_rate)
        window = (rec.n_samples - 4000, rec.n_samples)
        assert BeatLabel.VENTRICULAR not in spectral_vt_labels(rec.samples[0], rec.sample_rate, within(a, *window))

    def test_gap_slice_is_unknown(self, sinus_record):
        rec = sinus_record
        rec = Record(rec.name, rec.sample_rate, rec.channels, rec.samples.copy(), rec.alarm)
        a = detect_qrs(rec.samples[0], rec.sample_rate)
        window = (rec.n_samples - 4000, rec.n_samples)
        beats_in = within(a, *window)
        mid = int(beats_in[len(beats_in) // 2])
        rec.samples[0, mid - 2 : mid + 2] = np.nan
        assert BeatLabel.UNKNOWN in spectral_vt_labels(rec.samples[0], rec.sample_rate, beats_in)


class TestDetectAnnotations:
    def test_channel_kinds(self):
        rec = make_record(("II", "RESP"))
        t = np.arange(4000) / 250.0
        rec.samples[0] = np.sin(2 * np.pi * 1.0 * t)
        anns = detect_annotations(rec)
        assert anns[0] is not None
        assert anns[1] is None

    def test_suite_record_gets_all_pulse_channels(self, sinus_record):
        rec = sinus_record
        anns = detect_annotations(rec)
        assert all(a is not None for a in anns)


class TestClassifyAlarm:
    def per_class(self, suite, expected_true):
        picked = {}
        for spec, rec, truth in suite:
            if truth.expected_true is expected_true and spec.arrhythmia not in picked:
                picked[spec.arrhythmia] = rec
        return picked

    def test_gate_dismisses_false_alarms(self, suite):
        for arrhythmia, rec in self.per_class(suite, expected_true=False).items():
            verdict = classify_alarm(rec, "improved")
            assert verdict.is_true_alarm is False, arrhythmia
            assert verdict.gate_fired is True

    def test_true_alarms_confirmed(self, suite):
        for arrhythmia, rec in self.per_class(suite, expected_true=True).items():
            verdict = classify_alarm(rec, "improved")
            assert verdict.is_true_alarm is True, arrhythmia
            assert verdict.gate_fired is False

    def test_baseline_suppresses_on_conflicting_votes(self, vt_suite):
        rec = next(r for _, r, t in vt_suite if t.expected_true)
        improved = classify_alarm(rec, "improved")
        baseline = classify_alarm(rec, "baseline")
        assert improved.is_true_alarm is True
        assert baseline.is_true_alarm is False
        ecg = [e for e in baseline.evidence if e.test == "vtach_ecg"]
        abp = [e for e in baseline.evidence if e.test == "vtach_abp"]
        assert any(e.outcome for e in ecg)
        assert abp and not any(e.outcome for e in abp)

    def test_dtw_methods_on_true_vt(self, vt_suite, banks):
        corpus = corpus_from_records(
            [(r, t.expected_true) for _, r, t in vt_suite[:4]]
        )
        rec = next(r for _, r, t in vt_suite if t.expected_true)
        for method in ("dtw-vbank", "dtw-self-min", "dtw-self-kl"):
            verdict = classify_alarm(rec, method, banks=banks)
            assert verdict.is_true_alarm is True, method
        verdict = classify_alarm(rec, "dtw-full", corpus=corpus)
        assert verdict.method == "dtw-full"
        assert any(e.test == "nearest_neighbor" for e in verdict.evidence)

    def test_dtw_gate_still_dismisses(self, vt_suite, banks):
        rec = next(r for _, r, t in vt_suite if not t.expected_true)
        verdict = classify_alarm(rec, "dtw-vbank", banks=banks)
        assert verdict.is_true_alarm is False
        assert verdict.gate_fired is True

    def test_unknown_method(self, sinus_record):
        with pytest.raises(UnsupportedMethod):
            classify_alarm(sinus_record, "psychic")

    def test_dtw_restricted_to_vt_alarms(self, suite):
        rec = next(r for s, r, _ in suite if s.arrhythmia is Arrhythmia.ASYSTOLE)
        with pytest.raises(UnsupportedMethod):
            classify_alarm(rec, "dtw-full")

    def test_untagged_record_rejected(self):
        spec = SynthSpec(name="x", arrhythmia=Arrhythmia.VTACH, event=True, seed=3)
        rec, _ = generate(spec)
        rec.alarm = AlarmMeta(None, True, rec.n_samples)
        with pytest.raises(UnknownArrhythmia):
            classify_alarm(rec, "improved")

    def test_empty_analysis_window_rejected(self):
        rec = make_record(arrhythmia=Arrhythmia.BRADYCARDIA)
        rec.alarm = AlarmMeta(Arrhythmia.BRADYCARDIA, True, 0)
        with pytest.raises(InsufficientData, match="analysis window"):
            classify_alarm(rec, "improved")

    def test_dtw_full_needs_corpus(self, vt_suite):
        rec = next(r for _, r, t in vt_suite if t.expected_true)
        with pytest.raises(EmptyCorpus):
            classify_alarm(rec, "dtw-full")

    def test_vbank_needs_banks_whatever_the_beats(self, vt_suite, banks):
        # the banks are bound before the window's beats are segmented, so
        # two beats in the window do not turn a missing bank into a note
        rec = next(r for _, r, t in vt_suite if t.expected_true)
        start = rec.alarm.alarm_index - int(Thresholds().analysis_window_s * rec.sample_rate)
        lead = detect_annotations(rec)[0]
        annotations = {0: np.concatenate([lead[lead < start], [start + 10, start + 400]])}
        verdict = classify_alarm(rec, "dtw-vbank", banks=banks, annotations=annotations)
        assert verdict.evidence[-1].to_dict() == {
            "channel": "", "test": "vtach_too_few_beats", "outcome": True, "witnesses": {"beats": 2.0},
        }
        for empty in (None, type(banks)()):
            with pytest.raises(EmptyBank):
                classify_alarm(rec, "dtw-vbank", banks=empty, annotations=annotations)


    def test_fail_safe_without_ecg(self, suite):
        rec = next(
            r for s, r, t in suite
            if s.arrhythmia is Arrhythmia.VFIB and t.expected_true
        )
        pressure_only = Record(
            rec.name,
            rec.sample_rate,
            rec.channels[2:],
            rec.samples[2:],
            rec.alarm,
        )
        verdict = classify_alarm(pressure_only, "improved")
        assert verdict.is_true_alarm is True
        assert any(e.test == "vfib_no_ecg" for e in verdict.evidence)

    def test_short_vfib_window_fails_safe(self):
        rec, _ = generate(SynthSpec(name="vf", arrhythmia=Arrhythmia.VFIB, event=False, seed=4))
        rec.alarm = AlarmMeta(Arrhythmia.VFIB, False, int(2.5 * rec.sample_rate))
        verdict = classify_alarm(rec, "improved")
        assert verdict.is_true_alarm is True
        assert verdict.evidence[-1].to_dict() == {
            "channel": "", "test": "vfib_window_too_short", "outcome": True, "witnesses": {"window_s": 2.5},
        }

    def test_verdict_serialization(self, sinus_record):
        verdict = classify_alarm(sinus_record, "improved")
        d = verdict.to_dict()
        assert d["decision"] == "false_alarm"
        assert d["gate_fired"] is True
        assert d["method"] == "improved"
        assert all(set(e) == {"channel", "test", "outcome", "witnesses"} for e in d["evidence"])
        gate_rows = [e for e in d["evidence"] if e["test"] == "regular_activity"]
        assert len(gate_rows) == sinus_record.n_channels


class TestSuppliedAnnotations:
    """Supplied annotations map a channel to its beat positions (None
    for none), for every stage alike; the channels without a key are
    detected."""

    @pytest.fixture(scope="class")
    def asystole(self):
        record, _ = generate(SynthSpec(name="asys", arrhythmia=Arrhythmia.ASYSTOLE, event=True, seed=11))
        return record, dict(enumerate(detect_annotations(record)))

    @pytest.mark.parametrize("key", [4, -1, "0"], ids=["extra", "negative", "text"])
    def test_key_must_name_a_channel(self, asystole, key):
        record, annotations = asystole
        with pytest.raises(LengthMismatch, match=f"annotation key {key!r} is no channel of 4"):
            classify_alarm(record, annotations={**annotations, key: None})

    def test_matching_entries_give_the_detected_verdict(self, asystole):
        record, annotations = asystole
        detected = classify_alarm(record).to_dict()
        assert classify_alarm(record, annotations=annotations).to_dict() == detected
        assert classify_alarm(record, annotations={}).to_dict() == detected
        assert classify_alarm(record, annotations={0: annotations[0]}).to_dict() == detected
        assert classify_alarm(record, annotations=dict.fromkeys(range(record.n_channels))).is_true_alarm is True

    def test_entry_must_strictly_increase(self):
        """Doubled beats on lead II of a true bradycardia alarm halve its
        RR intervals; read as given, they would dismiss the alarm at 56.6 bpm."""
        record, truth = generate(SynthSpec(name="brady", arrhythmia=Arrhythmia.BRADYCARDIA, event=True, seed=3))
        assert truth.expected_true and classify_alarm(record).is_true_alarm is True
        beats = detect_annotations(record)[0]
        doubled = np.sort(np.concatenate([beats, beats]))
        with pytest.raises(MalformedAnnotation, match=r"annotation entry 0 \(II\): beats must strictly increase"):
            classify_alarm(record, annotations={0: doubled})

    def test_only_the_channels_without_a_key_are_detected(self, asystole):
        record, annotations = asystole
        with mock.patch.object(alarm_logic, "detect_qrs", wraps=detect_qrs) as qrs:
            got = detect_annotations(record, {0: annotations[0], 2: None})
        [call] = qrs.call_args_list
        span = record.samples[1, detection_start(record, Thresholds()) :]
        assert np.array_equal(call.args[0], span, equal_nan=True)
        assert got[0] is annotations[0] and got[2] is None
        assert got[1].tolist() == annotations[1].tolist()

    @pytest.mark.parametrize(
        "entry, error",
        [
            (lambda beats, n: beats.tolist(), None),
            (lambda beats, n: np.array([], dtype=np.float64), None),
            (lambda beats, n: beats.astype(np.float64), MalformedAnnotation),
            (lambda beats, n: beats[:, np.newaxis], MalformedAnnotation),
            (lambda beats, n: np.concatenate([[-1], beats]), IndexOutOfBounds),
            (lambda beats, n: np.concatenate([beats, [n]]), IndexOutOfBounds),
        ],
        ids=["list", "empty-float", "float", "2-D", "below-0", "past-the-end"],
    )
    def test_entries_are_checked_where_they_enter(self, asystole, entry, error):
        """A list reads as its array and an empty entry as no beats; a
        float or 2-D entry, or a position outside the record, is refused
        instead of being cast or dropped."""
        record, annotations = asystole
        given = {**annotations, 0: entry(annotations[0], record.n_samples)}
        if error is None:
            as_array = {**annotations, 0: np.asarray(given[0], dtype=np.int64)}
            assert classify_alarm(record, annotations=given).to_dict() == classify_alarm(record, annotations=as_array).to_dict()
        else:
            with pytest.raises(error, match=r"annotation entry 0 \(II\)"):
                classify_alarm(record, annotations=given)


class TestDetectionSpan:
    """The detectors run from DETECT_WARMUP_S before the analysis window
    to the record's end, for every method, and a patient bank reads no
    section before that span. Beats come back in record coordinates."""

    @pytest.fixture(scope="class")
    def true_vt(self):
        return generate(SynthSpec(name="vt", arrhythmia=Arrhythmia.VTACH, event=True, seed=20003))[0]

    @pytest.fixture(scope="class")
    def inputs(self):
        specs = [SynthSpec(f"c{seed}", Arrhythmia.VTACH, event=seed % 2 == 0, seed=seed) for seed in (40000, 40001)]
        corpus = corpus_from_records([(record, truth.expected_true) for record, truth in map(generate, specs)])
        return {"banks": surrogate_banks(seed=0), "corpus": corpus}

    @staticmethod
    def detected_lengths(record, method, **inputs) -> list[int]:
        """The number of samples each detector call saw."""
        with mock.patch.object(alarm_logic, "detect_qrs", wraps=detect_qrs) as qrs, \
                mock.patch.object(alarm_logic, "detect_pulses", wraps=detect_pulses) as pulses:
            classify_alarm(record, method, **inputs)
        return [len(call.args[0]) for call in qrs.call_args_list + pulses.call_args_list]

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_detects_the_span(self, true_vt, inputs, method):
        n, fs = true_vt.n_samples, true_vt.sample_rate
        start = n - int(round(Thresholds().analysis_window_s * fs)) - int(round(DETECT_WARMUP_S * fs))
        assert detection_start(true_vt, Thresholds()) == start
        # II and V through the QRS detector, ABP and PLETH through the pulse detector
        assert self.detected_lengths(true_vt, method, **inputs) == [n - start] * 4

    @pytest.mark.parametrize("method", ["dtw-self-min", "dtw-self-kl"])
    def test_a_failing_self_bank_screens_only_the_sections_in_the_span(self, method):
        """On a noisy 300 s record the bank finds too few clean beats. It
        screens the three 10 s sections between the span's start and the
        window, and none of the 25 older ones, which hold no detected beat."""
        spec = SynthSpec(name="long", arrhythmia=Arrhythmia.VTACH, event=False, seed=546, noise_mv=3.0, duration_s=300.0)
        record = generate(spec)[0]
        with mock.patch.object(beat_banks, "clean_window_metrics", wraps=clean_window_metrics) as screen:
            verdict = classify_alarm(record, method)
        assert verdict.evidence[-1].test == "self_bank_failed" and verdict.is_true_alarm is True
        section = int(SECTION_S * MATCH_RATE_HZ)
        assert [len(call.args[0]) for call in screen.call_args_list] == [section] * 3

    def test_a_record_shorter_than_window_and_warm_up_is_detected_whole(self):
        record, _ = generate(SynthSpec(name="short", arrhythmia=Arrhythmia.VTACH, event=True, seed=5, duration_s=40.0))
        assert record.n_samples < (Thresholds().analysis_window_s + DETECT_WARMUP_S) * record.sample_rate
        assert self.detected_lengths(record, "improved") == [record.n_samples] * 4

    def test_beats_come_back_in_record_coordinates(self, true_vt):
        # a 10 s window ends at the alarm, sample 30000, and the 30 s warm-up starts 7500 samples before it
        config, fs = Thresholds(analysis_window_s=10.0), true_vt.sample_rate
        start = detection_start(true_vt, config)
        assert start == 20000
        found = detect_annotations(true_vt, config=config)
        for i, detect in enumerate([detect_qrs, detect_qrs, detect_pulses, detect_pulses]):
            alone = detect(true_vt.samples[i, start:], fs)
            assert found[i].tolist() == (alone + start).tolist()
            assert found[i].min() >= start


class TestNonFiniteMatchInputs:
    """A NaN in an in-memory bank member or corpus entry raises
    NonFiniteSample instead of dismissing a true VT alarm."""

    @pytest.fixture(scope="class")
    def true_vt(self):
        return generate(SynthSpec(name="vt", arrhythmia=Arrhythmia.VTACH, event=True, seed=20003))[0]

    def test_nan_bank_member(self, true_vt):
        banks = surrogate_banks(seed=0)
        assert classify_alarm(true_vt, "dtw-vbank", banks=banks).is_true_alarm is True
        banks.standard.beats[0] = np.full(60, np.nan)
        with pytest.raises(NonFiniteSample):
            classify_alarm(true_vt, "dtw-vbank", banks=banks)

    def test_nan_corpus_entry(self, true_vt):
        specs = [SynthSpec(f"c{seed}", Arrhythmia.VTACH, event=seed % 2 == 0, seed=seed) for seed in range(40000, 40006)]
        corpus = corpus_from_records([(record, truth.expected_true) for record, truth in map(generate, specs)])
        assert classify_alarm(true_vt, "dtw-full", corpus=corpus).is_true_alarm is True
        corpus.entries.insert(0, CorpusEntry(np.full(1250, np.nan), False))
        with pytest.raises(NonFiniteSample):
            classify_alarm(true_vt, "dtw-full", corpus=corpus)


class TestTooShortForTheResampler:
    """A 12-sample 250 Hz record is shorter than the anti-alias filter's
    edge padding, so no DTW method can bring its lead to 125 Hz."""

    @pytest.fixture(scope="class")
    def tiny(self):
        rng = np.random.default_rng(0)
        rec = make_record(channels=("II", "ABP"), n=12)
        rec.samples[:] = rng.normal(0.0, 0.5, rec.samples.shape)
        return rec

    @pytest.mark.parametrize("method", ["dtw-full", "dtw-vbank", "dtw-self-min", "dtw-self-kl"])
    @pytest.mark.parametrize("with_beats", [False, True])
    def test_every_dtw_method_fails_safe(self, tiny, vt_suite, banks, method, with_beats):
        corpus = corpus_from_records([(r, t.expected_true) for _, r, t in vt_suite[:2]])
        annotations = {0: ann([1, 5, 9]), 1: None} if with_beats else None
        verdict = classify_alarm(tiny, method, banks=banks, corpus=corpus, annotations=annotations)
        assert verdict.is_true_alarm is True and verdict.gate_fired is False
        note = verdict.evidence[-1]
        assert note.channel == "" and note.outcome is True
        if method == "dtw-full":
            assert note.test == "dtw_full_no_signal"
        elif with_beats:
            assert note.to_dict() == {
                "channel": "", "test": "bank_lead_too_short", "outcome": True, "witnesses": {"samples": 12.0},
            }
        else:
            assert note.test == "vtach_no_annotations"
