import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import filtfilt

from alarmsentinel.alarm_logic import Thresholds
from alarmsentinel.beat_banks import load_beat_file
from alarmsentinel.beats import PULSE_LOWPASS_HZ, QRS_BAND_HZ, import_annotations
from alarmsentinel.errors import (
    DuplicateEntry,
    InsufficientData,
    IoFailure,
    LengthMismatch,
    MalformedAnnotation,
    MalformedHeader,
    MalformedRow,
    MissingLead,
    UnknownArrhythmia,
    UnsupportedRate,
)
from alarmsentinel.record_io import (
    COUNT_MAX,
    SENTINEL,
    AlarmMeta,
    Arrhythmia,
    ChannelKind,
    ChannelMeta,
    Manifest,
    ManifestEntry,
    Record,
    butter_filter,
    channel_kind,
    decode_samples,
    encode_samples,
    load_manifest,
    load_record,
    parse_arrhythmia,
    parse_header,
    pre_alarm_window,
    resample_half,
    write_manifest,
    write_record,
    zero_phase,
)

HEADER = """\
v131l 2 250 75000
v131l.dat 16 200 0 mV II
v131l.dat 16 20 0 mmHg ABP
#Ventricular_Tachycardia
#True alarm
"""


def make_record(n=2500, fs=250.0, channels=("II", "ABP"), arrhythmia=Arrhythmia.VTACH):
    rng = np.random.default_rng(3)
    metas = []
    rows = []
    for name in channels:
        kind = channel_kind(name)
        gain = 200.0 if kind is ChannelKind.ECG else 20.0
        metas.append(ChannelMeta(name, kind, "mV" if kind is ChannelKind.ECG else "mmHg", gain, 0))
        rows.append(rng.normal(0.0, 0.5, n))
    return Record("rec0", fs, metas, np.array(rows), AlarmMeta(arrhythmia, True, n))


class TestParseHeader:
    def test_happy_path(self):
        name, rate, n, channels, alarm = parse_header(HEADER)
        assert (name, rate, n) == ("v131l", 250.0, 75000)
        assert [c.name for c in channels] == ["II", "ABP"]
        assert channels[0].kind is ChannelKind.ECG
        assert channels[1].gain == 20.0
        assert alarm.arrhythmia is Arrhythmia.VTACH
        assert alarm.truth is True
        assert alarm.alarm_index == 75000  # defaults to record end

    def test_alarm_position_comment(self):
        text = HEADER + "#ALARM_AT 70000\n"
        *_, alarm = parse_header(text)
        assert alarm.alarm_index == 70000

    def test_extra_free_text_comment_ignored(self):
        *_, alarm = parse_header(HEADER + "#reviewed by two annotators\n")
        assert alarm.arrhythmia is Arrhythmia.VTACH

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda t: t.replace("v131l 2 250 75000", "v131l 2 250"),
            lambda t: t.replace("16 200", "80 200"),
            lambda t: t.replace("16 200 0 mV II", "16 200 0 II"),
            lambda t: t.replace("16 200", "16 0"),
            lambda t: t.replace("v131l 2", "v131l 0"),
            lambda t: t + "#ALARM_AT 80000\n",
            lambda t: t + "#ALARM_AT 0\n",
            lambda t: t + "stray line\n",
        ],
    )
    def test_malformed(self, mutation):
        with pytest.raises(MalformedHeader):
            parse_header(mutation(HEADER))

    def test_unknown_arrhythmia(self):
        with pytest.raises(UnknownArrhythmia):
            parse_header(HEADER.replace("Ventricular_Tachycardia", "Torsades"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_rate_rejected(self, value):
        # float() parses these; a nan rate later failed as a bare ValueError
        with pytest.raises(MalformedHeader, match="sample rate must be finite"):
            parse_header(HEADER.replace("v131l 2 250 75000", f"v131l 2 {value} 75000"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_gain_rejected(self, value):
        # a non-finite gain decoded the whole channel as NaN or -0.0
        with pytest.raises(MalformedHeader, match="signal gain must be finite"):
            parse_header(HEADER.replace("16 20 0 mmHg", f"16 {value} 0 mmHg"))


class TestArrhythmiaNames:
    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("Asystole", Arrhythmia.ASYSTOLE),
            ("Extreme Bradycardia", Arrhythmia.BRADYCARDIA),
            ("extreme_tachycardia", Arrhythmia.TACHYCARDIA),
            ("Ventricular_Tachycardia", Arrhythmia.VTACH),
            ("ventricular  flutter/fib", Arrhythmia.VFIB),
            ("VT", Arrhythmia.VTACH),
        ],
    )
    def test_aliases(self, alias, expected):
        assert parse_arrhythmia(alias) is expected

    def test_unknown(self):
        with pytest.raises(UnknownArrhythmia):
            parse_arrhythmia("sinus of doom")


class TestChannelKind:
    @pytest.mark.parametrize(
        "name,kind",
        [
            ("II", ChannelKind.ECG),
            ("aVF", ChannelKind.ECG),
            ("MCL", ChannelKind.ECG),
            ("V", ChannelKind.ECG),
            ("ABP", ChannelKind.ABP),
            ("ART", ChannelKind.ABP),
            ("PLETH", ChannelKind.PPG),
            ("RESP", ChannelKind.RESP),
            ("SpO2", ChannelKind.OTHER),
        ],
    )
    def test_kinds(self, name, kind):
        assert channel_kind(name) is kind


class TestCodec:
    def test_roundtrip_quantized(self):
        rec = make_record()
        raw = encode_samples(rec.samples, rec.channels)
        back = decode_samples(raw, rec.channels, rec.n_samples)
        # worst case error is half a count step
        for i, ch in enumerate(rec.channels):
            assert np.allclose(back[i], rec.samples[i], atol=0.5 / ch.gain + 1e-12)

    def test_nan_uses_sentinel(self):
        rec = make_record(n=10)
        rec.samples[0, 3] = np.nan
        raw = encode_samples(rec.samples, rec.channels)
        counts = np.frombuffer(raw, dtype="<i2").reshape(10, 2).T
        assert counts[0, 3] == SENTINEL
        back = decode_samples(raw, rec.channels, 10)
        assert np.isnan(back[0, 3])
        assert not np.isnan(back[1, 3])

    def test_clipping(self):
        meta = [ChannelMeta("II", ChannelKind.ECG, "mV", 200.0, 0)]
        big = np.array([[1e6, -1e6]])
        raw = encode_samples(big, meta)
        counts = np.frombuffer(raw, dtype="<i2")
        assert counts.max() == 32767 and counts.min() == -32767


class TestRecordFiles:
    def test_write_then_load(self, tmp_path):
        rec = make_record()
        header = write_record(rec, tmp_path)
        assert header.name == "rec0.hea"
        back = load_record(header)
        assert back.name == rec.name
        assert back.sample_rate == rec.sample_rate
        assert [c.name for c in back.channels] == ["II", "ABP"]
        assert back.alarm.arrhythmia is Arrhythmia.VTACH
        assert back.alarm.truth is True
        assert back.alarm.alarm_index == rec.n_samples
        for i, ch in enumerate(back.channels):
            assert np.allclose(back.samples[i], rec.samples[i], atol=0.5 / ch.gain + 1e-12)

    def test_alarm_position_survives(self, tmp_path):
        rec = make_record()
        rec.alarm.alarm_index = 2000
        back = load_record(write_record(rec, tmp_path))
        assert back.alarm.alarm_index == 2000

    def test_suite_record_loads(self, suite_dir):
        out, manifest_path = suite_dir
        rec = load_record(out / "a100s.hea")
        assert rec.alarm.arrhythmia is Arrhythmia.ASYSTOLE
        assert rec.sample_rate == 250.0
        assert rec.n_channels == 4

    def test_channel_index(self):
        rec = make_record()
        assert rec.channel_index("ii") == 0
        with pytest.raises(MissingLead):
            rec.channel_index("V5")


def decode_samples_loop(raw, channels, n_samples):
    """The channel-by-channel decoder the one-pass decoder replaces, kept as its oracle."""
    counts = np.frombuffer(raw, dtype="<i2").reshape(n_samples, len(channels)).T
    analog = np.empty(counts.shape, dtype=np.float64)
    for i, ch in enumerate(channels):
        col = counts[i].astype(np.float64)
        col = (col - ch.baseline) / ch.gain
        col[counts[i] == SENTINEL] = np.nan
        analog[i] = col
    return analog


@st.composite
def encoded_records(draw):
    """Raw counts of one to five channels, the sentinel among them, with
    gains of either sign and baselines on both sides of zero."""
    n_sig = draw(st.integers(1, 5))
    n = draw(st.integers(1, 400))
    gains = st.floats(-5000.0, 5000.0, allow_nan=False).filter(lambda g: abs(g) > 1e-3)
    channels = [
        ChannelMeta(f"c{i}", ChannelKind.ECG, "mV", draw(gains), draw(st.integers(-40000, 40000)))
        for i in range(n_sig)
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(SENTINEL, COUNT_MAX + 1, size=(n, n_sig), dtype=np.int16)
    counts[rng.random((n, n_sig)) < draw(st.sampled_from([0.0, 0.1, 1.0]))] = SENTINEL
    return counts.astype("<i2").tobytes(), channels, n


ONE_CHANNEL = (
    np.array([SENTINEL, -1, 0, 7, COUNT_MAX], dtype="<i2").tobytes(),
    [ChannelMeta("II", ChannelKind.ECG, "mV", -200.0, 12)],
    5,
)


class TestDecodeMatchesTheChannelLoop:
    @given(encoded_records())
    @example(ONE_CHANNEL)
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_and_c_contiguous(self, encoded):
        raw, channels, n = encoded
        got = decode_samples(raw, channels, n)
        expected = decode_samples_loop(raw, channels, n)
        assert got.shape == (len(channels), n) and got.dtype == np.float64
        assert got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()

    def test_sentinel_and_negative_gain(self):
        raw, channels, n = ONE_CHANNEL
        got = decode_samples(raw, channels, n)
        assert np.isnan(got[0, 0])
        assert got[0, 1:].tolist() == [(-1 - 12) / -200.0, (0 - 12) / -200.0, (7 - 12) / -200.0, (COUNT_MAX - 12) / -200.0]


class TestResample:
    def test_halves_rate_and_alarm(self):
        rec = make_record(n=2000)
        rec.alarm.alarm_index = 1999
        half = resample_half(rec)
        assert half.sample_rate == 125.0
        assert half.n_samples == 1000
        assert half.alarm.alarm_index == 1000

    def test_low_frequency_preserved_high_removed(self):
        fs = 250.0
        t = np.arange(5000) / fs
        x = np.sin(2 * np.pi * 5 * t) + 0.5 * np.sin(2 * np.pi * 80 * t)
        meta = [ChannelMeta("II", ChannelKind.ECG, "mV", 200.0, 0)]
        rec = Record("r", fs, meta, x[None, :], AlarmMeta(None, None, 5000))
        half = resample_half(rec)
        t2 = np.arange(half.n_samples) / 125.0
        clean = np.sin(2 * np.pi * 5 * t2)
        core = slice(100, -100)  # ignore filter edge effects
        assert np.abs(half.samples[0][core] - clean[core]).max() < 0.05

    def test_missing_samples_stay_missing(self):
        rec = make_record(n=2000)
        rec.samples[0, 100:200] = np.nan
        half = resample_half(rec)
        assert np.isnan(half.samples[0, 50:100]).all()
        assert not np.isnan(half.samples[0, :45]).any()

    def test_odd_rate_rejected(self):
        rec = make_record(fs=125.0)
        with pytest.raises(UnsupportedRate):
            resample_half(rec)

    @pytest.mark.parametrize("fs", [100.0, 50.0, 2.0])
    def test_rate_too_low_for_the_anti_alias_filter(self, fs):
        # the 50 Hz low-pass needs a Nyquist frequency above 50 Hz
        with pytest.raises(UnsupportedRate, match="too low"):
            resample_half(make_record(fs=fs))

    def test_not_longer_than_the_filter_pad_is_insufficient(self):
        # the order-4 low-pass has 5 coefficients a side, and zero_phase pads 3 * 5 samples
        with pytest.raises(InsufficientData, match="more than 15"):
            resample_half(make_record(n=15))
        assert resample_half(make_record(n=16)).n_samples == 8


class TestButterFilter:
    @pytest.mark.parametrize(
        "edges,fs", [((5.0, 15.0), 30.0), ((5.0, 15.0), 0.5), (10.0, 20.0), (50.0, 1e-300), (50.0, 100.0)]
    )
    def test_edge_not_below_nyquist_rejected(self, edges, fs):
        with pytest.raises(UnsupportedRate):
            butter_filter(2, edges, "low" if isinstance(edges, float) else "band", fs)

    def test_edge_just_below_nyquist_designs(self):
        design = butter_filter(2, (5.0, 15.0), "band", 30.5)
        assert all(np.isfinite(array).all() for array in design)


# every design the package filters with: the detectors' QRS band-pass and
# pulse low-pass at both rates, and the resampler's anti-alias low-pass
DESIGNS = [
    (2, QRS_BAND_HZ, "band", 125.0),
    (2, QRS_BAND_HZ, "band", 250.0),
    (2, PULSE_LOWPASS_HZ, "low", 125.0),
    (2, PULSE_LOWPASS_HZ, "low", 250.0),
    (4, 50.0, "low", 250.0),
]


@st.composite
def filter_inputs(draw):
    design = butter_filter(*draw(st.sampled_from(DESIGNS)))
    n = draw(st.integers(design.pad + 1, 30_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "constant", "ramp", "large"]))
    if kind == "random":
        x = rng.normal(0.0, 1.0, n)
    elif kind == "constant":
        x = np.full(n, rng.normal(0.0, 100.0))
    elif kind == "ramp":
        x = rng.normal(0.0, 10.0) + rng.normal(0.0, 0.1) * np.arange(n)
    else:  # the full 16-bit count range
        x = rng.uniform(-32767.0, 32767.0, n)
    return design, x


class TestZeroPhase:
    @given(filter_inputs())
    @settings(max_examples=60, deadline=None)
    @example((butter_filter(4, 50.0, "low", 250.0), np.arange(16.0)))
    def test_equals_scipy_filtfilt(self, case):
        design, x = case
        assert np.array_equal(zero_phase(design, x), filtfilt(design.b, design.a, x))

    @pytest.mark.parametrize("args", DESIGNS)
    def test_not_longer_than_the_pad_raises(self, args):
        design = butter_filter(*args)
        with pytest.raises(ValueError, match=f"more than {design.pad}"):
            zero_phase(design, np.ones(design.pad))


class TestPreAlarmWindow:
    def test_window(self):
        rec = make_record(n=2500)
        rec.alarm.alarm_index = 2500
        win = pre_alarm_window(rec, 10.0)
        assert win.n_samples == 2500
        win = pre_alarm_window(rec, 4.0)
        assert win.n_samples == 1000
        assert win.alarm.alarm_index == 1000
        assert np.array_equal(win.samples, rec.samples[:, 1500:2500])

    def test_too_short(self):
        rec = make_record(n=2400)
        with pytest.raises(InsufficientData):
            pre_alarm_window(rec, 10.0)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        entries = [
            ManifestEntry(str(tmp_path / "a.hea"), Arrhythmia.ASYSTOLE, True),
            ManifestEntry(str(tmp_path / "b.hea"), Arrhythmia.VTACH, False),
            ManifestEntry(str(tmp_path / "c.hea"), Arrhythmia.VFIB, None),
        ]
        path = write_manifest(Manifest(entries), tmp_path / "m.csv")
        back = load_manifest(path)
        assert [e.record for e in back] == [e.record for e in entries]
        assert [e.arrhythmia for e in back] == [Arrhythmia.ASYSTOLE, Arrhythmia.VTACH, Arrhythmia.VFIB]
        assert [e.truth for e in back] == [True, False, None]

    def test_relative_paths_resolve_against_manifest(self, tmp_path):
        (tmp_path / "m.csv").write_text("rec.hea,Asystole,true\n")
        back = load_manifest(tmp_path / "m.csv")
        assert back.entries[0].record == str(tmp_path / "rec.hea")

    def test_header_row_skipped(self, tmp_path):
        (tmp_path / "m.csv").write_text("record,arrhythmia,label\nrec.hea,Asystole,false\n")
        back = load_manifest(tmp_path / "m.csv")
        assert len(back.entries) == 1
        assert back.entries[0].truth is False

    def test_malformed_row(self, tmp_path):
        (tmp_path / "m.csv").write_text("rec.hea,Asystole\n")
        with pytest.raises(MalformedRow):
            load_manifest(tmp_path / "m.csv")

    def test_bad_truth_label(self, tmp_path):
        (tmp_path / "m.csv").write_text("rec.hea,Asystole,maybe\n")
        with pytest.raises(MalformedRow):
            load_manifest(tmp_path / "m.csv")

    def test_duplicate_record(self, tmp_path):
        (tmp_path / "m.csv").write_text("rec.hea,Asystole,true\nrec.hea,Asystole,false\n")
        with pytest.raises(DuplicateEntry):
            load_manifest(tmp_path / "m.csv")

    def test_duplicate_record_under_another_absolute_spelling(self, tmp_path):
        alias = tmp_path / ".." / tmp_path.name / "rec.hea"
        (tmp_path / "m.csv").write_text(f"{tmp_path / 'rec.hea'},vtach,true\n{alias},vtach,true\n")
        with pytest.raises(DuplicateEntry):
            load_manifest(tmp_path / "m.csv")

    def test_suite_manifest(self, suite_dir):
        _, manifest_path = suite_dir
        manifest = load_manifest(manifest_path)
        assert len(manifest.entries) == 50
        trues = sum(1 for e in manifest if e.truth)
        assert trues == 25


class TestTextFiles:
    """Every text reader turns an unreadable or non-UTF-8 file into an
    IoFailure naming the file; a UnicodeDecodeError used to escape."""

    READERS = {
        "header": load_record,
        "manifest": load_manifest,
        "annotations": lambda path: import_annotations(path, make_record()),
        "beat file": load_beat_file,
        "config": Thresholds.from_file,
    }

    @pytest.mark.parametrize("what", READERS)
    def test_non_utf8_file(self, tmp_path, what):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"\xff\xfe\x00bad")
        with pytest.raises(IoFailure, match=f"cannot read {what} {path}: 'utf-8' codec"):
            self.READERS[what](path)

    @pytest.mark.parametrize("what", READERS)
    def test_missing_file(self, tmp_path, what):
        path = tmp_path / "ghost.txt"
        with pytest.raises(IoFailure, match=f"cannot read {what} {path}"):
            self.READERS[what](path)


def _rejects(call, error, message):
    """``call()`` raises ``error`` with ``message`` in its text."""
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestRejectPaths:
    """Every external-input parser names what it rejects: one table per parser."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty header"),
            (" \n\n", "empty header"),
            (HEADER.replace("v131l 2 250 75000", "v131l two 250 75000"), "bad numeric field on line 1"),
            (HEADER.replace("v131l 2 250 75000", "v131l 2 250 7.5e4"), "bad numeric field on line 1"),
            (HEADER.replace("v131l 2 250 75000", "v131l 2 0 75000"), "sample rate and length must be positive"),
            (HEADER.replace("v131l 2 250 75000", "v131l 2 -250 75000"), "sample rate and length must be positive"),
            (HEADER.replace("v131l 2 250 75000", "v131l 2 250 0"), "sample rate and length must be positive"),
            ("v131l 3 250 75000\nv131l.dat 16 200 0 mV II\n", "header declares 3 signals but has too few lines"),
            (HEADER.replace("16 200 0 mV", "16 2x0 0 mV"), "bad calibration field"),
            (HEADER.replace("16 200 0 mV", "16 200 0.5 mV"), "bad calibration field"),
            (HEADER + "#ALARM_AT\n", "bad alarm position comment: 'ALARM_AT'"),
            (HEADER + "#ALARM_AT 70000 70001\n", "bad alarm position comment: 'ALARM_AT 70000 70001'"),
            (HEADER + "#ALARM_AT 7e4\n", "alarm position must be an integer: 'ALARM_AT 7e4'"),
        ],
        ids=["empty", "blank", "text-count", "float-length", "zero-rate", "negative-rate", "zero-length",
             "too-few-signal-lines", "bad-gain", "float-baseline", "alarm-at-alone", "alarm-at-two-values",
             "alarm-at-not-integer"],
    )
    def test_parse_header(self, text, message):
        _rejects(lambda: parse_header(text), MalformedHeader, message)

    @pytest.mark.parametrize(
        "case, error, message",
        [
            ("two signal files", MalformedHeader, "all signals must share one file, got ['a.dat', 'b.dat']"),
            ("missing signal file", IoFailure, "cannot read signal file"),
            ("short payload", LengthMismatch, "signal file holds 9998 bytes, header implies 10000"),
            ("long payload", LengthMismatch, "signal file holds 10002 bytes, header implies 10000"),
        ],
    )
    def test_load_record(self, tmp_path, case, error, message):
        header = write_record(make_record(), tmp_path)
        dat = tmp_path / "rec0.dat"
        if case == "two signal files":
            lines = header.read_text().splitlines()
            lines[1] = lines[1].replace("rec0.dat", "a.dat")
            lines[2] = lines[2].replace("rec0.dat", "b.dat")
            header.write_text("\n".join(lines) + "\n")
        elif case == "missing signal file":
            dat.unlink()
        else:
            raw = dat.read_bytes()
            dat.write_bytes(raw[:-2] if case == "short payload" else raw + b"\x00\x00")
        _rejects(lambda: load_record(header), error, message)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("rec.hea,Torsades,true\n", "row 1: unrecognised arrhythmia name: 'Torsades'"),
            ("record,arrhythmia,label\nrec.hea,Asystole,true\nrec2.hea,,false\n", "row 3: unrecognised arrhythmia name: ''"),
            ("rec.hea,Asystole,true,extra\n", "row 1: expected 3 fields, got 4"),
            ("rec.hea,Asystole,maybe\n", "row 1: unknown label 'maybe'"),
        ],
        ids=["unknown-arrhythmia", "empty-arrhythmia", "four-fields", "unknown-label"],
    )
    def test_load_manifest(self, tmp_path, text, message):
        (tmp_path / "m.csv").write_text(text)
        _rejects(lambda: load_manifest(tmp_path / "m.csv"), MalformedRow, message)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "is empty"),
            ("fs=250 label=N\n0.5\n", "has a bad header: 'fs=250 label=N'"),
            ("fs=125 label=X\n0.5\n", "has a bad header: 'fs=125 label=X'"),
            ("fs=125\n0.5\n", "has a bad header: 'fs=125'"),
            ("0.5\n0.6\n", "has a bad header: '0.5'"),
            ("fs=125 label=V\n", "has no samples"),
            ("fs=125 label=V\n\n  \n", "has no samples"),
            ("fs=125 label=N\n0.5\nabc\n", "has a bad sample line"),
        ],
        ids=["empty", "wrong-rate", "unknown-label", "no-label", "no-header", "header-only", "blank-samples",
             "bad-sample"],
    )
    def test_load_beat_file(self, tmp_path, text, message):
        path = tmp_path / "b.txt"
        path.write_text(text)
        _rejects(lambda: load_beat_file(path), IoFailure, message)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("100 N\n200 V extra\n", "ann.txt:2: expected 'index [label]'"),
            ("100 N\n200 Q\n", "ann.txt:2: unknown label 'Q'"),
            ("100 n\n", "ann.txt:1: unknown label 'n'"),
            ("100\n# comment\n50\n", "ann.txt:3: indices must be strictly increasing"),
        ],
        ids=["third-field", "unknown-label", "lower-case-label", "decreasing"],
    )
    def test_import_annotations(self, tmp_path, text, message):
        path = tmp_path / "ann.txt"
        path.write_text(text)
        _rejects(lambda: import_annotations(path, make_record()), MalformedAnnotation, message)
