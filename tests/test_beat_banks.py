import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alarmsentinel import beat_banks
from alarmsentinel.alarm_logic import Thresholds, _window, analysis_beats, detect_annotations
from alarmsentinel.beat_banks import (
    KL_EPSILON,
    BankKind,
    BankSet,
    BeatBank,
    _bin_counts,
    _distance_rows,
    _kl_rows,
    bank_novelty_stats,
    classify_beat_self_kl,
    classify_beat_self_min,
    classify_beat_vbank,
    extract_self_bank,
    kl_divergence,
    load_bank_dir,
    load_beat_file,
    save_bank,
    save_beat_file,
    smooth_distribution,
    vt_labels_from_bank,
)
from alarmsentinel.beats import BeatAnnotation, BeatLabel, detect_qrs
from alarmsentinel.cli import main
from alarmsentinel.dtw import bank_lead, znormalize
from alarmsentinel.errors import (
    BankTooSmall,
    DimensionMismatch,
    EmptyBank,
    InsufficientCleanBeats,
    IoFailure,
    NotNormalized,
)
from alarmsentinel.record_io import Arrhythmia, load_record, write_record
from alarmsentinel.synthkit import SynthSpec, generate, narrow_template, surrogate_banks, wide_template

ANALYSIS_WINDOW_S = Thresholds().analysis_window_s


def template_beat(kind="narrow", fs=125.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    rel = np.arange(int(0.65 * fs)) / fs
    tpl = narrow_template(rel) if kind == "narrow" else wide_template(rel)
    return znormalize(tpl + rng.normal(0, noise, len(rel))) if noise else znormalize(tpl)


def noisy_bank(kind="narrow", n=20, noise=0.02):
    bank = BeatBank(BankKind.SELF)
    for i in range(n):
        bank.beats.append(template_beat(kind, noise=noise, seed=i + 1))
        bank.provenance.append(("synthetic", 0, 0))
    return bank


@pytest.fixture(scope="module")
def vt_true_record():
    spec = SynthSpec(name="vtx", arrhythmia=Arrhythmia.VTACH, event=True, seed=91)
    return generate(spec)


class TestSelfBankExtraction:
    def test_exactly_twenty_normalized_beats(self, vt_true_record):
        rec, _ = vt_true_record
        ann = detect_qrs(rec.samples[0], rec.sample_rate)
        bank = extract_self_bank(bank_lead(rec, ann.channel), ann, ANALYSIS_WINDOW_S)
        assert len(bank) == 20
        assert bank.kind is BankKind.SELF
        for beat in bank.beats:
            assert abs(beat.mean()) < 1e-9
            assert abs(beat.std() - 1.0) < 1e-9

    def test_beats_come_from_before_the_alarm_section(self, vt_true_record):
        rec, _ = vt_true_record
        ann = detect_qrs(rec.samples[0], rec.sample_rate)
        bank = extract_self_bank(bank_lead(rec, ann.channel), ann, exclude_s=16.0)
        cutoff = rec.alarm.alarm_index // 2 - int(16.0 * 125.0)  # bank works at 125 Hz
        for _, start, end in bank.provenance:
            assert end <= cutoff + 1

    def test_newest_sections_first(self, vt_true_record):
        rec, _ = vt_true_record
        ann = detect_qrs(rec.samples[0], rec.sample_rate)
        bank = extract_self_bank(bank_lead(rec, ann.channel), ann, ANALYSIS_WINDOW_S)
        starts = [s for _, s, _ in bank.provenance]
        # within the scan the first banked beat is the most recent one
        assert starts[0] == max(starts)

    def test_beats_on_another_channel_are_rejected(self, vt_true_record):
        rec, _ = vt_true_record
        ann = detect_qrs(rec.samples[0], rec.sample_rate)
        lead = bank_lead(rec, ann.channel + 1)
        with pytest.raises(ValueError, match="bank lead is channel 1, beats are on channel 0"):
            extract_self_bank(lead, ann, ANALYSIS_WINDOW_S)
        with pytest.raises(ValueError, match="bank lead is channel 1, beats are on channel 0"):
            vt_labels_from_bank(lead, ann, classify_beat_vbank(surrogate_banks(seed=0)))

    def test_noisy_record_fails_with_count(self):
        spec = SynthSpec(name="noisy", arrhythmia=Arrhythmia.VTACH, event=False, noise_mv=3.0, seed=5)
        rec, _ = generate(spec)
        ann = detect_qrs(rec.samples[0], rec.sample_rate)
        with pytest.raises(InsufficientCleanBeats) as exc_info:
            extract_self_bank(bank_lead(rec, ann.channel), ann, ANALYSIS_WINDOW_S)
        assert exc_info.value.found == 0


class TestNoveltyStats:
    def test_identical_beats_have_zero_stats(self):
        bank = BeatBank(BankKind.SELF, [template_beat() for _ in range(20)])
        stats = bank_novelty_stats(bank)
        assert stats.mu_min == 0.0
        assert stats.sigma_min == 0.0
        assert len(stats.reference_distances) == 190  # C(20, 2)

    def test_noisy_bank_has_positive_spread(self):
        stats = bank_novelty_stats(noisy_bank())
        assert stats.mu_min > 0
        assert stats.sigma_min > 0
        assert stats.mu_kl >= 0
        assert len(stats.bin_edges) == 11

    def test_too_small(self):
        with pytest.raises(BankTooSmall):
            bank_novelty_stats(BeatBank(BankKind.SELF, [template_beat(), template_beat()]))


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_log_two_spot_value(self):
        assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_smoothed_reverse_spot_value(self):
        q = smooth_distribution(np.array([1.0, 0.0]))
        value = kl_divergence(np.array([0.5, 0.5]), q)
        expected = 0.5 * math.log(0.5 / q[0]) + 0.5 * math.log(0.5 / q[1])
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(9.667, abs=0.01)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kl_divergence(np.array([1.0]), np.array([0.5, 0.5]))

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            kl_divergence(np.array([0.7, 0.7]), np.array([0.5, 0.5]))
        with pytest.raises(NotNormalized):
            kl_divergence(np.array([1.5, -0.5]), np.array([0.5, 0.5]))

    def test_nonnegative_over_random_simplex_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = smooth_distribution(rng.random(10))
            q = smooth_distribution(rng.random(10))
            assert kl_divergence(p, q) >= 0.0


class TestSmoothing:
    def test_strictly_positive_and_normalized(self):
        q = smooth_distribution(np.array([1.0, 0.0, 0.0]))
        assert (q > 0).all()
        assert q.sum() == pytest.approx(1.0, abs=1e-15)

    def test_all_zeros_becomes_uniform(self):
        q = smooth_distribution(np.zeros(4))
        assert np.allclose(q, 0.25)


def label_beat(rule, beat):
    """``rule``'s label for one beat, from its normalized form's row of
    distances to the members, as vt_labels_from_bank computes it."""
    return rule.label(_distance_rows([znormalize(beat)], rule.members))[0]


class TestBeatClassifiers:
    def banks(self):
        vbank = noisy_bank("wide")
        vbank.kind = BankKind.VENTRICULAR
        sbank = noisy_bank("narrow")
        sbank.kind = BankKind.STANDARD
        return vbank, sbank

    def test_vbank_separates_morphologies(self):
        vbank, sbank = self.banks()
        rule = classify_beat_vbank(BankSet(vbank, sbank))
        assert label_beat(rule, template_beat("wide", seed=99)) is BeatLabel.VENTRICULAR
        assert label_beat(rule, template_beat("narrow", seed=99)) is BeatLabel.NORMAL

    def test_vbank_tie_is_ventricular(self):
        beat = template_beat("narrow")
        vbank = BeatBank(BankKind.VENTRICULAR, [beat.copy()])
        sbank = BeatBank(BankKind.STANDARD, [beat.copy()])
        assert label_beat(classify_beat_vbank(BankSet(vbank, sbank)), beat) is BeatLabel.VENTRICULAR

    def test_vbank_requires_both_banks(self):
        vbank, _ = self.banks()
        with pytest.raises(EmptyBank):
            classify_beat_vbank(BankSet(vbank, BeatBank(BankKind.STANDARD)))

    def flag_counts(self, classifier):
        # The mu + sigma thresholds intentionally flag a small tail of honest
        # beats, so single draws prove nothing; count over a fixed cohort.
        bank = noisy_bank("narrow")
        rule = classifier(bank, bank_novelty_stats(bank))
        narrow = sum(
            label_beat(rule, template_beat("narrow", noise=0.02, seed=100 + s)) is BeatLabel.VENTRICULAR
            for s in range(30)
        )
        wide = sum(
            label_beat(rule, template_beat("wide", noise=0.02, seed=100 + s)) is BeatLabel.VENTRICULAR
            for s in range(30)
        )
        return narrow, wide

    def test_self_min_flags_novel_shape(self):
        narrow, wide = self.flag_counts(classify_beat_self_min)
        assert wide == 30
        assert narrow <= 9

    def test_self_min_threshold_is_strict(self):
        # Labelling normalizes its query, so store the normalized form in the
        # bank and hand over the raw beat: the distance is then exactly 0,
        # which must not exceed mu + sigma = 0.
        rel = np.arange(int(0.65 * 125)) / 125.0
        raw = narrow_template(rel)
        member = znormalize(raw)
        bank = BeatBank(BankKind.SELF, [member.copy() for _ in range(20)])
        stats = bank_novelty_stats(bank)  # mu = sigma = 0
        assert stats.mu_min == 0.0 and stats.sigma_min == 0.0
        rule = classify_beat_self_min(bank, stats)
        assert label_beat(rule, raw) is BeatLabel.NORMAL
        assert label_beat(rule, template_beat("wide")) is BeatLabel.VENTRICULAR

    def test_self_kl_flags_novel_shape(self):
        narrow, wide = self.flag_counts(classify_beat_self_kl)
        assert wide == 30
        assert narrow <= 9


def counts_loop(values, edges):
    counts, _ = np.histogram(np.clip(values, edges[0], edges[-1]), bins=edges)
    return counts


def histogram_loop(values, edges):
    return counts_loop(values, edges) / len(values)


def smooth_loop(q):
    return (q + KL_EPSILON) / (q.sum() + KL_EPSILON * len(q))


def kl_loop(p, q):
    mask = p > 0
    with np.errstate(divide="ignore"):
        terms = p[mask] * np.log(p[mask] / q[mask])
    return float(np.sum(terms))


def novelty_stats_loop(reference, n):
    """(mu_min, sigma_min, mu_kl, sigma_kl) from the condensed pairwise
    distances, one beat at a time, as bank_novelty_stats computed them
    before it worked on the whole matrix."""
    iu, ju = np.triu_indices(n, k=1)
    dist = np.zeros((n, n))
    dist[iu, ju] = dist[ju, iu] = reference
    mins = np.array([np.min(np.delete(dist[i], i)) for i in range(n)])
    edges = beat_banks._bin_edges(reference)
    kls = np.empty(n)
    for i in range(n):
        own = np.delete(dist[i], i)
        rest = reference[(iu != i) & (ju != i)]
        kls[i] = kl_loop(histogram_loop(own, edges), smooth_loop(histogram_loop(rest, edges)))
    return float(np.mean(mins)), float(np.std(mins)), float(np.mean(kls)), float(np.std(kls))


def kl_row_loop(rows, stats):
    """Each beat's KL divergence from its row alone, as the self-kl rule
    computed it before it took the whole matrix."""
    q = smooth_loop(histogram_loop(stats.reference_distances, stats.bin_edges))
    return np.array([kl_loop(histogram_loop(row, stats.bin_edges), q) for row in rows])


def labels_loop(method, rows, n_ventricular, stats):
    """Per-row labels as the bank rules gave them before they took the
    whole (beats x members) matrix."""
    if method == "vbank":
        flags = [int(np.argmin(row)) < n_ventricular for row in rows]
    elif method == "self-min":
        flags = [float(np.min(row)) > stats.mu_min + stats.sigma_min for row in rows]
    else:
        flags = list(kl_row_loop(rows, stats) > stats.mu_kl + stats.sigma_kl)
    return [BeatLabel.VENTRICULAR if f else BeatLabel.NORMAL for f in flags]


@st.composite
def pairwise_distances(draw):
    """(bank size 3-25, its condensed pairwise distances), drawn so that
    values sit on bin edges, all distances are equal, or all are zero
    (the degenerate 1e-12 top edge)."""
    n = draw(st.integers(3, 25))
    pairs = n * (n - 1) // 2
    kind = draw(st.sampled_from(["spread", "on-edges", "equal", "zero"]))
    if kind == "zero":
        return n, np.zeros(pairs)
    top = draw(st.floats(1e-3, 1e3))
    if kind == "equal":
        return n, np.full(pairs, top)
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    reference = rng.uniform(0.0, top, pairs)
    reference[rng.random(pairs) < 0.1] = 0.0
    if kind == "on-edges":  # the edges below the maximum, as _bin_edges will make them
        edges = np.linspace(0.0, top * beat_banks.KL_EDGE_FACTOR, beat_banks.KL_BINS + 1)
        snap = rng.random(pairs) < 0.7
        reference[snap] = rng.choice(edges[edges <= top], snap.sum())
    reference[rng.integers(pairs)] = top
    return n, reference


def stats_from(reference, n):
    """bank_novelty_stats of an n-beat bank whose pairwise distances are ``reference``."""
    bank = BeatBank(BankKind.SELF, [np.zeros(1)] * n)
    with mock.patch.object(beat_banks, "dtw_distances", lambda a, b, radius: reference.copy()):
        return bank_novelty_stats(bank)


class TestMatrixRulesMatchTheLoops:
    @given(pairwise_distances())
    @settings(max_examples=150, deadline=None)
    def test_novelty_stats(self, drawn):
        n, reference = drawn
        stats = stats_from(reference, n)
        got = np.array([stats.mu_min, stats.sigma_min, stats.mu_kl, stats.sigma_kl])
        assert got.tobytes() == np.array(novelty_stats_loop(reference, n)).tobytes()

    @given(pairwise_distances(), st.integers(0, 30), st.integers(1, 24), st.integers(0, 2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_labels(self, drawn, beats, n_ventricular, seed):
        n, reference = drawn
        stats = stats_from(reference, n)
        edges = stats.bin_edges
        rng = np.random.default_rng(seed)
        # up to twice the top edge, so some values are clipped into the last bin
        rows = rng.uniform(0.0, 2.0 * edges[-1], (beats, n))
        on_edge = rng.random(rows.shape) < 0.3
        rows[on_edge] = rng.choice(edges, on_edge.sum())
        if beats:
            rows[0] = rows[0, 0]  # all-equal distances: a tie for vbank
        if beats > 1 and n >= len(edges):
            rows[1, : len(edges)] = edges  # a row in every bin
        self_bank = BeatBank(BankKind.SELF, [np.zeros(1)] * n)
        members = [np.zeros(1)] * n
        vbank = BankSet(BeatBank(BankKind.VENTRICULAR, members[:n_ventricular]), BeatBank(BankKind.STANDARD, members))
        for method, rule in (
            ("vbank", classify_beat_vbank(vbank)),
            ("self-min", classify_beat_self_min(self_bank, stats)),
            ("self-kl", classify_beat_self_kl(self_bank, stats)),
        ):
            assert rule.label(rows) == labels_loop(method, rows, n_ventricular, stats), method
        counts = _bin_counts(rows, edges)
        assert all(np.array_equal(c, counts_loop(row, edges)) for c, row in zip(counts, rows))
        q = smooth_distribution(beat_banks._histogram(stats.reference_distances, edges))
        assert _kl_rows(counts / n, q).tobytes() == kl_row_loop(rows, stats).tobytes()

    def test_rows_with_eight_or_more_nonzero_bins(self):
        # eight or more terms are summed with eight accumulators, so a row
        # must be summed over exactly its own nonzero terms
        n, reference = 20, np.linspace(0.0, 1.0, 190)
        stats = stats_from(reference, n)
        edges = stats.bin_edges
        rng = np.random.default_rng(3)
        rows = rng.uniform(0.0, edges[-1], (40, n))
        counts = _bin_counts(rows, edges)
        nonzero = (counts > 0).sum(axis=1)
        assert (nonzero >= 8).sum() > 10 and (nonzero < 8).any()
        q = smooth_distribution(beat_banks._histogram(reference, edges))
        assert _kl_rows(counts / n, q).tobytes() == kl_row_loop(rows, stats).tobytes()


class TestVtLabelsFromBank:
    # every beat's label from each bank method on the seed-91 VT record
    EXPECTED = {
        "vbank": (
            "NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN"
            "NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN"
            "NNNNNNNNNNNNNNNNNNNNNNNNVVVVVVNNNNNNNNNNN"
        ),
        "self-min": (
            "VNNNNNNNNNNNNNVNNNNVNNNVNVVNVNNNNNNNNVNNNNNVVNNNNNVNNNNVNVNN"
            "NVNNNNNNVVNVVNNNVNNNNNNNNNVVNNNNVNNNNNNVNVNNNNNNNNNVVNNVNNNN"
            "NNNNNNNNNNNNNNNNNNVNNNNNVVVVVVVVNNNNNNNVN"
        ),
        "self-kl": (
            "NNNNNNNNNNNNNNVNNNNNNNNNNVVNNNNNNNNNNVNNVNNVVNNNNNVNNVNNNNNN"
            "NNNNNNNVVVNNVNNVNVVNNNVNNNVVNNNNVNNNNNNVNNNNVNNNNNVNVNNNNVNN"
            "NNNNNVNNNNNNNNNNNNNNNNNVVVVVVVVVNVNVNVNVN"
        ),
    }

    @staticmethod
    def rules(lead, ann, banks):
        """Each bank method's rule: vbank on the curated banks, the self
        methods on the lead's own bank and its statistics."""
        self_bank = extract_self_bank(lead, ann, ANALYSIS_WINDOW_S)
        stats = bank_novelty_stats(self_bank)
        return {
            "vbank": classify_beat_vbank(banks),
            "self-min": classify_beat_self_min(self_bank, stats),
            "self-kl": classify_beat_self_kl(self_bank, stats),
        }

    def test_methods_label_the_run(self, vt_true_record, banks):
        rec, truth = vt_true_record
        ann = detect_qrs(rec.samples[0], rec.sample_rate)
        lead = bank_lead(rec, ann.channel)
        run = [t for t, l in zip(truth.beat_times, truth.beat_labels) if l is BeatLabel.VENTRICULAR]
        for method, rule in self.rules(lead, ann, banks).items():
            labels = vt_labels_from_bank(lead, ann, rule)
            assert "".join(label.value for label in labels) == self.EXPECTED[method]
            hits = 0
            for t in run:
                for idx, label in zip(ann.indices, labels):
                    if abs(idx / rec.sample_rate - t) < 0.1 and label is BeatLabel.VENTRICULAR:
                        hits += 1
                        break
            # enough of the run must be flagged to trip the consecutive-V rule
            assert hits >= 4, method

    def test_uncomparable_beats_keep_their_place(self, vt_true_record, banks):
        # Beats come about 94 samples apart at the bank rate. Dropping the
        # three beats after beats 60 and 100 stretches each of those two
        # slices to about 282 samples, past BEAT_MAX_SAMPLES, while the beat
        # after each gap gets a longer slice that can still be compared.
        rec, _ = vt_true_record
        ann = detect_qrs(rec.samples[0], rec.sample_rate)
        lead = bank_lead(rec, ann.channel)
        kept = np.delete(np.arange(ann.count), [61, 62, 63, 101, 102, 103])
        thinned = BeatAnnotation(ann.channel, ann.indices[kept])
        reshaped = {60, 64, 100, 104}  # the beats either side of each gap
        for method, rule in self.rules(lead, ann, banks).items():
            labels = vt_labels_from_bank(lead, thinned, rule)
            unknown = [int(kept[pos]) for pos, label in enumerate(labels) if label is BeatLabel.UNKNOWN]
            assert unknown == [60, 100], method
            for pos, beat in enumerate(kept):
                if beat not in reshaped:
                    assert labels[pos].value == self.EXPECTED[method][beat], (method, beat)

    def test_vbank_needs_banks(self):
        with pytest.raises(EmptyBank):
            classify_beat_vbank(BankSet())


def vt_spec(k: int) -> SynthSpec:
    """The k-th of a seeded spread of VT records: heart rate, run length
    and rate, QRS and ventricular width, noise, baseline wander and
    sample rate all vary."""
    rng = np.random.default_rng(26_000 + k)
    return SynthSpec(
        name=f"vt{k}",
        arrhythmia=Arrhythmia.VTACH,
        event=k % 2 == 0,
        heart_rate=float(rng.uniform(55.0, 110.0)),
        vt_beats=int(rng.integers(4, 13)),
        vt_rate=float(rng.uniform(110.0, 180.0)),
        qrs_width_ms=float(rng.uniform(60.0, 110.0)),
        vent_width_ms=float(rng.uniform(120.0, 180.0)),
        noise_mv=float(rng.choice([0.005, 0.01, 0.03, 0.08])),
        baseline_wander_mv=float(rng.choice([0.0, 0.05, 0.1])),  # 0.3 mV leaves no clean section
        sample_rate=float(rng.choice([125.0, 250.0])),
        seed=26_000 + k,
    )


class TestSinglePrecisionLabels:
    """Beats are warped in float32; every window beat must get the label
    the float64 distances of the same beats give it."""

    def test_labels_match_the_float64_sweep(self, banks):
        config = Thresholds()
        banked = 0
        for k in range(30):
            record, _ = generate(vt_spec(k))
            lead, ann = analysis_beats(record, detect_annotations(record, None, config), "II")
            beats_in = ann.within(*_window(record, config))
            labels = {}
            for precision in ("single", "double"):
                with mock.patch.object(beat_banks, "_single", (lambda beats: beats) if precision == "double" else beat_banks._single):
                    rules = {"vbank": classify_beat_vbank(banks)}
                    try:
                        self_bank = extract_self_bank(lead, ann, config.analysis_window_s)
                    except InsufficientCleanBeats:
                        pass
                    else:
                        stats = bank_novelty_stats(self_bank)
                        rules["self-min"] = classify_beat_self_min(self_bank, stats)
                        rules["self-kl"] = classify_beat_self_kl(self_bank, stats)
                    labels[precision] = {method: vt_labels_from_bank(lead, beats_in, rule) for method, rule in rules.items()}
            assert labels["single"] == labels["double"], k
            assert all(labels["single"].values()), k
            banked += "self-min" in labels["single"]
        # 20 of the 30 records build a patient bank, so the self rules are compared too
        assert banked >= 15, banked


class TestBanksStayDouble:
    """Only the sweep is single precision: a bank's beats, and the files
    written from them, stay float64."""

    def test_self_bank_and_loaded_banks_are_float64(self, vt_true_record, banks, tmp_path):
        rec, _ = vt_true_record
        ann = detect_qrs(rec.samples[0], rec.sample_rate)
        bank = extract_self_bank(bank_lead(rec, ann.channel), ann, ANALYSIS_WINDOW_S)
        save_bank(banks.ventricular, tmp_path, prefix="v")
        save_bank(banks.standard, tmp_path, prefix="n")
        loaded = load_bank_dir(tmp_path)
        for beat in bank.beats + loaded.ventricular.beats + loaded.standard.beats:
            assert beat.dtype == np.float64

    def test_build_self_writes_the_float64_slices(self, vt_true_record, tmp_path, capsys):
        header = write_record(vt_true_record[0], tmp_path)
        assert main(["bank", "build-self", "--record", str(header), "--out", str(tmp_path / "bank")]) == 0
        capsys.readouterr()
        rec, config = load_record(header), Thresholds()  # the 16-bit counts the command read
        lead, ann = analysis_beats(rec, detect_annotations(rec, None, config), "II")
        bank = extract_self_bank(lead, ann, config.analysis_window_s)
        files = sorted((tmp_path / "bank").glob("*.txt"))
        assert len(files) == len(bank.provenance) == 20
        for path, (_, start, end) in zip(files, bank.provenance):
            beat = znormalize(lead.record.samples[0][start:end])
            assert path.read_text().splitlines()[1:] == [repr(float(v)) for v in beat], path.name


class TestBeatFiles:
    def test_beat_file_roundtrip(self, tmp_path):
        values = template_beat("wide")
        path = save_beat_file(tmp_path / "b.txt", values, BeatLabel.VENTRICULAR)
        back, label = load_beat_file(path)
        assert label is BeatLabel.VENTRICULAR
        assert np.array_equal(back, values)  # repr roundtrips floats exactly

    def test_bad_beat_file(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("fs=125 label=V\nnot-a-number\n")
        with pytest.raises(IoFailure):
            load_beat_file(p)
        p.write_text("")
        with pytest.raises(IoFailure):
            load_beat_file(p)

    def test_bank_directory_roundtrip(self, tmp_path, banks):
        save_bank(banks.ventricular, tmp_path, prefix="v")
        save_bank(banks.standard, tmp_path, prefix="n")
        back = load_bank_dir(tmp_path)
        assert len(back.ventricular) == len(banks.ventricular)
        assert len(back.standard) == len(banks.standard)

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(EmptyBank):
            load_bank_dir(tmp_path)

    @pytest.mark.parametrize("sample", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_sample_rejected(self, tmp_path, sample):
        p = tmp_path / "odd.txt"
        p.write_text(f"fs=125 label=N\n0.1\n{sample}\n0.3\n")
        with pytest.raises(IoFailure, match="odd.txt.*non-finite"):
            load_beat_file(p)

    @pytest.mark.parametrize("samples", [["0.5"], ["0.2"] * 40], ids=["one sample", "constant"])
    def test_flat_beat_rejected_with_its_file(self, tmp_path, banks, samples):
        save_bank(banks.standard, tmp_path, prefix="n")
        (tmp_path / "flat.txt").write_text("fs=125 label=V\n" + "\n".join(samples) + "\n")
        with pytest.raises(IoFailure, match="flat.txt is flat"):
            load_bank_dir(tmp_path)
