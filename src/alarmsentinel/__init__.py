"""False-arrhythmia-alarm adjudication for multichannel ICU records.

The package reads WFDB-style alarm records, checks signal quality,
detects beats, and decides whether a monitor alarm was genuine. Two
rule families are provided: threshold tests over beat annotations
(baseline and improved voting) and warping-distance classifiers for
ventricular tachycardia alarms backed by beat banks or a labelled
training corpus.
"""
from .alarm_logic import (
    CHECKS,
    DTW_METHODS,
    METHODS,
    AlarmContext,
    ChannelEvidence,
    Thresholds,
    Verdict,
    check_asystole,
    check_bradycardia,
    check_tachycardia,
    check_vfib,
    check_vtach,
    classify_alarm,
    detect_annotations,
    most_reliable_channel,
    regular_activity,
)
from .beat_banks import (
    BankKind,
    BankSet,
    BeatBank,
    NoveltyStats,
    bank_novelty_stats,
    classify_beat_self_kl,
    classify_beat_self_min,
    classify_beat_vbank,
    extract_self_bank,
    kl_divergence,
    load_bank_dir,
    save_bank,
    smooth_distribution,
)
from .beats import (
    BeatAnnotation,
    BeatLabel,
    BeatSegment,
    beat_segments,
    classify_beat_spectral,
    detect_pulses,
    detect_qrs,
    import_annotations,
    spectral_labels,
    window_heart_rate,
)
from .dtw import (
    CorpusEntry,
    TrainingCorpus,
    corpus_from_records,
    dtw_distance,
    dtw_distances,
    extract_alarm_lead,
    load_corpus_cache,
    save_corpus_cache,
    znormalize,
)
from .errors import AlarmSentinelError, CannotDecide, InsufficientCleanBeats, UnsupportedMethod
from .evaluation import (
    ConfusionCounts,
    MetricsReport,
    MetricsRow,
    accumulate,
    challenge_score,
    metric_suite,
    per_arrhythmia_report,
    train_test_split,
)
from .record_io import (
    AlarmMeta,
    Arrhythmia,
    ChannelKind,
    ChannelMeta,
    Manifest,
    ManifestEntry,
    Record,
    load_manifest,
    load_record,
    parse_arrhythmia,
    pre_alarm_window,
    resample_half,
    write_manifest,
    write_record,
)
from .signal_quality import (
    CleanMetrics,
    InvalidInterval,
    InvalidReason,
    QualityReport,
    assess_quality,
    band_fraction,
    channel_validity,
    clean_window_metrics,
    detect_invalid_segments,
    is_clean,
    welch_psd,
)
from .synthkit import GroundTruth, SynthSpec, generate, generate_suite, suite_specs, surrogate_banks

__version__ = "0.1.0"
