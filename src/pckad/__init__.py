"""pckad: payload anomaly detection for HTTP/FTP via per-chunk n-gram models.

Trains per-(port, chunk count) statistics of n-gram occurrences from
attack-free traffic and scores unseen packets by the fraction of anomalous
occurrences in their protocol-relevant payload.
"""

from .chunking import (
    ChunkingConfig,
    sliding_window_oracle,
)
from .corpus import (
    IngestSummary,
    PacketRecord,
    TrafficFilter,
    read_jsonl,
    read_pcap,
    write_jsonl,
)
from .detector import (
    ALERT_KINDS,
    DetectionSummary,
    DetectorConfig,
    Scorer,
    Verdict,
    anomalous_occurrences,
    detect_stream,
    mahalanobis_term,
    score_packet,
    verdict_line,
)
from .errors import (
    CorpusError,
    EvaluationError,
    InjectionError,
    ModelFormatError,
    PckadError,
)
from .evaluate import (
    EvalReport,
    GridSpec,
    LabelSet,
    SweepRow,
    evaluate,
    sweep,
    write_sweep_csv,
)
from .model import (
    ClassKey,
    ClassModel,
    NGramStats,
    TrafficModel,
    TrainingSummary,
    load_model,
    save_model,
    train,
)
from .protocols import (
    Malformed,
    Protocol,
    RelevantPayload,
    extract_relevant,
    protocol_for_port,
)
from .synth import (
    AnomalyKind,
    GenSpec,
    gen_legit,
    inject_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "ALERT_KINDS",
    "AnomalyKind",
    "ChunkingConfig",
    "ClassKey",
    "ClassModel",
    "CorpusError",
    "DetectionSummary",
    "DetectorConfig",
    "EvalReport",
    "EvaluationError",
    "GenSpec",
    "GridSpec",
    "IngestSummary",
    "InjectionError",
    "LabelSet",
    "Malformed",
    "ModelFormatError",
    "NGramStats",
    "PacketRecord",
    "PckadError",
    "Protocol",
    "RelevantPayload",
    "Scorer",
    "SweepRow",
    "TrafficFilter",
    "TrafficModel",
    "TrainingSummary",
    "Verdict",
    "anomalous_occurrences",
    "detect_stream",
    "evaluate",
    "extract_relevant",
    "gen_legit",
    "inject_corpus",
    "load_model",
    "mahalanobis_term",
    "protocol_for_port",
    "read_jsonl",
    "read_pcap",
    "save_model",
    "score_packet",
    "sliding_window_oracle",
    "sweep",
    "train",
    "verdict_line",
    "write_jsonl",
    "write_sweep_csv",
]
