"""Toolkit for parsing and evaluating spoken code-switched utterances."""

from .core import (
    Category,
    NodeId,
    ROOT,
    RootSentinel,
    Sentence,
    SpokenUdError,
    Token,
    ValidationReport,
    is_content_relation,
    validate_tree,
)
from .flexud import (
    Alignment,
    ComponentScores,
    FlexScore,
    PenaltySchedule,
    SeverityReport,
    ToleranceConfig,
    Weights,
    align_tokens,
    component_scores,
    detect_severity,
    evaluate_sentence,
    flexud_final,
    flexud_report,
)
from .ioformats import (
    BenchmarkManifest,
    SheetRow,
    emit_conllu,
    emit_sheet,
    load_manifest,
    parse_conllu,
    parse_sheet,
)
from .metrics import (
    StandardScores,
    aggregate_by_category,
    attachment_scores,
)
from .backends import BackendConfig, ReplayStore, make_backend
from .config import ToolkitConfig, load_config
from .pipeline import FinalParse, SentenceFailure, parse_sentence, run_batch

__version__ = "0.1.0"

__all__ = [
    "Category", "NodeId", "ROOT", "RootSentinel", "Sentence", "SpokenUdError",
    "Token", "ValidationReport", "is_content_relation", "validate_tree",
    "Alignment", "ComponentScores", "FlexScore", "PenaltySchedule",
    "SeverityReport", "ToleranceConfig", "Weights", "align_tokens",
    "component_scores", "detect_severity", "evaluate_sentence", "flexud_final",
    "flexud_report",
    "BenchmarkManifest", "SheetRow", "emit_conllu", "emit_sheet",
    "load_manifest", "parse_conllu", "parse_sheet",
    "StandardScores", "aggregate_by_category", "attachment_scores",
    "BackendConfig", "ReplayStore", "make_backend",
    "ToolkitConfig", "load_config",
    "FinalParse", "SentenceFailure", "parse_sentence", "run_batch",
    "__version__",
]
