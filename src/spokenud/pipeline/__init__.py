"""Four-stage decoupled parser: three model stages under strict schema
validation plus a deterministic verify/repair merge."""

from .agents import SchemaViolation, run_agent, seed_replay_store
from .driver import parse_sentence, run_batch
from .edits import (
    EmptyPart,
    OverlappingMwe,
    SpanTooShort,
    SplitOnDottedNode,
    SplitTargetMissing,
    apply_integer_shift,
    make_dotted_mwe,
)
from .envelopes import (
    CoreOutput,
    CoreToken,
    FinalParse,
    IrreconcilableEnvelopes,
    LsrOutput,
    PipelineToken,
    SentenceFailure,
    SphOutput,
    apply_mwe_whitelist,
    build_id_map,
    input_payload,
    parse_core,
    parse_lsr,
    parse_sph,
    validate_core,
    validate_lsr,
    validate_sph,
)
from .finalize import (
    enforce_single_root_rows,
    finalize,
    induced_sentence,
    repair_cycles_rows,
)
from .prompts import render_prompt, stage_schema

__all__ = [
    "SchemaViolation", "run_agent", "seed_replay_store",
    "parse_sentence", "run_batch",
    "EmptyPart", "OverlappingMwe", "SpanTooShort", "SplitOnDottedNode",
    "SplitTargetMissing", "apply_integer_shift", "make_dotted_mwe",
    "CoreOutput", "CoreToken", "FinalParse", "IrreconcilableEnvelopes",
    "LsrOutput", "PipelineToken", "SentenceFailure", "SphOutput",
    "apply_mwe_whitelist", "build_id_map", "input_payload",
    "parse_core", "parse_lsr", "parse_sph",
    "validate_core", "validate_lsr", "validate_sph",
    "enforce_single_root_rows", "finalize", "induced_sentence",
    "repair_cycles_rows",
    "render_prompt", "stage_schema",
]
