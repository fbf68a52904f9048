"""Validated structured outputs of the three model stages plus the final parse.

Each stage returns a single JSON object. Parsing happens in two layers: the
published JSON schema checks shape, types and bounds, and the parsers below
trust it; then the semantic validators check the cross-field invariants
(id-map completeness, contiguous integer ids after shifts, upstream
authority, single root, allowed tag sets).
Validators return human- and machine-readable violation strings; they are the
repair instructions sent back on retry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterable

from ..core import (
    NodeId,
    Sentence,
    SpokenUdError,
    Token,
    UPOS_TAGS,
    UD_RELATIONS,
    base_deprel,
    canonical_deprel,
    dotted_span,
    mwe_components,
)


class IrreconcilableEnvelopes(SpokenUdError):
    pass


@dataclass(frozen=True)
class PipelineToken:
    """One node as it moves through the pipeline stages."""

    proposed_id: NodeId
    orig_token_index: int
    split_token: str
    lang_tag: str = "unknown"
    spoken_label: str | None = None
    spoken_anchor: NodeId | None = None
    lemma: str | None = None
    mwe: bool = False
    sph_confidence: float | None = None
    lsr_confidence: float | None = None
    lsr_notes: str = ""


@dataclass(frozen=True)
class SphOutput:
    sentence_id: str
    tokens: tuple[PipelineToken, ...]
    id_map: dict
    summary: str = ""
    confidence: float | None = None
    enforcements: tuple[str, ...] = ()

    def to_payload(self) -> dict:
        return _envelope_payload(self)


@dataclass(frozen=True)
class LsrOutput(SphOutput):
    """Same shape as the first stage plus lemmas, notes and MWE flags."""


@dataclass(frozen=True)
class CoreToken:
    proposed_id: NodeId
    form: str
    lemma: str
    upos: str
    head_id: str  # proposed id text, "0" for root, "" when unannotated
    head_form: str
    deprel: str
    confidence: float | None = None
    notes: str = ""


@dataclass(frozen=True)
class CoreOutput:
    sentence_id: str
    tokens: tuple[CoreToken, ...]
    summary: str = ""

    def to_payload(self) -> dict:
        return {
            "sentence_id": self.sentence_id,
            "annotated_tokens": [
                {
                    "proposed_ID": str(t.proposed_id),
                    "FORM": t.form,
                    "LEMMA": t.lemma,
                    "UPOS": t.upos,
                    "HEAD_ID": t.head_id,
                    "HEAD_FORM": t.head_form,
                    "DEPREL": t.deprel,
                    "core_confidence": t.confidence,
                    "core_notes": t.notes,
                }
                for t in self.tokens
            ],
            "summary_notes": self.summary,
        }


@dataclass(frozen=True)
class FinalParse:
    sentence_id: str
    tokens: tuple[Token, ...]
    adjudication_log: tuple[str, ...]
    final_summary: str = ""


@dataclass(frozen=True)
class SentenceFailure:
    sentence_id: str
    stage: str
    error: str
    envelopes: dict = field(default_factory=dict)
    attempts: int | None = None  # from a SchemaViolation; None for a BackendError
    violations: list = field(default_factory=list)


def _envelope_payload(envelope: SphOutput) -> dict:
    return {
        "sentence_id": envelope.sentence_id,
        "tokens": [
            {
                "proposed_ID": str(t.proposed_id),
                "orig_token_index": t.orig_token_index,
                "split_token": t.split_token,
                "lang_tag": t.lang_tag,
                "spoken_label": t.spoken_label,
                "spoken_anchor": None if t.spoken_anchor is None else str(t.spoken_anchor),
                "lemma": t.lemma,
                "mwe": t.mwe,
                "sph_confidence": t.sph_confidence,
                "lsr_confidence": t.lsr_confidence,
                "lsr_notes": t.lsr_notes,
            }
            for t in envelope.tokens
        ],
        "proposed_id_map": {str(k): [str(i) for i in v]
                            for k, v in sorted(envelope.id_map.items())},
        "summary_notes": envelope.summary,
        "confidence": envelope.confidence,
    }


def input_payload(sentence: Sentence) -> dict:
    """The tokenized-sentence payload the first stage consumes."""
    return {
        "sentence_id": sentence.sentence_id,
        "tokens": [
            {
                "token_index": t.orig_token_index or i,
                "form": t.form,
                "lang_tag": t.lang_tag,
            }
            for i, t in enumerate(sentence.tokens, start=1)
        ],
    }


# --- parsing ------------------------------------------------------------------
# Each parser reads an object that conforms to its stage schema and trusts its
# types; only what the schema admits but the data model refuses is checked.

def _parse_node_id(text: str, violations: list[str], context: str) -> NodeId | None:
    # The schema's id pattern admits 0, 1.0 and "1\n"; NodeId.parse does not.
    try:
        return NodeId.parse(text)
    except ValueError:
        violations.append(f"{context}: bad node id {text!r}")
        return None


def parse_stage_tokens(obj: dict, violations: list[str]) -> tuple[PipelineToken, ...]:
    tokens: list[PipelineToken] = []
    for i, raw in enumerate(obj["tokens"]):
        context = f"tokens[{i}]"
        node = _parse_node_id(raw["proposed_ID"], violations, context)
        if node is None:
            continue
        anchor = raw.get("spoken_anchor")
        if anchor is not None:
            anchor = _parse_node_id(anchor, violations, f"{context}.spoken_anchor")
        tokens.append(PipelineToken(
            proposed_id=node,
            orig_token_index=int(raw["orig_token_index"]),  # the schema admits 1.0
            split_token=raw["split_token"],
            lang_tag=raw.get("lang_tag", "unknown"),
            spoken_label=raw.get("spoken_label"),
            spoken_anchor=anchor,
            lemma=raw.get("lemma"),
            mwe=raw.get("mwe", False),
            sph_confidence=raw.get("sph_confidence"),
            lsr_confidence=raw.get("lsr_confidence"),
            lsr_notes=raw.get("lsr_notes") or "",
        ))
    return tuple(tokens)


def parse_id_map(obj: dict, violations: list[str]) -> dict:
    id_map: dict = {}
    for key, values in obj["proposed_id_map"].items():
        ids = [_parse_node_id(value, violations, f"proposed_id_map[{key}]")
               for value in values]
        id_map[int(key)] = tuple(node for node in ids if node is not None)
    return id_map


def _parse_stage(envelope_class, obj: dict):
    violations: list[str] = []
    envelope = envelope_class(
        sentence_id=obj["sentence_id"],
        tokens=parse_stage_tokens(obj, violations),
        id_map=parse_id_map(obj, violations),
        summary=obj.get("summary_notes") or "",
        confidence=obj.get("confidence"),
    )
    return envelope, violations


def parse_sph(obj: dict) -> tuple[SphOutput, list[str]]:
    return _parse_stage(SphOutput, obj)


def parse_lsr(obj: dict) -> tuple[LsrOutput, list[str]]:
    return _parse_stage(LsrOutput, obj)


def parse_core(obj: dict) -> tuple[CoreOutput, list[str]]:
    violations: list[str] = []
    tokens: list[CoreToken] = []
    for i, raw in enumerate(obj["annotated_tokens"]):
        node = _parse_node_id(raw["proposed_ID"], violations, f"annotated_tokens[{i}]")
        if node is None:
            continue
        tokens.append(CoreToken(
            proposed_id=node,
            form=raw["FORM"],
            lemma=raw.get("LEMMA") or "",
            upos=raw["UPOS"],
            head_id=raw["HEAD_ID"],
            head_form=raw.get("HEAD_FORM") or "",
            deprel=raw["DEPREL"],
            confidence=raw.get("core_confidence"),
            notes=raw.get("core_notes") or "",
        ))
    envelope = CoreOutput(
        sentence_id=obj["sentence_id"],
        tokens=tuple(tokens),
        summary=obj.get("summary_notes") or "",
    )
    return envelope, violations


# --- structural helpers ---------------------------------------------------------

def build_id_map(tokens: Iterable[PipelineToken]) -> dict:
    """Original index -> proposed ids, each list in node-id order."""
    id_map: dict = {}
    for token in tokens:
        id_map.setdefault(token.orig_token_index, []).append(token.proposed_id)
    return {k: tuple(sorted(v, key=lambda n: n._key()))
            for k, v in id_map.items()}


# --- semantic validation ----------------------------------------------------------

def validate_sph(envelope: SphOutput, input_sentence: Sentence) -> list[str]:
    """The checks every stage-token envelope, SPH's and LSR's, must pass."""
    violations: list[str] = []
    tokens = envelope.tokens
    if envelope.sentence_id != input_sentence.sentence_id:
        violations.append(
            f"sentence_id {envelope.sentence_id!r} does not match input "
            f"{input_sentence.sentence_id!r}")
    if not tokens:
        violations.append("token list is empty")
        return violations

    ids = [t.proposed_id for t in tokens]
    if len(set(ids)) != len(ids):
        violations.append("proposed ids are not unique")

    integers = [t for t in tokens if not t.proposed_id.is_dotted]
    majors = [t.proposed_id.major for t in integers]
    if majors != list(range(1, len(integers) + 1)):
        violations.append(
            f"integer proposed ids must be contiguous 1..{len(integers)}, got {majors}")

    present = set(ids)
    position = {t.proposed_id: i for i, t in enumerate(tokens)}
    for token in tokens:
        if token.proposed_id.is_dotted:
            if token.proposed_id.minor != 1:
                violations.append(
                    f"dotted node {token.proposed_id} must use minor 1")
            span = dotted_span(token.proposed_id, token.split_token)
            if len(span) < 2:
                violations.append(
                    f"dotted node {token.proposed_id} must span at least 2 "
                    f"underscore-joined components")
            missing = [c.major for c in span if c not in present]
            if missing:
                violations.append(
                    f"dotted node {token.proposed_id} spans missing rows {missing}")
            elif position[token.proposed_id] != position[span[-1]] + 1:
                violations.append(
                    f"dotted node {token.proposed_id} must appear immediately "
                    f"after its span")
        if token.spoken_anchor is not None and token.spoken_anchor not in present:
            violations.append(
                f"spoken_anchor {token.spoken_anchor} of {token.proposed_id} "
                f"does not exist")

    expected_indexes = set(range(1, len(input_sentence.tokens) + 1))
    actual = build_id_map(tokens)
    if set(actual) != expected_indexes:
        violations.append(
            f"id map must cover original indexes {sorted(expected_indexes)}, "
            f"got {sorted(actual)}")
    declared = {k: tuple(v) for k, v in envelope.id_map.items()}
    if declared != actual:
        violations.append(
            f"proposed_id_map is inconsistent with the token list: "
            f"declared {_fmt_map(declared)}, derived {_fmt_map(actual)}")

    by_index: dict[int, list[PipelineToken]] = {}
    for token in integers:
        by_index.setdefault(token.orig_token_index, []).append(token)
    for index, group in by_index.items():
        if len(group) == 1 and 1 <= index <= len(input_sentence.tokens):
            original = input_sentence.tokens[index - 1].form
            if group[0].split_token != original:
                violations.append(
                    f"unsplit token at original index {index} must keep its "
                    f"form {original!r}, got {group[0].split_token!r}")
    return violations


def _fmt_map(id_map: dict) -> str:
    return "{" + ", ".join(f"{k}: [{', '.join(str(i) for i in v)}]"
                           for k, v in sorted(id_map.items())) + "}"


def validate_lsr(envelope: LsrOutput, sph: SphOutput,
                 input_sentence: Sentence) -> list[str]:
    violations = validate_sph(envelope, input_sentence)

    sph_by_index: dict[int, list[PipelineToken]] = {}
    for token in sph.tokens:
        sph_by_index.setdefault(token.orig_token_index, []).append(token)
    lsr_by_index: dict[int, list[PipelineToken]] = {}
    for token in envelope.tokens:
        lsr_by_index.setdefault(token.orig_token_index, []).append(token)

    for index, sph_group in sph_by_index.items():
        lsr_group = lsr_by_index.get(index, [])
        if len(lsr_group) < len(sph_group):
            violations.append(
                f"original index {index}: upstream tokenization edits were "
                f"removed ({len(sph_group)} -> {len(lsr_group)} nodes)")
        lsr_by_form = {t.split_token: t for t in lsr_group}
        for sph_token in sph_group:
            survivor = lsr_by_form.get(sph_token.split_token)
            if (survivor is not None and sph_token.spoken_label is not None
                    and survivor.spoken_label != sph_token.spoken_label):
                violations.append(
                    f"original index {index}: spoken_label "
                    f"{sph_token.spoken_label!r} of {sph_token.split_token!r} "
                    f"was dropped")

    for token in envelope.tokens:
        if token.lemma is not None and token.lemma != token.lemma.lower():
            violations.append(
                f"lemma of {token.proposed_id} must be lowercase: {token.lemma!r}")
        if token.mwe != token.proposed_id.is_dotted:
            violations.append(
                f"mwe flag of {token.proposed_id} must mark dotted nodes only")
    return violations


def validate_core(envelope: CoreOutput, lsr: LsrOutput,
                  allowed_upos: frozenset = UPOS_TAGS,
                  allowed_deprels: frozenset = UD_RELATIONS) -> list[str]:
    violations: list[str] = []
    if envelope.sentence_id != lsr.sentence_id:
        violations.append(
            f"sentence_id {envelope.sentence_id!r} does not match upstream "
            f"{lsr.sentence_id!r}")
    expected = [t.proposed_id for t in lsr.tokens]
    actual = [t.proposed_id for t in envelope.tokens]
    if actual != expected:
        violations.append(
            f"annotated_tokens must list exactly the upstream ids in order: "
            f"expected {[str(i) for i in expected]}, got {[str(i) for i in actual]}")
        return violations

    components = mwe_components((t.proposed_id, t.split_token)
                                for t in lsr.tokens)
    roots = [t for t in envelope.tokens if t.head_id == "0"]
    if len(roots) != 1:
        violations.append(
            f"exactly one token must have HEAD_ID \"0\", found {len(roots)} "
            f"({[str(t.proposed_id) for t in roots]})")
    for token in envelope.tokens:
        if token.proposed_id in components:
            if token.upos or token.head_id or token.deprel:
                violations.append(
                    f"MWE component row {token.proposed_id} must stay "
                    f"unannotated (only the dotted node carries annotations)")
            continue
        if token.upos and token.upos not in allowed_upos:
            violations.append(
                f"UPOS {token.upos!r} of {token.proposed_id} is not allowed")
        if token.deprel:
            base = base_deprel(canonical_deprel(token.deprel))
            if base not in allowed_deprels:
                violations.append(
                    f"DEPREL {token.deprel!r} of {token.proposed_id} is not allowed")
    return violations


# --- whitelist MWEs ----------------------------------------------------------------

def apply_mwe_whitelist(envelope: LsrOutput,
                        whitelist: Iterable[str]) -> tuple[LsrOutput, list[str]]:
    """Auto-combine mandatory whitelist MWEs the model left uncombined.

    Case-insensitive contiguous form matches over integer rows gain a dotted
    node; spans already covered by one are left alone. Deterministic, logged.
    """
    from .edits import make_dotted_mwe

    log: list[str] = []
    tokens = envelope.tokens
    for expression in whitelist:
        parts = expression.lower().split()
        if len(parts) < 2:
            continue
        while True:
            integers = [t for t in tokens if not t.proposed_id.is_dotted]
            covered = mwe_components((t.proposed_id, t.split_token)
                                     for t in tokens)
            span = _find_span(integers, parts, covered)
            if span is None:
                break
            tokens, _ = make_dotted_mwe(tokens, span)
            log.append(
                f"auto-combined whitelist MWE {expression!r} over "
                f"{', '.join(str(n) for n in span)}")
    if not log:
        return envelope, []
    updated = replace(envelope, tokens=tokens, id_map=build_id_map(tokens),
                      enforcements=envelope.enforcements + tuple(log))
    return updated, log


def _find_span(integers, parts, covered):
    forms = [t.split_token.lower() for t in integers]
    for start in range(len(forms) - len(parts) + 1):
        window = integers[start:start + len(parts)]
        if forms[start:start + len(parts)] != parts:
            continue
        if any(t.proposed_id in covered for t in window):
            continue
        majors = [t.proposed_id.major for t in window]
        if majors != list(range(majors[0], majors[0] + len(parts))):
            continue
        return tuple(t.proposed_id for t in window)
    return None


def envelope_to_json_text(payload: dict) -> str:
    """Canonical serialization used for prompts and fingerprints."""
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)
