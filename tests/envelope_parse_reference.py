"""The stage parsers and semantic validators as they were before the parsers
began to trust the stage schemas, kept verbatim as the reference the current
ones are tested against (``tests/test_envelope_differential.py``)."""

from __future__ import annotations

from spokenud.core import (
    LANG_TAGS,
    SPOKEN_LABELS,
    NodeId,
    Sentence,
    UPOS_TAGS,
    UD_RELATIONS,
    base_deprel,
    canonical_deprel,
    dotted_span,
    mwe_components,
)
from spokenud.pipeline.envelopes import (
    CoreOutput,
    CoreToken,
    LsrOutput,
    PipelineToken,
    SphOutput,
    build_id_map,
)


# --- parsing ------------------------------------------------------------------

def _parse_node_id(text, violations: list[str], context: str) -> NodeId | None:
    try:
        return NodeId.parse(str(text))
    except (ValueError, AttributeError):
        violations.append(f"{context}: bad node id {text!r}")
        return None


def parse_stage_tokens(obj: dict, violations: list[str]) -> tuple[PipelineToken, ...]:
    tokens: list[PipelineToken] = []
    for i, raw in enumerate(obj.get("tokens", ())):
        context = f"tokens[{i}]"
        node = _parse_node_id(raw.get("proposed_ID"), violations, context)
        if node is None:
            continue
        anchor = None
        if raw.get("spoken_anchor") is not None:
            anchor = _parse_node_id(raw["spoken_anchor"], violations,
                                    f"{context}.spoken_anchor")
        label = raw.get("spoken_label")
        if label is not None and label not in SPOKEN_LABELS:
            violations.append(f"{context}: unknown spoken_label {label!r}")
            label = None
        lang = raw.get("lang_tag", "unknown")
        if lang not in LANG_TAGS:
            violations.append(f"{context}: unknown lang_tag {lang!r}")
            lang = "unknown"
        tokens.append(PipelineToken(
            proposed_id=node,
            orig_token_index=int(raw.get("orig_token_index", 0) or 0),
            split_token=str(raw.get("split_token", "")),
            lang_tag=lang,
            spoken_label=label,
            spoken_anchor=anchor,
            lemma=raw.get("lemma"),
            mwe=bool(raw.get("mwe", False)),
            sph_confidence=raw.get("sph_confidence"),
            lsr_confidence=raw.get("lsr_confidence"),
            lsr_notes=str(raw.get("lsr_notes", "") or ""),
        ))
    return tuple(tokens)


def parse_id_map(obj: dict, violations: list[str]) -> dict:
    id_map: dict = {}
    for key, values in obj.get("proposed_id_map", {}).items():
        try:
            index = int(key)
        except ValueError:
            violations.append(f"proposed_id_map: bad original index {key!r}")
            continue
        ids = []
        for value in values:
            node = _parse_node_id(value, violations, f"proposed_id_map[{key}]")
            if node is not None:
                ids.append(node)
        id_map[index] = tuple(ids)
    return id_map


def _parse_stage(envelope_class, obj: dict):
    violations: list[str] = []
    tokens = parse_stage_tokens(obj, violations)
    envelope = envelope_class(
        sentence_id=str(obj.get("sentence_id", "")),
        tokens=tokens,
        id_map=parse_id_map(obj, violations),
        summary=str(obj.get("summary_notes", "") or ""),
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
    for i, raw in enumerate(obj.get("annotated_tokens", ())):
        context = f"annotated_tokens[{i}]"
        node = _parse_node_id(raw.get("proposed_ID"), violations, context)
        if node is None:
            continue
        tokens.append(CoreToken(
            proposed_id=node,
            form=str(raw.get("FORM", "") or ""),
            lemma=str(raw.get("LEMMA", "") or ""),
            upos=str(raw.get("UPOS", "") or ""),
            head_id=str(raw.get("HEAD_ID", "") or ""),
            head_form=str(raw.get("HEAD_FORM", "") or ""),
            deprel=str(raw.get("DEPREL", "") or ""),
            confidence=raw.get("core_confidence"),
            notes=str(raw.get("core_notes", "") or ""),
        ))
    envelope = CoreOutput(
        sentence_id=str(obj.get("sentence_id", "")),
        tokens=tuple(tokens),
        summary=str(obj.get("summary_notes", "") or ""),
    )
    return envelope, violations


# --- semantic validation ----------------------------------------------------------

def _check_stage_tokens(envelope: SphOutput, input_sentence: Sentence,
                        violations: list[str]) -> None:
    tokens = envelope.tokens
    if envelope.sentence_id != input_sentence.sentence_id:
        violations.append(
            f"sentence_id {envelope.sentence_id!r} does not match input "
            f"{input_sentence.sentence_id!r}")
    if not tokens:
        violations.append("token list is empty")
        return

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
        for name, value in (("sph_confidence", token.sph_confidence),
                            ("lsr_confidence", token.lsr_confidence)):
            if value is not None and not 0.0 <= value <= 1.0:
                violations.append(
                    f"{name} of {token.proposed_id} outside [0,1]: {value}")

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


def _fmt_map(id_map: dict) -> str:
    return "{" + ", ".join(f"{k}: [{', '.join(str(i) for i in v)}]"
                           for k, v in sorted(id_map.items())) + "}"


def validate_sph(envelope: SphOutput, input_sentence: Sentence) -> list[str]:
    violations: list[str] = []
    _check_stage_tokens(envelope, input_sentence, violations)
    if envelope.confidence is not None and not 0.0 <= envelope.confidence <= 1.0:
        violations.append(f"confidence outside [0,1]: {envelope.confidence}")
    return violations


def validate_lsr(envelope: LsrOutput, sph: SphOutput,
                 input_sentence: Sentence) -> list[str]:
    violations: list[str] = []
    _check_stage_tokens(envelope, input_sentence, violations)

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
        if token.confidence is not None and not 0.0 <= token.confidence <= 1.0:
            violations.append(
                f"core_confidence of {token.proposed_id} outside [0,1]")
    return violations
