"""Tokenization edits: contraction splits with integer-shift renumbering and
dotted multiword-expression nodes."""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

from ..core import NodeId, SpokenUdError, mwe_components
from .envelopes import PipelineToken, build_id_map


class SplitOnDottedNode(SpokenUdError):
    pass


class SplitTargetMissing(SpokenUdError):
    pass


class EmptyPart(SpokenUdError):
    pass


class SpanTooShort(SpokenUdError):
    pass


class OverlappingMwe(SpokenUdError):
    pass


def _shift_id(node: NodeId, after_major: int, delta: int) -> NodeId:
    """Shift majors strictly greater than after_major; a dotted node whose
    span starts at the target keeps its major."""
    if node.major > after_major:
        return NodeId(node.major + delta, node.minor)
    return node


def apply_integer_shift(tokens: Sequence[PipelineToken], split_at: int,
                        parts: Sequence[str]) -> tuple[tuple[PipelineToken, ...], dict]:
    """Split the token at an original index into several integer nodes.

    The target keeps its id with the first part as its form; the remaining
    parts become consecutive new integer ids and every subsequent id (dotted
    majors included) shifts by len(parts) - 1. Spoken anchors are remapped
    the same way. Returns the new token tuple and the id-map entries that
    changed.
    """
    if len(parts) < 2:
        raise EmptyPart(f"a split needs at least 2 parts, got {list(parts)}")
    if any(not p for p in parts):
        raise EmptyPart(f"empty part in split: {list(parts)}")

    candidates = [t for t in tokens if t.orig_token_index == split_at]
    if not candidates:
        raise SplitTargetMissing(f"no token has original index {split_at}")
    integer_candidates = [t for t in candidates if not t.proposed_id.is_dotted]
    if not integer_candidates:
        raise SplitOnDottedNode(
            f"original index {split_at} only maps to dotted nodes")
    target = integer_candidates[0]
    pivot = target.proposed_id.major
    delta = len(parts) - 1

    before = build_id_map(tokens)
    out: list[PipelineToken] = []
    for token in tokens:
        if token is target:
            out.append(replace(token, split_token=parts[0],
                               spoken_anchor=_shift_anchor(token, pivot, delta)))
            for offset, part in enumerate(parts[1:], start=1):
                out.append(PipelineToken(
                    proposed_id=NodeId(pivot + offset),
                    orig_token_index=split_at,
                    split_token=part,
                    lang_tag=token.lang_tag,
                    spoken_label=token.spoken_label,
                ))
        else:
            out.append(replace(
                token,
                proposed_id=_shift_id(token.proposed_id, pivot, delta),
                spoken_anchor=_shift_anchor(token, pivot, delta)))
    result = tuple(out)
    after = build_id_map(result)
    delta_map = {k: v for k, v in after.items() if before.get(k) != v}
    return result, delta_map


def _shift_anchor(token: PipelineToken, pivot: int, delta: int) -> NodeId | None:
    if token.spoken_anchor is None:
        return None
    return _shift_id(token.spoken_anchor, pivot, delta)


def make_dotted_mwe(tokens: Sequence[PipelineToken],
                    span: Sequence[NodeId]) -> tuple[tuple[PipelineToken, ...], dict]:
    """Insert a dotted node after a contiguous run of integer nodes.

    The new node's id is <span start>.1 and its form joins the component
    forms with underscores; component rows become unannotatable.
    """
    span = list(span)
    if len(span) < 2:
        raise SpanTooShort(f"an MWE span needs at least 2 nodes, got {span}")
    if any(node.is_dotted for node in span):
        raise SpanTooShort("MWE spans cover integer nodes only")
    majors = [node.major for node in span]
    if majors != list(range(majors[0], majors[0] + len(majors))):
        raise SpanTooShort(f"MWE span must be contiguous, got {majors}")

    by_id = {t.proposed_id: t for t in tokens}
    missing = [node for node in span if node not in by_id]
    if missing:
        raise SpanTooShort(f"MWE span references missing nodes {missing}")
    dotted_id = NodeId(majors[0], 1)
    if dotted_id in by_id:
        raise OverlappingMwe(f"dotted node {dotted_id} already exists")
    covered = mwe_components((t.proposed_id, t.split_token) for t in tokens)
    clash = [node for node in span if node in covered]
    if clash:
        raise OverlappingMwe(f"nodes {clash} already belong to an MWE span")

    components = [by_id[node] for node in span]
    dotted = PipelineToken(
        proposed_id=dotted_id,
        orig_token_index=components[0].orig_token_index,
        split_token="_".join(t.split_token for t in components),
        lang_tag=_combined_lang(components),
        mwe=True,
    )
    before = build_id_map(tokens)
    out: list[PipelineToken] = []
    last = span[-1]
    for token in tokens:
        out.append(token)
        if token.proposed_id == last:
            out.append(dotted)
    result = tuple(out)
    after = build_id_map(result)
    delta_map = {k: v for k, v in after.items() if before.get(k) != v}
    return result, delta_map


def _combined_lang(components: Iterable[PipelineToken]) -> str:
    langs = {t.lang_tag for t in components}
    if len(langs) == 1:
        return langs.pop()
    return "mixed"
