"""Attachment-based metrics (LAS, UAS, CLAS, UPOS accuracy) over an alignment.

Scoring is gold-anchored: every gold annotatable token enters the
denominators, unaligned gold tokens score zero, and tokens the system
invented never inflate a denominator (they are reported as system_extra).
Category aggregation micro-averages by summing counts before dividing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (
    Category,
    NodeId,
    ROOT,
    RootSentinel,
    Sentence,
    SpokenUdError,
    annotatable_tokens,
    is_content_relation,
)
from .reporting import CategoryTable, category_table

STANDARD_TABLE_COLUMNS = ("Category", "LAS", "UAS", "CLAS", "U-LAS")


class AlignmentMismatch(SpokenUdError):
    pass


@dataclass(frozen=True)
class AttachmentCounts:
    gold_total: int = 0
    aligned: int = 0
    head_correct: int = 0
    labeled_correct: int = 0
    content_gold: int = 0
    content_labeled_correct: int = 0
    upos_correct: int = 0
    system_extra: int = 0

    def __add__(self, other: "AttachmentCounts") -> "AttachmentCounts":
        return AttachmentCounts(*(a + b for a, b in
                                  zip(self._astuple(), other._astuple())))

    def _astuple(self) -> tuple[int, ...]:
        return (self.gold_total, self.aligned, self.head_correct,
                self.labeled_correct, self.content_gold,
                self.content_labeled_correct, self.upos_correct,
                self.system_extra)


@dataclass(frozen=True)
class StandardScores:
    las: float
    uas: float
    clas: float
    upos_acc: float
    counts: AttachmentCounts
    undefined: tuple[str, ...] = ()  # ratios whose denominator was zero

    @classmethod
    def from_counts(cls, counts: AttachmentCounts) -> "StandardScores":
        undefined = []

        def ratio(name: str, numerator: int, denominator: int) -> float:
            if denominator == 0:
                undefined.append(name)
                return 0.0
            return numerator / denominator

        las = ratio("las", counts.labeled_correct, counts.gold_total)
        uas = ratio("uas", counts.head_correct, counts.gold_total)
        clas = ratio("clas", counts.content_labeled_correct, counts.content_gold)
        upos_acc = ratio("upos_acc", counts.upos_correct, counts.gold_total)
        return cls(las=las, uas=uas, clas=clas, upos_acc=upos_acc,
                   counts=counts, undefined=tuple(undefined))


def attachment_scores(gold: Sentence, system: Sentence, alignment) -> StandardScores:
    """Score a system parse against gold over an existing token alignment.

    A gold token is UAS-correct iff it is one-one aligned and the aligned
    token's head maps one-one onto the gold head (root matches root);
    LAS additionally requires an exact DEPREL string match.
    """
    gold_ids = {t.id for t in gold.tokens}
    system_ids = {t.id for t in system.tokens}
    for link in alignment.links:
        if not set(link.gold_ids) <= gold_ids or not set(link.system_ids) <= system_ids:
            raise AlignmentMismatch(
                f"alignment references unknown node ids: {link}")

    gold_to_system = alignment.one_one()
    system_to_gold = {s: g for g, s in gold_to_system.items()}

    system_by_id = system.token_index()
    annotatable = annotatable_tokens(gold)
    aligned = head_correct = labeled_correct = 0
    content_gold = content_labeled_correct = upos_correct = 0
    for token in annotatable:
        content = bool(token.deprel) and is_content_relation(token.deprel)
        content_gold += content
        partner_id = gold_to_system.get(token.id)
        if partner_id is None:
            continue
        partner = system_by_id[partner_id]
        aligned += 1
        upos_correct += partner.upos == token.upos
        if head_matches(resolve_head(partner.head, system_to_gold), token.head):
            head_correct += 1
            if partner.deprel == token.deprel:
                labeled_correct += 1
                content_labeled_correct += content
    extra = sum(1 for t in annotatable_tokens(system) if t.id not in system_to_gold)
    return StandardScores.from_counts(AttachmentCounts(
        len(annotatable), aligned, head_correct, labeled_correct, content_gold,
        content_labeled_correct, upos_correct, extra))


def resolve_head(head, system_to_gold: dict):
    """A system head in gold terms: ROOT, the one-one aligned gold id, or
    None when the head is missing or its token is not one-one aligned."""
    if isinstance(head, RootSentinel):
        return ROOT
    if isinstance(head, NodeId):
        return system_to_gold.get(head)
    return None


def head_matches(resolved, gold_head) -> bool:
    """True when a resolved system head equals the gold head."""
    if isinstance(gold_head, RootSentinel):
        return resolved is ROOT
    if isinstance(gold_head, NodeId):
        return resolved == gold_head
    return False


@dataclass(frozen=True)
class SentenceResult:
    sentence_id: str
    category: Category | None
    scores: StandardScores


def _micro_average(results: list[SentenceResult]) -> StandardScores:
    return StandardScores.from_counts(
        sum((result.scores.counts for result in results), AttachmentCounts()))


def _score_cells(scores: StandardScores) -> tuple[str, ...]:
    return (f"{scores.las:.2f}", f"{scores.uas:.2f}",
            f"{scores.clas:.2f}", f"{scores.upos_acc:.2f}")


def aggregate_by_category(results: Iterable[SentenceResult]) -> CategoryTable:
    """Micro-average per category; rows follow the fixed category order and
    end with None then Overall."""
    return category_table(results, STANDARD_TABLE_COLUMNS, _micro_average, _score_cells)
