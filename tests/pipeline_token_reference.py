"""The frozen dataclasses ``PipelineToken`` and ``CoreToken`` that the slotted
classes in ``spokenud.pipeline.envelopes`` replaced, kept verbatim as the
reference their construction, field values, ``repr`` and hashes are tested
against."""

from __future__ import annotations

from dataclasses import dataclass

from spokenud.core import NodeId


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
