"""The frozen-dataclass ``Token`` that the slotted class in ``spokenud.core``
replaced, kept verbatim as the reference its construction, checks, field
values and ``repr`` are tested against."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from spokenud.core import LANG_TAGS, SPOKEN_LABELS, NodeId, RootSentinel


@dataclass(frozen=True)
class Token:
    """One annotated node of a spoken-UD sentence."""

    id: NodeId
    form: str
    orig_token_index: int | None = None
    lemma: str | None = None
    upos: str | None = None
    head: NodeId | RootSentinel | None = None
    deprel: str | None = None
    lang_tag: str = "unknown"
    spoken_label: str | None = None
    spoken_anchor: NodeId | None = None
    confidences: Mapping[str, float] = field(default_factory=dict)
    penalty: float = 0.0
    notes: str = ""

    def __post_init__(self):
        if isinstance(self.head, NodeId) and self.head == self.id:
            raise ValueError(f"token {self.id} cannot be its own head")
        if self.lang_tag not in LANG_TAGS:
            raise ValueError(f"unknown language tag: {self.lang_tag!r}")
        if self.spoken_label is not None and self.spoken_label not in SPOKEN_LABELS:
            raise ValueError(f"unknown spoken label: {self.spoken_label!r}")
        if not 0.0 <= self.penalty <= 1.0:
            raise ValueError(f"penalty must be in [0,1], got {self.penalty}")
        for stage, value in self.confidences.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"confidence {stage}={value} outside [0,1]")
