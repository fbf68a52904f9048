"""Data model for spoken-language UD sentences and the structural validators.

Node identifiers are either plain integers or dotted pairs (``6.1``); dotted
nodes stand for multiword expressions whose component rows stay in the
sentence unannotated. The root of a tree is a distinguished sentinel value,
never a node id, so renumbering can never collide with it.
"""

from __future__ import annotations

import enum
import functools
import operator
import re
from dataclasses import dataclass, field, fields
from sys import intern
from typing import Iterable, Mapping


class SpokenUdError(Exception):
    """Base class for all toolkit errors."""


class FrozenMap(dict):
    """A dict that refuses every change; ``repr``, ``==`` and JSON are a dict's."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")
    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return FrozenMap, (dict(self),)


# The 17 universal POS tags.
UPOS_TAGS = frozenset({
    "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
})

# UD v2 universal relations; reparandum is the canonical label for speech
# repairs ("rep" is accepted on input and normalized).
UD_RELATIONS = frozenset({
    "acl", "advcl", "advmod", "amod", "appos", "aux", "case", "cc", "ccomp",
    "clf", "compound", "conj", "cop", "csubj", "dep", "det", "discourse",
    "dislocated", "expl", "fixed", "flat", "goeswith", "iobj", "list",
    "mark", "nmod", "nsubj", "nummod", "obj", "obl", "orphan", "parataxis",
    "punct", "reparandum", "root", "vocative", "xcomp",
})

DEPREL_ALIASES = {"rep": "reparandum"}

# Relations excluded from content-labeled scoring (CoNLL 2018 convention).
FUNCTIONAL_RELATIONS = frozenset({
    "aux", "cop", "case", "det", "clf", "mark", "cc", "punct",
})

LANG_TAGS = ("eng", "spa", "mixed", "unknown")

SPOKEN_LABELS = ("reparandum", "dep", "discourse", "filler", "none")
NO_CONFIDENCES = FrozenMap()  # every Token without confidences holds this one

_SURROGATE = re.compile("[\ud800-\udfff]")  # the one text UTF-8 cannot encode
CONTROL_CHARACTER = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f\ufeff]")  # C0, DEL and BOM


def breaks_cell(text: str) -> str:
    """What in ``text`` no CoNLL-U or sheet cell can hold, or "" if nothing."""
    if text.isprintable():  # then it holds none of the below
        return ""
    if "\t" in text or "\n" in text or "\r" in text:
        return "a tab or line break"
    if found := CONTROL_CHARACTER.search(text):
        return f"a control character U+{ord(found.group()):04X}"
    return "a lone surrogate" if _SURROGATE.search(text) else ""


def canonical_deprel(label: str) -> str:
    """Normalize input aliases (``rep`` -> ``reparandum``)."""
    return DEPREL_ALIASES.get(label, label)


def base_deprel(label: str) -> str:
    """Strip a language-specific subtype: ``aux:pass`` -> ``aux``."""
    return label.split(":", 1)[0]


def is_content_relation(deprel: str) -> bool:
    """True unless the relation (ignoring subtypes) is functional."""
    if not deprel:
        raise ValueError("empty dependency relation")
    return base_deprel(deprel) not in FUNCTIONAL_RELATIONS


class NodeId(tuple):
    """Token identifier: a positive integer, optionally with a dotted minor.

    The tuple ``(major, minor)``, with minor 0 for an integer id, so hashing,
    equality and ordering are the tuple's and run in C: 6 < 6.1 < 7, as
    ``(6, 0) < (6, 1) < (7, 0)``. ``minor`` reads None for an integer id.
    """

    __slots__ = ()
    major = property(operator.itemgetter(0))

    def __new__(cls, major: int, minor: int | None = None):
        if major < 1:
            raise ValueError(f"node major must be >= 1, got {major}")
        if minor is not None and minor < 1:
            raise ValueError(f"dotted minor must be >= 1, got {minor}")
        return tuple.__new__(cls, (major, minor or 0))

    def __getnewargs__(self) -> tuple[int, int | None]:
        return (self[0], self.minor)

    def __repr__(self) -> str:
        return f"NodeId(major={self[0]!r}, minor={self.minor!r})"

    @property
    def minor(self) -> int | None:
        return self[1] or None

    @property
    def is_dotted(self) -> bool:
        return self[1] != 0

    def __str__(self) -> str:
        return f"{self[0]}.{self[1]}" if self[1] else str(self[0])

    _TEXT = re.compile(r"([0-9]+)(?:\.([0-9]+))?")

    @staticmethod
    @functools.lru_cache(maxsize=4096)
    def parse(text: str) -> "NodeId":
        """``N`` or ``N.M`` in ASCII digits, N, M >= 1, and nothing else."""
        match = NodeId._TEXT.fullmatch(text)
        if match is None:
            raise ValueError(f"not a node id: {text!r}")
        major, minor = match.groups()
        return NodeId(int(major), None if minor is None else int(minor))


class RootSentinel:
    """Distinguished head value marking the tree root; serialized as "0"."""

    _instance: "RootSentinel | None" = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ROOT"

    def __reduce__(self) -> str:
        # Pickled by name, so every pickle protocol and copy keep the singleton.
        return "ROOT"


ROOT = RootSentinel()


class Category(enum.Enum):
    """The ten benchmark categories, in report row order."""

    SIMPLE_REPETITION = "simple-repetition"
    COMPLEX_REPETITION = "complex-repetition"
    CONTRACTION_EN = "contraction-en"
    CONTRACTION_ES = "contraction-es"
    SIMPLE_ELLIPSIS = "simple-ellipsis"
    COMPLEX_ELLIPSIS = "complex-ellipsis"
    SIMPLE_DISCOURSE = "simple-discourse"
    COMPLEX_DISCOURSE = "complex-discourse"
    HIGHLY_COMPLEX = "highly-complex"
    NONE = "none"

    @classmethod
    def from_label(cls, label: str) -> "Category":
        for member in cls:
            if member.value == label:
                return member
        raise UnknownCategory(label)

    @property
    def display_label(self) -> str:
        return _CATEGORY_DISPLAY[self]


_CATEGORY_DISPLAY = {
    Category.SIMPLE_REPETITION: "Repetition",
    Category.COMPLEX_REPETITION: "Repetition+",
    Category.CONTRACTION_EN: "Contr. (EN)",
    Category.CONTRACTION_ES: "Contr. (ES)",
    Category.SIMPLE_ELLIPSIS: "Ellipsis",
    Category.COMPLEX_ELLIPSIS: "Ellipsis+",
    Category.SIMPLE_DISCOURSE: "Discourse",
    Category.COMPLEX_DISCOURSE: "Discourse+",
    Category.HIGHLY_COMPLEX: "Complex",
    Category.NONE: "None",
}


class UnknownCategory(SpokenUdError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"unknown category label: {label!r}")


@dataclass(frozen=True, slots=True, init=False)
class Token:
    """One annotated node of a spoken-UD sentence. Slotted: ``__init__`` holds the
    defaults and checks, interns str cells and stores through the slot descriptors."""

    id: NodeId
    form: str
    orig_token_index: int | None
    lemma: str | None
    upos: str | None
    head: NodeId | RootSentinel | None
    deprel: str | None
    lang_tag: str
    spoken_label: str | None
    spoken_anchor: NodeId | None
    confidences: Mapping[str, float]
    penalty: float
    notes: str

    def __init__(self, id, form, orig_token_index=None, lemma=None, upos=None,
                 head=None, deprel=None, lang_tag="unknown", spoken_label=None,
                 spoken_anchor=None, confidences=None, penalty=0.0, notes=""):
        if isinstance(head, NodeId) and head == id:
            raise ValueError(f"token {id} cannot be its own head")
        if lang_tag not in LANG_TAGS:
            raise ValueError(f"unknown language tag: {lang_tag!r}")
        if spoken_label is not None and spoken_label not in SPOKEN_LABELS:
            raise ValueError(f"unknown spoken label: {spoken_label!r}")
        if not 0.0 <= penalty <= 1.0:
            raise ValueError(f"penalty must be in [0,1], got {penalty}")
        if confidences:
            confidences = confidences if type(confidences) is FrozenMap else FrozenMap(confidences)
            for stage, value in confidences.items():
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"confidence {stage}={value} outside [0,1]")
        _set_id(self, id)
        _set_form(self, intern(form) if type(form) is str else form)
        _set_orig_token_index(self, orig_token_index)
        _set_lemma(self, intern(lemma) if type(lemma) is str else lemma)
        _set_upos(self, intern(upos) if type(upos) is str else upos)
        _set_head(self, head)
        _set_deprel(self, intern(deprel) if type(deprel) is str else deprel)
        _set_lang_tag(self, lang_tag)
        _set_spoken_label(self, spoken_label)
        _set_spoken_anchor(self, spoken_anchor)
        _set_confidences(self, confidences or NO_CONFIDENCES)
        _set_penalty(self, penalty)
        _set_notes(self, notes)


# The slot setters Token.__init__ stores through: a frozen dataclass refuses setattr.
(_set_id, _set_form, _set_orig_token_index, _set_lemma, _set_upos, _set_head,
 _set_deprel, _set_lang_tag, _set_spoken_label, _set_spoken_anchor,
 _set_confidences, _set_penalty, _set_notes) = (
    Token.__dict__[f.name].__set__ for f in fields(Token))


@dataclass(frozen=True)
class Sentence:
    """An ordered sequence of tokens plus sentence-level metadata."""

    sentence_id: str
    tokens: tuple[Token, ...]
    category: Category | None = None
    metadata: Mapping[str, object] = field(default_factory=dict)

    def token_index(self) -> dict[NodeId, Token]:
        return {t.id: t for t in self.tokens}


def dotted_span(node: NodeId, form: str) -> list[NodeId]:
    """Integer ids a dotted MWE node's span covers, present or not: one row
    per underscore-separated component of its form, from its own major."""
    width = form.count("_") + 1
    return [NodeId(major) for major in range(node.major, node.major + width)]


def mwe_components(pairs: Iterable[tuple[NodeId, str]]) -> dict[NodeId, NodeId]:
    """Present component id -> the dotted node whose span covers it, over
    (id, form) pairs; when two dotted nodes cover a component the later wins."""
    pairs = list(pairs)
    dotted = [(node, form) for node, form in pairs if node.is_dotted]
    present = {node for node, _ in pairs} if dotted else ()
    covering: dict[NodeId, NodeId] = {}
    for node, form in dotted:
        for component in dotted_span(node, form):
            if component in present:
                covering[component] = node
    return covering


def mwe_component_ids(sentence: Sentence) -> set[NodeId]:
    """Present integer node ids covered by a dotted MWE node's span."""
    dotted = [t for t in sentence.tokens if t.id.is_dotted]
    present = {t.id for t in sentence.tokens} if dotted else ()
    return {c for t in dotted for c in dotted_span(t.id, t.form) if c in present}


def annotatable_tokens(sentence: Sentence) -> list[Token]:
    """Tokens that carry annotations: everything except MWE component rows."""
    components = mwe_component_ids(sentence)
    return [t for t in sentence.tokens if t.id not in components]


class IssueCode(enum.Enum):
    NO_ROOT = "NoRoot"
    MULTIPLE_ROOTS = "MultipleRoots"
    CYCLE = "Cycle"
    DANGLING_HEAD = "DanglingHead"
    DANGLING_ANCHOR = "DanglingAnchor"
    ID_ORDER = "IdOrder"
    MWE_COMPONENT_ANNOTATED = "MweComponentAnnotated"


@dataclass(frozen=True)
class ValidationIssue:
    code: IssueCode
    node_ids: tuple[NodeId, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[ValidationIssue, ...]

    @classmethod
    def from_issues(cls, issues: Iterable[ValidationIssue]) -> "ValidationReport":
        issues = tuple(issues)
        return cls(ok=not issues, issues=issues)


def validate_tree(sentence: Sentence) -> ValidationReport:
    """Check structural well-formedness; reports problems, never raises.

    Detects missing/multiple roots, dangling head references, missing heads
    on annotatable rows, head-link cycles, out-of-order node ids, dangling
    spoken anchors, and annotations on MWE component rows.
    """
    issues: list[ValidationIssue] = []
    tokens = sentence.tokens
    present = {t.id for t in tokens}
    components = mwe_component_ids(sentence)

    for prev, cur in zip(tokens, tokens[1:]):
        if not prev.id < cur.id:
            issues.append(ValidationIssue(
                IssueCode.ID_ORDER, (prev.id, cur.id),
                f"node id {cur.id} does not increase after {prev.id}"))

    roots = [t for t in tokens if isinstance(t.head, RootSentinel)]
    if not roots:
        issues.append(ValidationIssue(IssueCode.NO_ROOT, (), "no root node"))
    elif len(roots) > 1:
        issues.append(ValidationIssue(
            IssueCode.MULTIPLE_ROOTS, tuple(t.id for t in roots),
            f"{len(roots)} root nodes"))

    for token in tokens:
        if isinstance(token.head, NodeId) and token.head not in present:
            issues.append(ValidationIssue(
                IssueCode.DANGLING_HEAD, (token.id,),
                f"head {token.head} of {token.id} does not exist"))
        elif token.head is None and token.id not in components:
            issues.append(ValidationIssue(
                IssueCode.DANGLING_HEAD, (token.id,),
                f"annotatable node {token.id} has no head"))
        if token.spoken_anchor is not None and token.spoken_anchor not in present:
            issues.append(ValidationIssue(
                IssueCode.DANGLING_ANCHOR, (token.id,),
                f"spoken anchor {token.spoken_anchor} of {token.id} does not exist"))

    for cycle in head_cycles(tokens, present):
        issues.append(ValidationIssue(
            IssueCode.CYCLE, tuple(cycle),
            "head links form a cycle: " + ", ".join(str(n) for n in cycle)))

    for token in tokens:
        if token.id in components and (
                token.upos is not None or token.head is not None
                or token.deprel is not None):
            issues.append(ValidationIssue(
                IssueCode.MWE_COMPONENT_ANNOTATED, (token.id,),
                f"MWE component row {token.id} carries annotations"))

    return ValidationReport.from_issues(issues)


def head_cycles(nodes: Iterable, present: set[NodeId]) -> list[list[NodeId]]:
    """All disjoint cycles among the head links of ``nodes`` (objects with
    ``id`` and ``head``; heads outside ``present`` are ignored), sorted by
    smallest member."""
    head_of = {n.id: n.head for n in nodes
               if isinstance(n.head, NodeId) and n.head in present}
    color: dict[NodeId, int] = {}  # 1 = on current path, 2 = done
    cycles: list[list[NodeId]] = []
    for start in head_of:
        if color.get(start):
            continue
        path: list[NodeId] = []
        node: NodeId | None = start
        while node is not None and node in head_of and not color.get(node):
            color[node] = 1
            path.append(node)
            node = head_of[node]
        if node is not None and color.get(node) == 1:
            cycles.append(sorted(path[path.index(node):]))
        for visited in path:
            color[visited] = 2
    cycles.sort(key=lambda c: (len(c), c[0]))
    return cycles
