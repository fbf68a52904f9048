"""Readers and writers for CoNLL-U, the 15-column sheet table, and the
benchmark manifest.

Parsing and emission are pure and deterministic: equal inputs produce
byte-equal outputs, and ``parse(emit(x))`` reproduces every field the data
model stores. Confidence and penalty values serialize with three decimal
places so golden files diff cleanly.
"""

from __future__ import annotations

import json
import urllib.parse
from dataclasses import dataclass, field
from typing import Iterable

from .core import (
    LANG_TAGS,
    ROOT,
    Category,
    NodeId,
    RootSentinel,
    Sentence,
    SpokenUdError,
    Token,
    mwe_component_ids,
)

CONLLU_COLUMNS = 10

SHEET_COLUMNS = (
    "sentence_id", "orig_token_index", "split_token", "ID", "sheet_ID",
    "FORM", "LEMMA", "UPOS", "HEAD_ID", "sheet_HEAD_ID", "HEAD", "DEPREL",
    "final_confidence", "penalty", "adjudication_note",
)


class MalformedLine(SpokenUdError):
    def __init__(self, line_no: int, content: str, reason: str):
        self.line_no = line_no
        self.content = content
        super().__init__(f"line {line_no}: {reason}: {content!r}")


class HeaderMismatch(SpokenUdError):
    pass


class InconsistentHeadForm(SpokenUdError):
    def __init__(self, line_no: int, head_text: str, expected: str):
        self.line_no = line_no
        super().__init__(
            f"line {line_no}: HEAD column reads {head_text!r} but the head row's "
            f"FORM is {expected!r}")


class DuplicateSentenceId(SpokenUdError):
    def __init__(self, sentence_id: str):
        self.sentence_id = sentence_id
        super().__init__(f"duplicate sentence id: {sentence_id}")


class CategoryCountMismatch(SpokenUdError):
    pass


def format_score(value: float) -> str:
    return f"{value:.3f}"


def _index(text: str) -> int:
    """A count or position: ASCII digits ([0-9]+) and nothing else."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a non-negative integer: {text!r}")
    return int(text)


# --- CoNLL-U ----------------------------------------------------------------

def _token_misc(token: Token) -> str:
    parts: list[str] = []
    if token.lang_tag != "unknown":
        parts.append(f"Lang={token.lang_tag}")
    if token.spoken_label is not None:
        parts.append(f"SpokenLabel={token.spoken_label}")
    if token.spoken_anchor is not None:
        parts.append(f"SpokenAnchor={token.spoken_anchor}")
    if token.orig_token_index is not None:
        parts.append(f"OrigIndex={token.orig_token_index}")
    for stage in sorted(token.confidences):
        parts.append(f"Conf:{stage}={format_score(token.confidences[stage])}")
    if token.penalty:
        parts.append(f"Penalty={format_score(token.penalty)}")
    if token.notes:
        parts.append(f"Notes={urllib.parse.quote(token.notes, safe='')}")
    return "|".join(parts) if parts else "_"


def _decode_misc(misc: str) -> tuple:
    """The MISC-borne Token fields, in Token order: orig_token_index,
    lang_tag, spoken_label, spoken_anchor, confidences, penalty, notes."""
    orig_index = spoken_label = spoken_anchor = None
    lang_tag, confidences, penalty, notes = "unknown", {}, 0.0, ""
    for item in misc.split("|"):
        key, sep, value = item.partition("=")
        if not sep:
            continue  # foreign MISC entries without '=' are dropped
        if key == "Lang":
            lang_tag = value if value in LANG_TAGS else "unknown"
        elif key == "SpokenLabel":
            spoken_label = value
        elif key == "SpokenAnchor":
            spoken_anchor = NodeId.parse(value)
        elif key == "OrigIndex":
            orig_index = _index(value)
        elif key.startswith("Conf:"):
            confidences[key[5:]] = float(value)
        elif key == "Penalty":
            penalty = float(value)
        elif key == "Notes":
            notes = urllib.parse.unquote(value)
    return (orig_index, lang_tag, spoken_label, spoken_anchor, confidences,
            penalty, notes)


def parse_conllu(text: str) -> list[Sentence]:
    """Parse CoNLL-U text into sentences.

    Comment lines populate metadata (``sent_id`` and ``category`` are
    recognized), multiword-token range lines are preserved as metadata, and
    dotted ids become dotted nodes. A line that does not have exactly 10
    tab-separated columns raises MalformedLine.

    One pass over the lines. Each distinct MISC cell is decoded once per
    call; every Token gets its own confidences dict.
    """
    sentences: list[Sentence] = []
    misc_memo: dict[str, tuple] = {}
    parse_id = NodeId.parse
    in_block = False
    for line_no, line in enumerate([*text.split("\n"), ""], start=1):  # "" ends a block
        if not line or line.isspace():
            if in_block:
                if comments:
                    metadata["comments"] = tuple(comments)
                if mwt_lines:
                    metadata["mwt"] = tuple(mwt_lines)
                sentences.append(Sentence(sentence_id, tuple(tokens), category, metadata))
                in_block = False
            continue
        if not in_block:  # a block's first line
            in_block, sentence_id, category = True, "", None
            metadata, comments, mwt_lines, tokens = {}, [], [], []
        if line[0] == "#":
            body = line[1:].strip()
            key, sep, value = body.partition("=")
            if sep:
                key, value = key.strip(), value.strip()
                if key == "sent_id":
                    sentence_id = value
                elif key == "category":
                    category = Category.from_label(value)
                else:
                    metadata[key] = value
            else:
                comments.append(body)
            continue
        columns = line.split("\t")
        if len(columns) != CONLLU_COLUMNS:
            raise MalformedLine(line_no, line, f"expected 10 columns, got {len(columns)}")
        id_col, form, lemma, upos, _xpos, _feats, head_col, deprel, _deps, misc = columns
        if "-" in id_col:
            try:
                mwt_lines.append((_index(id_col.split("-", 1)[0]), tuple(columns)))
            except ValueError:
                raise MalformedLine(line_no, line, "bad multiword token range")
            continue
        try:
            node_id = parse_id(id_col)
        except ValueError:
            raise MalformedLine(line_no, line, f"bad node id {id_col!r}")
        if head_col == "_":
            head: NodeId | RootSentinel | None = None
        elif head_col == "0":
            head = ROOT
        else:
            try:
                head = parse_id(head_col)
            except ValueError:
                raise MalformedLine(line_no, line, f"bad head id {head_col!r}")
        try:
            decoded = misc_memo.get(misc)
            if decoded is None:
                decoded = misc_memo[misc] = _decode_misc(misc)
            orig_index, lang_tag, label, anchor, confidences, penalty, notes = decoded
            tokens.append(Token(
                node_id, form, orig_index, None if lemma == "_" else lemma,
                None if upos == "_" else upos, head,
                None if deprel == "_" else deprel, lang_tag, label, anchor,
                dict(confidences), penalty, notes))
        except ValueError as err:
            raise MalformedLine(line_no, line, str(err))
    return sentences


def emit_conllu(sentences: Iterable[Sentence]) -> str:
    out: list[str] = []
    for sentence in sentences:
        if sentence.sentence_id:
            out.append(f"# sent_id = {sentence.sentence_id}")
        if sentence.category is not None:
            out.append(f"# category = {sentence.category.value}")
        reserved = {"comments", "mwt"}
        for key in sorted(k for k in sentence.metadata if k not in reserved):
            out.append(f"# {key} = {sentence.metadata[key]}")
        for comment in sentence.metadata.get("comments", ()):
            out.append(f"# {comment}")
        mwt_by_start: dict[int, list[tuple[str, ...]]] = {}
        for start, columns in sentence.metadata.get("mwt", ()):
            mwt_by_start.setdefault(start, []).append(columns)
        for token in sentence.tokens:
            if not token.id.is_dotted:
                for columns in mwt_by_start.pop(token.id.major, ()):
                    out.append("\t".join(columns))
            out.append(_emit_token_line(token))
        out.append("")
    return "\n".join(out) + ("\n" if out else "")


def _emit_token_line(token: Token) -> str:
    if "\t" in token.form:
        raise SpokenUdError(f"tab inside FORM of token {token.id}")
    if isinstance(token.head, RootSentinel):
        head = "0"
    elif token.head is None:
        head = "_"
    else:
        head = str(token.head)
    columns = (
        str(token.id),
        token.form,
        token.lemma if token.lemma is not None else "_",
        token.upos if token.upos is not None else "_",
        "_",
        "_",
        head,
        token.deprel if token.deprel is not None else "_",
        "_",
        _token_misc(token),
    )
    return "\t".join(columns)


# --- sheet table ------------------------------------------------------------

@dataclass(frozen=True)
class SheetRow:
    """One row of the final annotation table (fixed 15-column layout)."""

    sentence_id: str
    orig_token_index: int | None
    split_token: str
    id: NodeId
    sheet_id: int
    form: str
    lemma: str
    upos: str
    head_id: str  # node id text, "0" for root, "" for unannotated rows
    sheet_head_id: int | None
    head: str  # FORM of the head row, or "root", or ""
    deprel: str
    final_confidence: float | None
    penalty: float
    adjudication_note: str


def sheet_rows_for_sentence(sentence: Sentence) -> list[SheetRow]:
    """Project a sentence onto sheet rows, assigning contiguous sheet ids."""
    components = mwe_component_ids(sentence)
    sheet_of = {t.id: i for i, t in enumerate(sentence.tokens, start=1)}
    by_id = sentence.token_index()
    rows = []
    for token in sentence.tokens:
        if isinstance(token.head, RootSentinel):
            head_id, sheet_head, head_text = "0", 0, "root"
        elif isinstance(token.head, NodeId):
            head_id = str(token.head)
            sheet_head = sheet_of[token.head]
            # HEAD mirrors the head row's FORM cell, which is blank for
            # unannotated MWE component rows.
            head_text = "" if token.head in components else by_id[token.head].form
        else:
            head_id, sheet_head, head_text = "", None, ""
        unannotated = token.id in components
        rows.append(SheetRow(
            sentence_id=sentence.sentence_id,
            orig_token_index=token.orig_token_index,
            split_token=token.form,
            id=token.id,
            sheet_id=sheet_of[token.id],
            form="" if unannotated else token.form,
            lemma=token.lemma or "",
            upos=token.upos or "",
            head_id=head_id,
            sheet_head_id=sheet_head,
            head=head_text,
            deprel=token.deprel or "",
            final_confidence=token.confidences.get("final"),
            penalty=token.penalty,
            adjudication_note=token.notes,
        ))
    return rows


def emit_sheet(sentences: Iterable[Sentence]) -> str:
    lines = ["\t".join(SHEET_COLUMNS)]
    for sentence in sentences:
        for row in sheet_rows_for_sentence(sentence):
            lines.append(format_sheet_row(row))
    return "\n".join(lines) + "\n"


def format_sheet_row(row: SheetRow) -> str:
    cells = (
        row.sentence_id,
        "" if row.orig_token_index is None else str(row.orig_token_index),
        row.split_token,
        str(row.id),
        str(row.sheet_id),
        row.form,
        row.lemma,
        row.upos,
        row.head_id,
        "" if row.sheet_head_id is None else str(row.sheet_head_id),
        row.head,
        row.deprel,
        "" if row.final_confidence is None else format_score(row.final_confidence),
        format_score(row.penalty),
        row.adjudication_note,
    )
    for cell in cells:
        if "\t" in cell or "\n" in cell:
            raise SpokenUdError(f"tab or newline inside sheet cell: {cell!r}")
    return "\t".join(cells)


def parse_sheet(text: str) -> list[Sentence]:
    """Parse a sheet table back into sentences.

    Verifies the fixed header, per-sentence sheet id contiguity, and that
    every HEAD string equals the FORM of the row its sheet_HEAD_ID points to.
    """
    lines = text.split("\n")
    if not lines or lines[0].split("\t") != list(SHEET_COLUMNS):
        raise HeaderMismatch(f"sheet header does not match: {lines[0]!r}")
    groups: list[tuple[str, list[tuple[int, list[str]]]]] = []
    for line_no, line in enumerate(lines[1:], start=2):
        if line.strip() == "":
            continue
        cells = line.split("\t")
        if len(cells) != len(SHEET_COLUMNS):
            raise MalformedLine(line_no, line,
                                f"expected {len(SHEET_COLUMNS)} columns, got {len(cells)}")
        sid = cells[0]
        if not groups or groups[-1][0] != sid:
            groups.append((sid, []))
        groups[-1][1].append((line_no, cells))
    return [_sheet_group_to_sentence(sid, rows) for sid, rows in groups]


def _sheet_group_to_sentence(sid: str, rows: list[tuple[int, list[str]]]) -> Sentence:
    sheet_ids = [_sheet_number(line_no, cells[4], "sheet_ID", len(rows))
                 for line_no, cells in rows]
    if sheet_ids != list(range(1, len(rows) + 1)):
        raise MalformedLine(rows[0][0], rows[0][1][4],
                            f"sheet ids for {sid} are not contiguous 1..N")
    forms = ["root"] + [cells[5] for _, cells in rows]
    tokens: list[Token] = []
    for line_no, cells in rows:
        (_, orig, split_token, id_text, _, form, lemma, upos,
         head_id, sheet_head, head_text, deprel, conf, penalty, note) = cells
        if sheet_head:
            expected = forms[_sheet_number(line_no, sheet_head, "sheet_HEAD_ID", len(rows))]
            if head_text != expected:
                raise InconsistentHeadForm(line_no, head_text, expected)
        try:
            if head_id == "0":
                head: NodeId | RootSentinel | None = ROOT
            elif head_id:
                head = NodeId.parse(head_id)
            else:
                head = None
            confidences = {"final": float(conf)} if conf else {}
            tokens.append(Token(
                id=NodeId.parse(id_text),
                form=split_token,
                orig_token_index=_index(orig) if orig else None,
                lemma=lemma or None,
                upos=upos or None,
                head=head,
                deprel=deprel or None,
                confidences=confidences,
                penalty=float(penalty) if penalty else 0.0,
                notes=note,
            ))
        except ValueError as err:
            raise MalformedLine(line_no, "\t".join(cells), str(err))
    return Sentence(sentence_id=sid, tokens=tuple(tokens))


def _sheet_number(line_no: int, text: str, column: str, top: int) -> int:
    try:
        value = _index(text)
    except ValueError:  # not digits, or too many for int()
        value = -1
    if not 0 <= value <= top:
        raise MalformedLine(line_no, text, f"{column} must be in 0..{top}")
    return value


# --- benchmark manifest -----------------------------------------------------

@dataclass(frozen=True)
class ManifestEntry:
    sentence_id: str
    category: Category
    tokens: tuple[tuple[str, str], ...]  # (form, lang_tag)
    gold: Sentence


@dataclass(frozen=True)
class BenchmarkManifest:
    entries: tuple[ManifestEntry, ...]
    declared_counts: dict = field(default_factory=dict)

    def category_distribution(self) -> dict[Category, int]:
        distribution: dict[Category, int] = {}
        for entry in self.entries:
            distribution[entry.category] = distribution.get(entry.category, 0) + 1
        return distribution


def load_manifest(path) -> BenchmarkManifest:
    """Load a JSON-lines manifest of benchmark sentences.

    Each line holds one object with keys sentence_id, category, tokens and
    gold_conllu. An optional leading line with a ``category_counts`` object
    declares the expected per-category distribution and is checked. Every
    refusal names the path and the line.
    """
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    declared: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _manifest_object(line)
                if line_no == 1 and "category_counts" in obj:
                    declared = _declared_counts(obj["category_counts"])
                else:
                    entries.append(_manifest_entry(obj, seen))
            except SpokenUdError as err:
                # Keep the error's type; prefix its message with the location.
                err.args = (f"{path}: line {line_no}: {err}",)
                raise
    manifest = BenchmarkManifest(tuple(entries), declared)
    if declared:
        actual = manifest.category_distribution()
        if actual != {k: v for k, v in declared.items() if v}:
            raise CategoryCountMismatch(
                f"{path}: line 1: declared {_counts_text(declared)} but found "
                f"{_counts_text(actual)}")
    return manifest


def _manifest_object(line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise SpokenUdError(f"not valid JSON: {err}") from err
    if not isinstance(obj, dict):
        raise SpokenUdError("expected a JSON object")
    return obj


def _declared_counts(counts) -> dict[Category, int]:
    if not isinstance(counts, dict):
        raise SpokenUdError(f"category_counts must be an object, found {counts!r}")
    declared = {}
    for label, count in counts.items():
        if type(count) is not int or count < 0:
            raise SpokenUdError(f"category count of {label} must be a "
                                f"non-negative integer, found {count!r}")
        declared[Category.from_label(label)] = count
    return declared


def _counts_text(counts: dict) -> str:
    return "{" + ", ".join(f"{c.value}: {n}" for c, n in counts.items()) + "}"


def _manifest_entry(obj: dict, seen: set) -> ManifestEntry:
    sid = obj.get("sentence_id")
    if not isinstance(sid, str) or not sid:
        raise SpokenUdError(f"sentence_id must be a non-empty string, found {sid!r}")
    if sid in seen:
        raise DuplicateSentenceId(sid)
    seen.add(sid)
    for key in ("category", "tokens", "gold_conllu"):
        if key not in obj:
            raise SpokenUdError(f"missing key {key!r}")
    if not isinstance(obj["tokens"], list) or not all(
            isinstance(t, dict) and isinstance(t.get("form"), str)
            for t in obj["tokens"]):
        raise SpokenUdError("tokens must be objects with a string 'form'")
    category = Category.from_label(obj["category"])
    tokens = tuple((t["form"], t.get("lang_tag", "unknown")) for t in obj["tokens"])
    for _, lang in tokens:
        if lang not in LANG_TAGS:
            raise SpokenUdError(f"lang_tag must be one of {', '.join(LANG_TAGS)}, "
                                f"found {lang!r}")
    if not isinstance(obj["gold_conllu"], str):
        raise SpokenUdError(f"gold_conllu must be a string, found {obj['gold_conllu']!r}")
    try:
        gold_sentences = parse_conllu(obj["gold_conllu"])
    except SpokenUdError as err:
        raise SpokenUdError(f"gold_conllu: {err}") from err
    if len(gold_sentences) != 1:
        raise SpokenUdError(f"gold_conllu must hold exactly one sentence, "
                            f"found {len(gold_sentences)}")
    gold = gold_sentences[0]
    if gold.sentence_id and gold.sentence_id != sid:
        raise SpokenUdError(f"embedded gold of {sid} is labeled {gold.sentence_id!r}")
    gold = Sentence(sentence_id=sid, tokens=gold.tokens,
                    category=category, metadata=gold.metadata)
    return ManifestEntry(sid, category, tokens, gold)


def manifest_entry_to_input_sentence(entry: ManifestEntry) -> Sentence:
    """Build the raw tokenized input sentence the parser consumes."""
    tokens = tuple(
        Token(id=NodeId(i), form=form, lang_tag=lang, orig_token_index=i)
        for i, (form, lang) in enumerate(entry.tokens, start=1))
    return Sentence(sentence_id=entry.sentence_id, tokens=tokens,
                    category=entry.category)
