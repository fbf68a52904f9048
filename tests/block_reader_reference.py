"""The block-list CoNLL-U reader that the one-pass ``parse_conllu`` in
``spokenud.ioformats`` replaced, kept verbatim as the reference it is tested
against on non-canonical and malformed input. ``_index`` is copied with it;
``NodeId.parse`` and the exception classes are the library's."""

from __future__ import annotations

import urllib.parse

from spokenud.core import (
    LANG_TAGS,
    ROOT,
    Category,
    NodeId,
    RootSentinel,
    Sentence,
    Token,
)
from spokenud.ioformats import CONLLU_COLUMNS, MalformedLine


def _index(text: str) -> int:
    """A count or position: ASCII digits ([0-9]+) and nothing else."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a non-negative integer: {text!r}")
    return int(text)


def _parse_misc(misc: str) -> dict:
    fields: dict = {}
    if misc == "_":
        return fields
    for item in misc.split("|"):
        key, sep, value = item.partition("=")
        if not sep:
            continue  # foreign MISC entries without '=' are dropped
        if key == "Lang":
            fields["lang_tag"] = value if value in LANG_TAGS else "unknown"
        elif key == "SpokenLabel":
            fields["spoken_label"] = value
        elif key == "SpokenAnchor":
            fields["spoken_anchor"] = NodeId.parse(value)
        elif key == "OrigIndex":
            fields["orig_token_index"] = _index(value)
        elif key.startswith("Conf:"):
            fields.setdefault("confidences", {})[key[5:]] = float(value)
        elif key == "Penalty":
            fields["penalty"] = float(value)
        elif key == "Notes":
            fields["notes"] = urllib.parse.unquote(value)
    return fields


def parse_conllu(text: str) -> list[Sentence]:
    """Parse CoNLL-U text into sentences.

    Comment lines populate metadata (``sent_id`` and ``category`` are
    recognized), multiword-token range lines are preserved as metadata, and
    dotted ids become dotted nodes. A line that does not have exactly 10
    tab-separated columns raises MalformedLine.
    """
    sentences: list[Sentence] = []
    block: list[tuple[int, str]] = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.strip() == "":
            if block:
                sentences.append(_parse_block(block))
                block = []
        else:
            block.append((line_no, line))
    if block:
        sentences.append(_parse_block(block))
    return sentences


def _parse_block(block: list[tuple[int, str]]) -> Sentence:
    sentence_id = ""
    category: Category | None = None
    metadata: dict = {}
    comments: list[str] = []
    mwt_lines: list[tuple[int, tuple[str, ...]]] = []
    tokens: list[Token] = []

    for line_no, line in block:
        if line.startswith("#"):
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
            raise MalformedLine(line_no, line,
                                f"expected 10 columns, got {len(columns)}")
        if "-" in columns[0]:
            start = columns[0].split("-", 1)[0]
            try:
                mwt_lines.append((_index(start), tuple(columns)))
            except ValueError:
                raise MalformedLine(line_no, line, "bad multiword token range")
            continue
        tokens.append(_parse_token_line(line_no, line, columns))

    if comments:
        metadata["comments"] = tuple(comments)
    if mwt_lines:
        metadata["mwt"] = tuple(mwt_lines)
    return Sentence(sentence_id=sentence_id, tokens=tuple(tokens),
                    category=category, metadata=metadata)


def _parse_token_line(line_no: int, line: str, columns: list[str]) -> Token:
    id_col, form, lemma, upos, _xpos, _feats, head_col, deprel, _deps, misc = columns
    try:
        node_id = NodeId.parse(id_col)
    except ValueError:
        raise MalformedLine(line_no, line, f"bad node id {id_col!r}")
    if head_col == "_":
        head: NodeId | RootSentinel | None = None
    elif head_col == "0":
        head = ROOT
    else:
        try:
            head = NodeId.parse(head_col)
        except ValueError:
            raise MalformedLine(line_no, line, f"bad head id {head_col!r}")
    try:
        return Token(
            id=node_id,
            form=form,
            lemma=None if lemma == "_" else lemma,
            upos=None if upos == "_" else upos,
            head=head,
            deprel=None if deprel == "_" else deprel,
            **_parse_misc(misc),
        )
    except ValueError as err:
        raise MalformedLine(line_no, line, str(err))
