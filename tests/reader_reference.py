"""The CoNLL-U and sheet readers that the strict, cached id reader in
``spokenud.ioformats`` replaced, kept verbatim as the reference the new
readers are tested against on canonical input. Only ``NodeId.parse`` is
inlined, as ``_parse_node_id``, because the library's version changed."""

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
from spokenud.ioformats import (
    CONLLU_COLUMNS,
    SHEET_COLUMNS,
    HeaderMismatch,
    InconsistentHeadForm,
    MalformedLine,
)


def _parse_node_id(text: str) -> NodeId:
    text = text.strip()
    if "." in text:
        major, _, minor = text.partition(".")
        return NodeId(int(major), int(minor))
    return NodeId(int(text))


def _misc_decode(text: str) -> str:
    return urllib.parse.unquote(text)


def _parse_misc(misc: str, line_no: int) -> dict:
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
            fields["spoken_anchor"] = _parse_node_id(value)
        elif key == "OrigIndex":
            fields["orig_token_index"] = int(value)
        elif key.startswith("Conf:"):
            fields.setdefault("confidences", {})[key[5:]] = float(value)
        elif key == "Penalty":
            fields["penalty"] = float(value)
        elif key == "Notes":
            fields["notes"] = _misc_decode(value)
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
                mwt_lines.append((int(start), tuple(columns)))
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
        node_id = _parse_node_id(id_col)
    except ValueError:
        raise MalformedLine(line_no, line, f"bad node id {id_col!r}")
    if head_col == "_":
        head: NodeId | RootSentinel | None = None
    elif head_col == "0":
        head = ROOT
    else:
        try:
            head = _parse_node_id(head_col)
        except ValueError:
            raise MalformedLine(line_no, line, f"bad head id {head_col!r}")
    extra = _parse_misc(misc, line_no)
    try:
        return Token(
            id=node_id,
            form=form,
            lemma=None if lemma == "_" else lemma,
            upos=None if upos == "_" else upos,
            head=head,
            deprel=None if deprel == "_" else deprel,
            **extra,
        )
    except ValueError as err:
        raise MalformedLine(line_no, line, str(err))


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
    sheet_ids = [int(cells[4]) for _, cells in rows]
    if sheet_ids != list(range(1, len(rows) + 1)):
        raise MalformedLine(rows[0][0], rows[0][1][4],
                            f"sheet ids for {sid} are not contiguous 1..N")
    form_by_sheet = {int(cells[4]): cells[5] for _, cells in rows}
    tokens: list[Token] = []
    for line_no, cells in rows:
        (_, orig, split_token, id_text, _, form, lemma, upos,
         head_id, sheet_head, head_text, deprel, conf, penalty, note) = cells
        if sheet_head:
            if not sheet_head.isdigit() or int(sheet_head) > len(rows):
                raise MalformedLine(line_no, sheet_head,
                                    f"sheet_HEAD_ID must be in 0..{len(rows)}")
            expected = "root" if sheet_head == "0" else form_by_sheet[int(sheet_head)]
            if head_text != expected:
                raise InconsistentHeadForm(line_no, head_text, expected)
        try:
            if head_id == "0":
                head: NodeId | RootSentinel | None = ROOT
            elif head_id:
                head = _parse_node_id(head_id)
            else:
                head = None
            confidences = {"final": float(conf)} if conf else {}
            tokens.append(Token(
                id=_parse_node_id(id_text),
                form=split_token,
                orig_token_index=int(orig) if orig else None,
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
