import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spokenud.core import (ROOT, Category, NodeId, Sentence, SpokenUdError, Token,
                           UnknownCategory, breaks_cell)
from spokenud.ioformats import (
    CategoryCountMismatch,
    DuplicateSentenceId,
    HeaderMismatch,
    InconsistentHeadForm,
    MalformedLine,
    SHEET_COLUMNS,
    emit_conllu,
    emit_sheet,
    load_manifest,
    manifest_entry_to_input_sentence,
    open_utf8,
    parse_conllu,
    parse_sheet,
)

from gen import random_sentence

TWO_TOKEN = """# sent_id = t1
1\thello\t_\tINTJ\t_\t_\t2\tdiscourse\t_\t_
2\tworld\t_\tNOUN\t_\t_\t0\troot\t_\t_
"""


def test_parse_two_token_block():
    sentences = parse_conllu(TWO_TOKEN)
    assert len(sentences) == 1
    sentence = sentences[0]
    assert sentence.sentence_id == "t1"
    assert len(sentence.tokens) == 2
    assert sentence.tokens[1].head is ROOT
    assert sentence.tokens[0].head == NodeId(2)


def test_parse_dotted_id_line():
    text = (
        "6\tpitta\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "6.1\tpitta_bread\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
        "7\tbread\t_\t_\t_\t_\t_\t_\t_\t_\n"
    )
    [sentence] = parse_conllu(text)
    assert sentence.tokens[1].id == NodeId(6, 1)
    assert sentence.tokens[1].form == "pitta_bread"
    assert sentence.tokens[0].upos is None and sentence.tokens[0].head is None


def test_parse_nine_column_line_is_malformed():
    with pytest.raises(MalformedLine) as err:
        parse_conllu("1\ta\t_\t_\t_\t_\t0\troot\t_\n")
    assert err.value.line_no == 1


def test_parse_category_comment():
    [sentence] = parse_conllu("# category = simple-repetition\n" + TWO_TOKEN)
    assert sentence.category is Category.SIMPLE_REPETITION
    with pytest.raises(UnknownCategory):
        parse_conllu("# category = bogus\n" + TWO_TOKEN)


def test_emit_uses_underscore_for_missing_fields():
    token = Token(id=NodeId(1), form="hola", upos="INTJ", head=ROOT, deprel="root")
    text = emit_conllu([random_wrap(token)])
    line = [l for l in text.splitlines() if l and not l.startswith("#")][0]
    assert line.split("\t")[2] == "_"  # LEMMA


def random_wrap(*tokens):
    from spokenud.core import Sentence
    return Sentence(sentence_id="w", tokens=tuple(tokens))


def test_emit_dotted_node_id_column():
    tokens = (
        Token(id=NodeId(6), form="pitta"),
        Token(id=NodeId(6, 1), form="pitta_bread", upos="NOUN", head=ROOT, deprel="root"),
        Token(id=NodeId(7), form="bread"),
    )
    text = emit_conllu([random_wrap(*tokens)])
    ids = [l.split("\t")[0] for l in text.splitlines() if l and not l.startswith("#")]
    assert ids == ["6", "6.1", "7"]


@pytest.mark.parametrize("sid, token", [
    ("w", Token(id=NodeId(1), form="a", lemma="a\tb", head=ROOT, deprel="root")),
    ("w", Token(id=NodeId(1), form="a\tb", head=ROOT, deprel="root")),
    ("w", Token(id=NodeId(1), form="a", head=ROOT, deprel="nsubj:x\ny")),
    ("w", Token(id=NodeId(1), form="a", upos="X\rY", head=ROOT, deprel="root")),
    ("a\nb", Token(id=NodeId(1), form="a", head=ROOT, deprel="root")),
    ("a\tb", Token(id=NodeId(1), form="a", head=ROOT, deprel="root")),
], ids=["lemma-tab", "form-tab", "deprel-newline", "upos-return", "sent-id-newline",
        "sent-id-tab"])
def test_emit_conllu_refuses_what_its_reader_could_not_read_back(sid, token):
    from spokenud.core import Sentence
    with pytest.raises(SpokenUdError, match="tab or line break inside"):
        emit_conllu([Sentence(sentence_id=sid, tokens=(token,))])


@pytest.mark.parametrize("emit", [emit_conllu, emit_sheet], ids=["conllu", "sheet"])
def test_writers_refuse_a_control_character_their_readers_refuse(emit):
    token = Token(id=NodeId(1), form="he\x07llo", head=ROOT, deprel="root")
    with pytest.raises(SpokenUdError) as err:
        emit([random_wrap(token)])
    assert str(err.value).startswith("a control character U+0007 inside ")
    assert str(err.value).endswith(" 'he\\x07llo'")


# One cell's characters: C0 controls (tab, LF and CR among them), DEL, a BOM
# and lone surrogates, or characters the readers keep, among them NEL and
# U+2028, where str.splitlines would end a line.
CELL = st.text(st.sampled_from([chr(c) for c in range(0x20)] + ["\x7f", "\ufeff", "\ud800", "\udfff"])
               | st.sampled_from([" ", "a", "é", "\xa0", "\x85", "\u2028"]), min_size=1, max_size=3)


@pytest.mark.parametrize("emit, parse", [(emit_conllu, parse_conllu), (emit_sheet, parse_sheet)],
                         ids=["conllu", "sheet"])
@settings(derandomize=True, deadline=None, max_examples=300)
@given(field=st.sampled_from(["sid", "form", "lemma", "upos", "deprel", "notes"]), cell=CELL)
def test_a_writer_refuses_a_cell_or_its_reader_gives_the_sentence_back(emit, parse, field, cell):
    cells = {"sid": "s", "form": "a", "lemma": "a", "upos": "X", "deprel": "root", "notes": "n",
             field: cell}
    sentence = Sentence(cells["sid"], (
        Token(NodeId(1), cells["form"], lemma=cells["lemma"], upos=cells["upos"], head=ROOT,
              deprel=cells["deprel"], notes=cells["notes"]),
        Token(NodeId(2), "b", head=NodeId(1), deprel="dep")))  # the sheet's HEAD repeats form
    try:
        text = emit([sentence])
    except SpokenUdError:
        return
    assert parse(text) == [sentence]


@pytest.mark.parametrize("cell", ["a\u2028b", "\x85", "\xa0"])
@pytest.mark.parametrize("emit, parse", [(emit_conllu, parse_conllu), (emit_sheet, parse_sheet)],
                         ids=["conllu", "sheet"])
def test_writers_keep_a_character_that_ends_no_line_in_their_readers(emit, parse, cell):
    sentence = random_wrap(Token(NodeId(1), cell, lemma=cell, head=ROOT, deprel="root",
                                 notes=cell))
    assert parse(emit([sentence])) == [sentence]


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_readers_end_a_line_where_a_file_read_as_text_does(newline):
    rng = random.Random(36)
    conllu = [random_sentence(rng, f"c{i}") for i in range(5)]
    sheet = [random_sentence(rng, f"s{i}", sheet_compatible=True) for i in range(5)]
    assert parse_conllu(emit_conllu(conllu).replace("\n", newline)) == conllu
    assert parse_sheet(emit_sheet(sheet).replace("\n", newline)) == sheet
    with pytest.raises(MalformedLine) as err:  # line numbers count those line ends too
        parse_conllu(TWO_TOKEN.replace("\n", newline).replace("world", "wor\x07ld"))
    assert err.value.line_no == 3


def test_a_free_comment_line_survives_the_conllu_round_trip():
    text = TWO_TOKEN.replace("\n", "\n# a remark without an equals sign\n", 1) + "\n"
    [sentence] = parse_conllu(text)
    assert sentence.metadata["comments"] == ("a remark without an equals sign",)
    assert emit_conllu([sentence]) == text


@pytest.mark.parametrize("metadata, message", [
    ({"comments": ("x\ny",)},
     r"a tab or line break in 'x\ny', comment line '# x\ny' of sentence 's'"),
    ({"k": "a\x07"}, r"a control character U+0007 in 'a\x07', comment line '# k = a\x07' of sentence 's'"),
    ({"comments": ("p = q",)}, "an '=' in a free comment: comment line '# p = q' of sentence 's'"),
    ({"k": " v "}, "leading or trailing whitespace in ' v ', comment line '# k =  v ' of sentence 's'"),
    ({" k": "v"}, "leading or trailing whitespace in ' k', comment line '#  k = v' of sentence 's'"),
    ({"sent_id": "z"},
     "an empty, reserved or '='-holding key: comment line '# sent_id = z' of sentence 's'"),
    ({"category": "x"},
     "an empty, reserved or '='-holding key: comment line '# category = x' of sentence 's'"),
    ({"": "v"}, "an empty, reserved or '='-holding key: comment line '#  = v' of sentence 's'"),
    ({"a=b": "c"}, "an empty, reserved or '='-holding key: comment line '# a=b = c' of sentence 's'"),
    ({"k": 5}, "not a string in 5, comment line '# k = 5' of sentence 's'"),
], ids=["comment-newline", "value-control", "comment-equals", "value-padded", "key-padded",
        "key-sent-id", "key-category", "key-empty", "key-equals", "value-int"])
def test_emit_conllu_refuses_metadata_its_reader_would_read_back_otherwise(metadata, message):
    sentence = Sentence("s", (Token(NodeId(1), "a", head=ROOT, deprel="root"),), metadata=metadata)
    with pytest.raises(SpokenUdError) as err:
        emit_conllu([sentence])
    assert str(err.value) == message


@pytest.mark.parametrize("metadata", [{"comments": ("",)}, {"k": ""}, {"k": "a = b"},
                                      {"k v": "a\xa0b\x85c"}, {"comments": ("# a:b",)}])
def test_emit_conllu_keeps_metadata_that_reads_back_as_written(metadata):
    sentence = Sentence("s", (Token(NodeId(1), "a", head=ROOT, deprel="root"),), metadata=metadata)
    assert parse_conllu(emit_conllu([sentence])) == [sentence]


# A metadata key, value or free comment: either only characters the reader
# keeps as written (NEL among them), or any mix of those with its separator,
# spaces (NBSP among them), a line break and a control character.
COMMENT = (st.text(st.sampled_from(["a", "b", "#", "\x85"]), min_size=1, max_size=3)
           | st.text(st.sampled_from(["=", " ", "\n", "\x07", "a", "\x85", "\xa0", "#"]),
                     max_size=3))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(metadata=st.dictionaries(COMMENT | st.sampled_from(["sent_id", "category"]), COMMENT,
                                max_size=2),
       comments=st.lists(COMMENT, max_size=2))
def test_emit_conllu_refuses_metadata_or_its_reader_gives_it_back(metadata, comments):
    if comments:
        metadata["comments"] = tuple(comments)
    sentence = Sentence("s", (Token(NodeId(1), "a", head=ROOT, deprel="root"),), metadata=metadata)
    try:
        text = emit_conllu([sentence])
    except SpokenUdError:
        return
    assert parse_conllu(text) == [sentence]


@pytest.mark.parametrize("sid", [" a", "a ", " a ", "\u2028a", "a\x85"])
def test_emit_conllu_refuses_a_sent_id_its_reader_would_strip(sid):
    from spokenud.core import Sentence
    token = Token(id=NodeId(1), form="a", head=ROOT, deprel="root")
    with pytest.raises(SpokenUdError) as err:
        emit_conllu([Sentence(sentence_id=sid, tokens=(token,))])
    assert str(err.value) == f"sent_id {sid!r} begins or ends with whitespace"
    [back] = parse_conllu(emit_conllu([Sentence(sentence_id=sid.strip(), tokens=(token,))]))
    assert back.sentence_id == sid.strip()


def test_parse_conllu_shares_equal_cells_within_one_call():
    # FORM, LEMMA, UPOS and DEPREL repeat across rows and sentences; each
    # distinct value is one str object, so repeated rows cost no new strings.
    block = ("1\tlike\tlike\tVERB\t_\t_\t0\troot\t_\tLang=eng\n"
             "2\tit\tit\tPRON\t_\t_\t1\tobj\t_\tConf:core=0.900\n"
             "3\tlike\tlike\tVERB\t_\t_\t1\tconj\t_\tConf:core=0.900\n")
    text = "".join(f"# sent_id = c{i}\n{block}\n" for i in range(3))
    tokens = [t for sentence in parse_conllu(text) for t in sentence.tokens]
    for column in ("form", "lemma", "upos", "deprel"):
        first: dict[str, str] = {}
        for token in tokens:
            value = getattr(token, column)
            assert first.setdefault(value, value) is value, (column, value)
    # One confidences mapping per distinct MISC cell: none, and Conf:core=0.900.
    assert len({id(t.confidences) for t in tokens}) == 2


def test_conllu_roundtrip_500_random_sentences():
    rng = random.Random(20240817)
    for i in range(500):
        sentence = random_sentence(rng, f"r{i}")
        [back] = parse_conllu(emit_conllu([sentence]))
        assert back == sentence, f"round-trip failed on sentence {i}"


def test_conllu_emission_deterministic():
    rng = random.Random(7)
    sentences = [random_sentence(rng, f"d{i}") for i in range(20)]
    assert emit_conllu(sentences) == emit_conllu(sentences)


def test_mwt_range_lines_preserved():
    text = (
        "# sent_id = m\n"
        "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tdo\t_\tAUX\t_\t_\t3\taux\t_\t_\n"
        "2\tnot\t_\tPART\t_\t_\t3\tadvmod\t_\t_\n"
        "3\tknow\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    [sentence] = parse_conllu(text)
    assert sentence.metadata["mwt"][0][0] == 1
    out = emit_conllu([sentence])
    assert "1-2\tdon't" in out
    [back] = parse_conllu(out)
    assert back == sentence


# --- sheet ------------------------------------------------------------------

def test_sheet_roundtrip_500_random_sentences():
    rng = random.Random(99)
    for i in range(500):
        sentence = random_sentence(rng, f"s{i}", sheet_compatible=True)
        [back] = parse_sheet(emit_sheet([sentence]))
        assert back == sentence, f"sheet round-trip failed on sentence {i}"


def test_sheet_header_mandatory():
    with pytest.raises(HeaderMismatch):
        parse_sheet("bogus\theader\n")


def test_sheet_empty_sentence_list_is_header_only():
    assert emit_sheet([]) == "\t".join(SHEET_COLUMNS) + "\n"


def test_sheet_inconsistent_head_form():
    sentence = random_wrap(
        Token(id=NodeId(1), form="a", upos="NOUN", head=NodeId(2), deprel="nsubj"),
        Token(id=NodeId(2), form="b", upos="VERB", head=ROOT, deprel="root"),
    )
    text = emit_sheet([sentence])
    # Corrupt the HEAD column of row 1: it points at row 2 whose FORM is "b".
    lines = text.rstrip("\n").split("\n")
    cells = lines[1].split("\t")
    assert cells[10] == "b"
    cells[10] = "wrong"
    lines[1] = "\t".join(cells)
    with pytest.raises(InconsistentHeadForm):
        parse_sheet("\n".join(lines) + "\n")


def test_sheet_head_of_component_row_is_blank():
    tokens = (
        Token(id=NodeId(1), form="the", upos="DET", head=NodeId(1, 1), deprel="det"),
        Token(id=NodeId(1, 1), form="a_b", upos="NOUN", head=ROOT, deprel="root"),
        Token(id=NodeId(2), form="b"),
    )
    # dotted 1.1 spans rows 1..2 -> both are components; head into span stays blank text
    text = emit_sheet([random_wrap(*tokens)])
    parse_sheet(text)  # consistency check must accept it


# --- manifest -----------------------------------------------------------------

GOLD_BLOCK = (
    "1\tbueno\tbueno\tINTJ\t_\t_\t2\tdiscourse\t_\tLang=spa\n"
    "2\tva\tir\tVERB\t_\t_\t0\troot\t_\tLang=spa\n"
)


def manifest_line(sid, category="simple-repetition"):
    return json.dumps({
        "sentence_id": sid,
        "category": category,
        "tokens": [{"form": "bueno", "lang_tag": "spa"},
                   {"form": "va", "lang_tag": "spa"}],
        "gold_conllu": GOLD_BLOCK,
    })


def test_load_manifest_distribution(tmp_path):
    path = tmp_path / "m.jsonl"
    lines = [manifest_line(f"s{i}") for i in range(10)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = load_manifest(path)
    assert manifest.category_distribution() == {Category.SIMPLE_REPETITION: 10}
    entry = manifest.entries[0]
    assert entry.gold.category is Category.SIMPLE_REPETITION
    assert entry.gold.sentence_id == "s0"


def test_load_manifest_unknown_category(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(manifest_line("x", category="foo") + "\n", encoding="utf-8")
    with pytest.raises(UnknownCategory):
        load_manifest(path)


def test_load_manifest_duplicate_id(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(manifest_line("x") + "\n" + manifest_line("x") + "\n",
                    encoding="utf-8")
    with pytest.raises(DuplicateSentenceId):
        load_manifest(path)


@pytest.mark.parametrize("sids, line_no, bad", [
    ([""], 1, ""), (["a", "", ""], 2, ""), (["a", 7], 2, 7), (["a", None], 2, None)])
def test_load_manifest_rejects_empty_or_non_string_id(tmp_path, sids, line_no, bad):
    path = tmp_path / "m.jsonl"
    path.write_text("\n".join(manifest_line(sid) for sid in sids) + "\n",
                    encoding="utf-8")
    with pytest.raises(SpokenUdError) as err:
        load_manifest(path)
    assert str(err.value) == (f"{path}: line {line_no}: sentence_id must be "
                              f"a non-empty string, found {bad!r}")


@pytest.mark.parametrize("sid", ["a\tb", "a\nb", "a\rb"])
def test_load_manifest_rejects_an_id_with_a_tab_or_line_break(tmp_path, sid):
    path = tmp_path / "m.jsonl"
    path.write_text(manifest_line("a") + "\n" + manifest_line(sid) + "\n",
                    encoding="utf-8")
    with pytest.raises(SpokenUdError) as err:
        load_manifest(path)
    assert str(err.value) == (f"{path}: line 2: sentence_id must not hold a tab "
                              f"or line break, found {sid!r}")


@pytest.mark.parametrize("sid", [" a", "a ", "a\u2028", "\x85a"])
def test_load_manifest_rejects_an_id_with_leading_or_trailing_whitespace(tmp_path, sid):
    path = tmp_path / "m.jsonl"
    path.write_text(manifest_line("a") + "\n" + manifest_line(sid) + "\n",
                    encoding="utf-8")
    with pytest.raises(SpokenUdError) as err:
        load_manifest(path)
    assert str(err.value) == (f"{path}: line 2: sentence_id must not begin or end "
                              f"with whitespace, found {sid!r}")


@pytest.mark.parametrize("form", ["", "a\tb", "a\nb", "a\rb"])
def test_load_manifest_rejects_an_empty_form_or_one_with_a_tab_or_line_break(
        tmp_path, form):
    obj = json.loads(manifest_line("b"))
    obj["tokens"][1]["form"] = form
    path = tmp_path / "m.jsonl"
    path.write_text(manifest_line("a") + "\n" + json.dumps(obj) + "\n",
                    encoding="utf-8")
    with pytest.raises(SpokenUdError) as err:
        load_manifest(path)
    assert str(err.value) == (f"{path}: line 2: token form must be non-empty "
                              f"without a tab or line break, found {form!r}")


@pytest.mark.parametrize("field", ["sentence_id", "form"])
def test_load_manifest_rejects_a_lone_surrogate_naming_path_and_line(tmp_path, field):
    # A JSON escape carries it through strict UTF-8; no output file can hold it.
    obj = json.loads(manifest_line("b"))
    if field == "form":
        obj["tokens"][1]["form"] = "v\ud800a"
    else:
        obj["sentence_id"] = "s\ud800"
    path = tmp_path / "m.jsonl"
    path.write_text(manifest_line("a") + "\n" + json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(SpokenUdError) as err:
        load_manifest(path)
    assert str(err.value) == (
        f"{path}: line 2: token form must be non-empty without a lone surrogate, "
        f"found 'v\\ud800a'" if field == "form" else
        f"{path}: line 2: sentence_id must not hold a lone surrogate, found 's\\ud800'")


CONTROLS = ["\x00", "\x07", "\x1f", "\x7f", "\ufeff"]


@pytest.mark.parametrize("char", CONTROLS + ["\x0b", "\x0c"])
def test_breaks_cell_refuses_a_control_character(char):
    assert breaks_cell(f"a{char}b") == f"a control character U+{ord(char):04X}"
    assert breaks_cell(f"a{char}b\t") == "a tab or line break"  # the tab is named first


@pytest.mark.parametrize("text", ["", "abc", "é中 \U0001f600", "a\xa0b\u2028", "\x85", "\u200b"])
def test_breaks_cell_passes_printable_text_and_other_spaces(text):
    assert breaks_cell(text) == ""


@pytest.mark.parametrize("char", CONTROLS)
def test_conllu_reader_refuses_a_control_character_naming_its_line(char):
    text = TWO_TOKEN.replace("hello", f"hel{char}lo")
    with pytest.raises(MalformedLine) as err:
        parse_conllu(text)
    assert str(err.value) == (f"line 2: a control character U+{ord(char):04X}: "
                              f"{text.splitlines()[1]!r}")


@pytest.mark.parametrize("char", CONTROLS)
def test_sheet_reader_refuses_a_control_character_naming_its_line(char):
    lines = emit_sheet(parse_conllu(TWO_TOKEN)).split("\n")
    lines[2] = lines[2].replace("world", f"wor{char}ld")
    with pytest.raises(MalformedLine) as err:
        parse_sheet("\n".join(lines))
    assert str(err.value) == f"line 3: a control character U+{ord(char):04X}: {lines[2]!r}"


@pytest.mark.parametrize("field", ["sentence_id", "form"])
def test_load_manifest_rejects_a_control_character_naming_path_and_line(tmp_path, field):
    obj = json.loads(manifest_line("b"))
    if field == "form":
        obj["tokens"][1]["form"] = "v\x07a"
    else:
        obj["sentence_id"] = "s\x00"
    path = tmp_path / "m.jsonl"
    path.write_text(manifest_line("a") + "\n" + json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(SpokenUdError) as err:
        load_manifest(path)
    assert str(err.value) == (
        f"{path}: line 2: token form must be non-empty without a control character "
        f"U+0007, found 'v\\x07a'" if field == "form" else
        f"{path}: line 2: sentence_id must not hold a control character U+0000, "
        f"found 's\\x00'")


def test_emit_conllu_refuses_a_lone_surrogate_sent_id():
    with pytest.raises(SpokenUdError, match="^a lone surrogate inside sent_id"):
        emit_conllu(parse_conllu(TWO_TOKEN.replace("t1", "t\ud800")))


@pytest.mark.parametrize("lines", [False, True], ids=["read", "lines"])
@pytest.mark.parametrize("data, offset", [
    (b"\xff", 0),
    (b"a\n" * 9000 + b"\xe2\x82", 18000),  # a sequence cut short at the end
    ("é\r\n".encode("utf-8") * 5000 + b"\x80ok\n", 20000),  # beyond the first chunk
], ids=["first-byte", "cut-short-at-the-end", "past-the-first-chunk"])
def test_open_utf8_names_the_file_offset_of_the_first_byte_that_is_not_utf8(
        tmp_path, data, offset, lines):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(SpokenUdError) as err:
        with open_utf8(path) as handle:
            list(handle) if lines else handle.read()
    assert str(err.value).startswith(f"{path}: not UTF-8 at byte {offset}: ")
    with pytest.raises(UnicodeDecodeError) as decode:
        data.decode("utf-8")
    assert decode.value.start == offset


def test_open_utf8_reads_universal_newlines_as_open_does(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_bytes("a\r\nb\rc\u2028d\n".encode("utf-8"))
    with open_utf8(path) as handle:
        assert list(handle) == ["a\n", "b\n", "c\u2028d\n"]


def test_load_manifest_rejects_missing_id(tmp_path):
    path = tmp_path / "m.jsonl"
    obj = json.loads(manifest_line("x"))
    del obj["sentence_id"]
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(SpokenUdError, match="line 1: sentence_id must be"):
        load_manifest(path)


@pytest.mark.parametrize("gold, message", [
    (GOLD_BLOCK + "\n" + GOLD_BLOCK, "gold_conllu must hold exactly one sentence, found 2"),
    ("# sent_id = y\n" + GOLD_BLOCK, "embedded gold of x is labeled 'y'"),
], ids=["two-sentences", "another-id"])
def test_load_manifest_refuses_a_gold_that_is_not_its_one_sentence(tmp_path, gold, message):
    obj = json.loads(manifest_line("x"))
    obj["gold_conllu"] = gold
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(SpokenUdError) as err:
        load_manifest(path)
    assert str(err.value) == f"{path}: line 1: {message}"


def test_load_manifest_reads_a_crlf_gold_conllu_as_it_reads_lf(tmp_path):
    obj = json.loads(manifest_line("x"))
    obj["gold_conllu"] = GOLD_BLOCK.replace("Lang=spa\n", "Lang=spa|OrigIndex=5\r\n")
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    [entry] = load_manifest(path).entries
    assert [(t.lang_tag, t.orig_token_index) for t in entry.gold.tokens] == [("spa", 5)] * 2


def test_load_manifest_checks_declared_counts(tmp_path):
    path = tmp_path / "m.jsonl"
    header = json.dumps({"category_counts": {"simple-repetition": 2}})
    path.write_text("\n".join([header, manifest_line("a")]) + "\n", encoding="utf-8")
    with pytest.raises(CategoryCountMismatch):
        load_manifest(path)


def test_manifest_input_sentence():
    path_tokens = (("bueno", "spa"), ("va", "spa"))
    from spokenud.ioformats import ManifestEntry
    from spokenud.core import Sentence
    entry = ManifestEntry("s1", Category.NONE, path_tokens,
                          Sentence("s1", ()))
    sentence = manifest_entry_to_input_sentence(entry)
    assert [t.form for t in sentence.tokens] == ["bueno", "va"]
    assert [t.orig_token_index for t in sentence.tokens] == [1, 2]
