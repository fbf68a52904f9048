import json
import random

import pytest

from spokenud.core import ROOT, Category, NodeId, SpokenUdError, Token, UnknownCategory
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


def test_load_manifest_rejects_missing_id(tmp_path):
    path = tmp_path / "m.jsonl"
    obj = json.loads(manifest_line("x"))
    del obj["sentence_id"]
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(SpokenUdError, match="line 1: sentence_id must be"):
        load_manifest(path)


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
