"""The strict, cached CoNLL-U and sheet readers.

Round trips over generated sentences, a differential test against the
readers they replaced (``reader_reference``) on canonical input, and the
refusal of every id or integer cell outside the accepted grammar: exit 1
from ``validate`` and ``eval``, naming the line.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spokenud.cli import main
from spokenud.ioformats import emit_conllu, emit_sheet, parse_conllu, parse_sheet

import reader_reference as reference
from gen import random_sentence

GOLD = Path(__file__).parent / "data" / "gold" / "fixture_corpus.conllu"

seeds = st.integers(0, 2 ** 32 - 1)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(seeds, st.booleans())
def test_conllu_and_sheet_round_trip(seed, valid_tree):
    rng = random.Random(seed)
    sentence = random_sentence(rng, f"c{seed}", valid_tree=valid_tree)
    assert parse_conllu(emit_conllu([sentence])) == [sentence]
    row_sentence = random_sentence(rng, f"s{seed}", sheet_compatible=True,
                                   valid_tree=valid_tree)
    assert parse_sheet(emit_sheet([row_sentence])) == [row_sentence]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(seeds, min_size=1, max_size=6))
def test_readers_equal_the_reference_on_canonical_input(sentence_seeds):
    rng = random.Random(sentence_seeds[0])
    sentences = [random_sentence(rng, f"d{i}") for i in range(len(sentence_seeds))]
    text = emit_conllu(sentences)
    assert parse_conllu(text) == reference.parse_conllu(text)
    sentences = [random_sentence(rng, f"r{i}", sheet_compatible=True)
                 for i in range(len(sentence_seeds))]
    text = emit_sheet(sentences)
    assert parse_sheet(text) == reference.parse_sheet(text)


def test_reader_equals_the_reference_on_the_fixture_corpus():
    # Comments, categories and multiword-token range lines included.
    text = GOLD.read_text("utf-8")
    assert parse_conllu(text) == reference.parse_conllu(text)


THREE_ROWS = (
    "# sent_id = r1\n"
    "1\ta\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
    "2\tb\t_\tNOUN\t_\t_\t1\tdep\t_\t_\n"
    "{id}\tc\t_\tNOUN\t_\t_\t{head}\tdep\t_\tSpokenAnchor={anchor}\n"
)
GOOD = {"id": "3", "head": "1", "anchor": "2"}
REFUSED = ["1_0", "1.0_1", "+2", " 3 ", "٣", "0"]


def run_both(tmp_path, system_text, suffix=".conllu"):
    """Exit codes of ``validate`` on the system file and, for CoNLL-U, of
    ``eval`` against a well-formed gold file."""
    gold = tmp_path / "gold.conllu"
    gold.write_text(THREE_ROWS.format(**GOOD), encoding="utf-8")
    system = tmp_path / f"system{suffix}"
    system.write_text(system_text, encoding="utf-8")
    codes = [main(["validate", str(system)])]
    if suffix == ".conllu":
        codes.append(main(["eval", "--gold", str(gold), "--system", str(system),
                           "--out", str(tmp_path / "out")]))
    return codes


# A head of "0" is the root, so the head refuses "00" in its place.
@pytest.mark.parametrize("column, text", [
    (column, text) for column in GOOD for text in REFUSED
    if (column, text) != ("head", "0")] + [("head", "00")])
def test_id_outside_the_grammar_exits_one_naming_the_line(tmp_path, capsys,
                                                          column, text):
    rows = THREE_ROWS.format(**{**GOOD, column: text})
    assert run_both(tmp_path, rows) == [1, 1]
    assert capsys.readouterr().err.count("error: line 4: ") == 2


@pytest.mark.parametrize("misc", ["OrigIndex=x", "OrigIndex=1_0", "OrigIndex=²",
                                  "Conf:final=abc", "Penalty=x"])
def test_bad_misc_value_exits_one_naming_the_line(tmp_path, capsys, misc):
    rows = THREE_ROWS.format(**GOOD).replace("SpokenAnchor=2", misc)
    assert run_both(tmp_path, rows) == [1, 1]
    assert capsys.readouterr().err.count("error: line 4: ") == 2


SHEET_CELLS = {"orig_token_index": 1, "sheet_ID": 4, "sheet_HEAD_ID": 9}


@pytest.mark.parametrize("cell, text", [
    ("sheet_ID", "x"), ("sheet_ID", "²"), ("sheet_ID", "+1"),
    ("sheet_HEAD_ID", "²"), ("sheet_HEAD_ID", "x"),
    pytest.param("sheet_HEAD_ID", "9" * 5000, id="sheet_HEAD_ID-5000-digits"),
    ("orig_token_index", "1_0"), ("orig_token_index", "x")])
def test_bad_sheet_integer_cell_exits_one_naming_the_line(tmp_path, capsys,
                                                          cell, text):
    lines = emit_sheet(parse_conllu(THREE_ROWS.format(**GOOD))).split("\n")
    cells = lines[2].split("\t")
    cells[SHEET_CELLS[cell]] = text
    lines[2] = "\t".join(cells)
    assert run_both(tmp_path, "\n".join(lines), suffix=".tsv") == [1]
    assert "error: line 3: " in capsys.readouterr().err
