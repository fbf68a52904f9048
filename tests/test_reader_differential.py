"""The one-pass CoNLL-U reader against the block-list reader it replaced
(``block_reader_reference``) on non-canonical and malformed input.

Each case emits a few generated sentences and then mutates their lines:
foreign and repeated MISC items, out-of-range or unreadable MISC values,
whitespace-only separators and carriage returns, 9 or 11 columns, bad ids
and heads, range lines and comment lines. Both readers must return equal
sentences (with equal ``repr``, so dict order counts too), or raise the same
exception type with the same message. Two exceptions: the reader ends a
line at ``\r\n`` and at a lone ``\r`` too, as a file opened as text does, so
the reference reads the text with those written as ``\n``; and a text
holding a control character (``core.CONTROL_CHARACTER``; the generator makes
separator lines of ``\x0b`` and ``\x1c``) is refused by the reader, naming
the line of the first one, where the reference read on.
"""

import random

import pytest

from spokenud.core import CONTROL_CHARACTER
from spokenud.ioformats import MalformedLine, emit_conllu, parse_conllu

import block_reader_reference as reference
from gen import random_sentence

CASES = 600

MISC_ITEMS = [
    # Foreign items, with and without '='.
    "SpaceAfter=No", "Gloss=a=b", "Foo", "", "_",
    # Repeated and unknown Lang values: the last one wins.
    "Lang=eng", "Lang=spa", "Lang=xx", "Lang=",
    # Conf: keys, repeated, empty and out of range.
    "Conf:final=0.5", "Conf:final=0.75", "Conf:core=1", "Conf:=0.2", "Conf:a=1.5",
    "Conf:a=nan", "Conf:a=-0", "Conf:a=x",
    "Penalty=0.25", "Penalty=1", "Penalty=2", "Penalty=nan", "Penalty=-1", "Penalty=x",
    "Notes=a%20b", "Notes=%ZZ", "Notes=", "Notes=x%7Cy",
    "SpokenAnchor=1", "SpokenAnchor=2.1", "SpokenAnchor=0", "SpokenAnchor=x",
    "SpokenLabel=filler", "SpokenLabel=bad", "OrigIndex=3", "OrigIndex=1_0",
]
IDS = ["1", "2", "3.1", "0", "1.0", "x", "", " 2", "1_0", "٣", "1-2", "2-x", "-1"]
HEADS = ["0", "_", "1", "2", "3.1", "x", "", "0.1", "1-2"]
SEPARATORS = ["", " ", "\t", "\r", " \r ", "\x0b", "\x1c", "\u2028", "\xa0", "\u3000"]
COMMENTS = ["# sent_id = dup", "# category = none", "# category = bogus", "#plain",
            "# key = value", "# sent_id ="]


def mutate_line(rng, line):
    cells = line.split("\t")
    kind = rng.randrange(6)
    if kind == 0 and len(cells) == 10:  # one to three MISC items
        items = [rng.choice(MISC_ITEMS) for _ in range(rng.randint(1, 3))]
        cells[9] = "|".join(items if rng.random() < 0.5 else [cells[9], *items])
    elif kind == 1:
        cells[0] = rng.choice(IDS)
    elif kind == 2 and len(cells) > 6:
        cells[6] = rng.choice(HEADS + [cells[0]])  # the row's own id too
    elif kind == 3:  # 9 or 11 columns
        if rng.random() < 0.5:
            del cells[rng.randrange(len(cells))]
        else:
            cells.insert(rng.randrange(len(cells) + 1), "_")
    elif kind == 4:
        return line + "\r"
    else:
        return rng.choice(COMMENTS)
    return "\t".join(cells)


def mutated_text(rng, case):
    sentences = [random_sentence(rng, f"m{case}.{i}", valid_tree=rng.random() < 0.5)
                 for i in range(rng.randint(1, 3))]
    lines = emit_conllu(sentences).split("\n")
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(lines))
        if not lines[i].strip():
            lines[i] = rng.choice(SEPARATORS)
        elif rng.random() < 0.15:  # a range line ahead of a row
            lines.insert(i, f"{i}-{i + 1}\tdel\t_\t_\t_\t_\t_\t_\t_\t_")
        else:
            lines[i] = mutate_line(rng, lines[i])
    return "\n".join(lines)


def read(parse, text):
    try:
        sentences = parse(text)
    except Exception as err:  # the exact type and message are compared
        return type(err), str(err)
    return sentences, repr(sentences)


def newlines(text):
    """``text`` with each ``\r\n`` and lone ``\r`` written as ``\n``."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def assert_control_character_refused(text):
    """The reader refuses ``text``, naming the line of its first control character."""
    lines = newlines(text)
    found = CONTROL_CHARACTER.search(lines)
    line_no = lines.count("\n", 0, found.start()) + 1
    with pytest.raises(MalformedLine) as err:
        parse_conllu(text)
    assert str(err.value) == (f"line {line_no}: a control character "
                              f"U+{ord(found.group()):04X}: {lines.split(chr(10))[line_no - 1]!r}")


def test_reader_equals_the_block_reader_on_mutated_lines():
    rng = random.Random(29)
    refused = controls = returns = 0
    for case in range(CASES):
        text = mutated_text(rng, case)
        returns += "\r" in text
        if CONTROL_CHARACTER.search(text):
            assert_control_character_refused(text)
            refused, controls = refused + 1, controls + 1
            continue
        expected = read(reference.parse_conllu, newlines(text))
        assert read(parse_conllu, text) == expected, text
        refused += isinstance(expected[0], type)
    # The mutations must reach both outcomes, or the test checks little.
    assert 0.2 < refused / CASES < 0.8, refused
    assert 0 < controls < 0.2 * CASES, controls
    assert 0 < returns < 0.5 * CASES, returns


@pytest.mark.parametrize("separator", SEPARATORS[1:])
def test_whitespace_only_lines_separate_blocks(separator):
    """Except a line of a control character (\\x0b, \\x1c), which is refused."""
    row = "1\ta\t_\tNOUN\t_\t_\t0\troot\t_\t_"
    text = f"# sent_id = a\n{row}\n{separator}\n# sent_id = b\n{row}\n{separator}"
    if CONTROL_CHARACTER.search(separator):
        assert_control_character_refused(text)
        return
    assert read(parse_conllu, text) == read(reference.parse_conllu, newlines(text))
    assert [s.sentence_id for s in parse_conllu(text)] == ["a", "b"]


def test_tokens_with_one_misc_cell_share_one_read_only_confidences():
    row = "{}\ta\t_\tNOUN\t_\t_\t{}\tdep\t_\tConf:final=0.500"
    text = "\n".join(row.format(i, "0" if i == 1 else "1") for i in (1, 2, 3)) + "\n"
    tokens = parse_conllu(text)[0].tokens
    assert [t.confidences for t in tokens] == [{"final": 0.5}] * 3
    assert len({id(t.confidences) for t in tokens}) == 1
    for change in (lambda c: c.update(final=0.0), lambda c: c.__setitem__("core", 1.0),
                   lambda c: c.pop("final"), lambda c: c.clear()):
        with pytest.raises(TypeError):
            change(tokens[0].confidences)
    assert [t.confidences for t in tokens] == [{"final": 0.5}] * 3
    # The memo lives only for one call: a second read builds new values.
    assert parse_conllu(text)[0].tokens[0].confidences is not tokens[0].confidences
