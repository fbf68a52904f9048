"""A seeded, in-process fuzz of ``validate`` and ``eval``.

Mutated CoNLL-U and sheet files, built from generated sentences, must end
in exit 0 or 1: an input the readers refuse is an error naming the line,
never an exception escaping ``cli.main``.
"""

import random

from spokenud.cli import main
from spokenud.ioformats import emit_conllu, emit_sheet

from gen import random_sentence

CASES = 300

# Texts at the edges of the id, integer and score grammars.
NOISE = ["", "_", "0", "00", "1", "2", "-1", "+2", " 3 ", "1_0", "1.0", "2.1",
         "1.0_1", "٣", "²", "x", "nan", "inf", "1e3", "0.5", "9" * 5000, "|", "=",
         "1-2", "x-2", "root", "#"]
MISC_KEYS = ["Lang", "SpokenLabel", "SpokenAnchor", "OrigIndex", "Conf:final",
             "Conf:sph", "Penalty", "Notes"]


def mutate_cell(rng, cells, conllu):
    """Replace one cell, or in CoNLL-U one MISC value, by noise."""
    i = rng.randrange(len(cells))
    if conllu and rng.random() < 0.4:
        i = len(cells) - 1
        items = [] if cells[i] == "_" else cells[i].split("|")
        items.append(f"{rng.choice(MISC_KEYS)}={rng.choice(NOISE)}")
        rng.shuffle(items)
        cells[i] = "|".join(items)
    else:
        cells[i] = rng.choice(NOISE)


def mutate(rng, text, conllu):
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        kind = rng.random()
        if kind < 0.75 and "\t" in lines[i]:
            cells = lines[i].split("\t")
            mutate_cell(rng, cells, conllu)
            lines[i] = "\t".join(cells)
        elif kind < 0.85:
            del lines[i]
        elif kind < 0.95:
            lines.insert(i, lines[rng.randrange(len(lines))])
        else:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


def test_validate_and_eval_exit_zero_or_one_on_mutated_files(tmp_path, capsys):
    rng = random.Random(13)
    codes = []
    for case in range(CASES):
        conllu = case % 2 == 0
        sentences = [random_sentence(rng, f"z{case}.{i}", sheet_compatible=not conllu)
                     for i in range(rng.randint(1, 3))]
        gold_text = emit_conllu(sentences) if conllu else emit_sheet(sentences)
        text = mutate(rng, gold_text, conllu)
        gold = tmp_path / f"gold{case}.conllu"
        system = tmp_path / (f"system{case}.conllu" if conllu else f"system{case}.tsv")
        gold.write_text(gold_text, encoding="utf-8")
        system.write_text(text, encoding="utf-8")
        commands = [["validate", str(system)]]
        if conllu:
            commands.append(["eval", "--gold", str(gold), "--system", str(system),
                             "--out", str(tmp_path / f"out{case}")])
        for command in commands:
            try:
                codes.append(main(command))
            except BaseException as err:
                err.add_note(f"case {case}: {command[0]} on\n{text}")
                raise
            assert codes[-1] in (0, 1), (case, command[0], text)
    capsys.readouterr()
    # The mutations must reach both outcomes, or the test checks little.
    assert 0.2 < codes.count(1) / len(codes) < 0.95, codes.count(1)
