"""A seeded, in-process fuzz of ``validate``, ``eval`` and ``report``.

Mutated CoNLL-U and sheet files, built from generated sentences, and
mutated ``per_sentence.jsonl`` files, built by ``eval``, must end in exit 0
or 1: an input the readers refuse is an error naming the line, never an
exception escaping ``cli.main``.
"""

import json
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


# JSON values at the edges of what a result record holds.
JSON_NOISE = [None, "", "x", "none", -1, 0, 101, 1.5, 10 ** 30, float("nan"), True,
              [], {}, [1], {"a": 1}]


def mutate_record(rng, record):
    """Replace or drop one value somewhere inside a decoded result record."""
    parent, key = None, None
    node = record
    while isinstance(node, (dict, list)) and node and rng.random() < 0.8:
        parent = node
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        node = node[key]
    if parent is None:
        return rng.choice(JSON_NOISE)
    if isinstance(parent, dict) and rng.random() < 0.3:
        del parent[key]
    else:
        parent[key] = rng.choice(JSON_NOISE)
    return record


def test_report_exits_zero_or_one_on_mutated_results(tmp_path, capsys):
    rng = random.Random(16)
    sentences = [random_sentence(rng, f"r{i}") for i in range(6)]
    gold = tmp_path / "gold.conllu"
    gold.write_text(emit_conllu(sentences), encoding="utf-8")
    assert main(["eval", "--gold", str(gold), "--system", str(gold),
                 "--out", str(tmp_path / "eval")]) == 0
    lines = (tmp_path / "eval" / "per_sentence.jsonl").read_text("utf-8").splitlines()
    codes = []
    for case in range(CASES):
        mutated = list(lines)
        for _ in range(rng.randint(1, 2)):
            i, kind = rng.randrange(len(mutated)), rng.random()
            if kind < 0.7 and mutated[i] in lines:
                mutated[i] = json.dumps(mutate_record(rng, json.loads(mutated[i])))
            elif kind < 0.8:
                mutated[i] = mutated[i][:rng.randrange(len(mutated[i]))]
            elif kind < 0.9:
                mutated.insert(i, mutated[rng.randrange(len(mutated))])
            else:
                mutated[i] = rng.choice(NOISE)
        results = tmp_path / f"results{case}.jsonl"
        results.write_text("\n".join(mutated), encoding="utf-8")
        try:
            codes.append(main(["report", "--results", str(results),
                               "--out", str(tmp_path / "report")]))
        except BaseException as err:
            err.add_note(f"case {case}: report on\n" + "\n".join(mutated))
            raise
        assert codes[-1] in (0, 1), (case, mutated)
    capsys.readouterr()
    assert 0.2 < codes.count(1) / len(codes) < 0.95, codes.count(1)
