"""A seeded, in-process fuzz of every subcommand.

Mutated CoNLL-U and sheet files, built from generated sentences, and
mutated ``per_sentence.jsonl`` files, built by ``eval``, must end in exit 0
or 1: an input the readers refuse is an error naming the line, never an
exception escaping ``cli.main``. Mutated manifests and replay records under
``parse --backend-mode replay``, and mutated ``--config`` files under
``eval``, must end in one of the documented exit codes 0 to 3. Bytes inserted
into each subcommand's input files (not UTF-8, a BOM, NUL, a lone surrogate)
must end in exit 0, or 1 or 3 with at most one stderr line naming the file.
"""

import json
import random
import re
import shutil
from importlib import resources

import pytest
import yaml

from spokenud.cli import main
from spokenud.ioformats import emit_conllu, emit_sheet, parse_conllu, parse_sheet

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


def mutate_record(rng, record, noise=JSON_NOISE):
    """Replace or drop one value somewhere inside a decoded record."""
    parent, key = None, None
    node = record
    while isinstance(node, (dict, list)) and node and rng.random() < 0.8:
        parent = node
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        node = node[key]
    if parent is None:
        return rng.choice(noise)
    if isinstance(parent, dict) and rng.random() < 0.3:
        del parent[key]
    else:
        parent[key] = rng.choice(noise)
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


def exit_code(argv) -> int:
    """The exit code of ``spokenud argv``, a usage error's included."""
    try:
        return main(argv)
    except SystemExit as err:
        return err.code


# Parse-only JSON values: texts no CoNLL-U or sheet cell can hold, so they are
# refused where they enter (the manifest, a stage answer), never at emit.
PARSE_NOISE = JSON_NOISE + ["a\tb", "a\nb", "a\rb", "\t", "\n", "nsubj:x\ty", "ven\tir"]


def mutate_json_line(rng, lines, i):
    """Mutate line ``i`` of a JSON-lines text in place."""
    kind = rng.random()
    if kind < 0.6:
        lines[i] = json.dumps(mutate_record(rng, json.loads(lines[i]), PARSE_NOISE),
                              ensure_ascii=False)
    elif kind < 0.7:
        lines[i] = lines[i][:rng.randrange(len(lines[i]))]
    elif kind < 0.8:
        lines.insert(i, lines[rng.randrange(len(lines))])
    elif kind < 0.9:
        del lines[i]
    else:
        lines[i] = rng.choice(NOISE)


def mutate_replay_record(rng, path):
    """Mutate the recorded response, the record around it, or its bytes."""
    record = json.loads(path.read_text("utf-8"))
    kind = rng.random()
    if kind < 0.5:
        record["raw_response"] = json.dumps(
            mutate_record(rng, json.loads(record["raw_response"]), PARSE_NOISE),
            ensure_ascii=False)
        path.write_text(json.dumps(record, ensure_ascii=False), encoding="utf-8")
    elif kind < 0.75:
        path.write_text(json.dumps(mutate_record(rng, record)), encoding="utf-8")
    elif kind < 0.9:
        data = path.read_bytes()
        path.write_bytes(data[:rng.randrange(len(data))])
    else:
        path.write_bytes(rng.choice([b"", b"\xff\xfe{", b"[]", b"null", b"{}"]))


PARSE_CASES = 60
OUTPUTS = ("parses.conllu", "parses.sheet.tsv", "failures.jsonl", "adjudication.log")


def test_replay_parse_exits_with_a_documented_code_on_mutated_inputs(
        tmp_path, capsys, pipeline_manifest_path, replay_dir):
    rng = random.Random(19)
    lines = pipeline_manifest_path.read_text("utf-8").splitlines()
    records = sorted(p.name for p in replay_dir.iterdir())
    codes = []
    for case in range(PARSE_CASES):
        manifest, replay = tmp_path / f"manifest{case}.jsonl", tmp_path / f"replay{case}"
        mutated = list(lines)
        shutil.copytree(replay_dir, replay)
        kind = rng.random()
        if kind < 0.6:
            mutate_json_line(rng, mutated, rng.randrange(len(mutated)))
        if kind > 0.4:
            mutate_replay_record(rng, replay / rng.choice(records))
        manifest.write_text("\n".join(mutated) + "\n", encoding="utf-8")
        argv = ["parse", "--manifest", str(manifest), "--out", str(tmp_path / f"o{case}"),
                "--backend-mode", "replay", "--replay-dir", str(replay)]
        try:
            codes.append(exit_code(argv))
        except BaseException as err:
            err.add_note(f"case {case}: parse over\n" + "\n".join(mutated))
            raise
        assert codes[-1] in (0, 1, 2, 3), (case, mutated)
        # A run writes all four files or none, and its readers read them back.
        out = tmp_path / f"o{case}"
        written = [name for name in OUTPUTS if (out / name).exists()]
        assert written in ([], list(OUTPUTS)), (case, written)
        assert written or codes[-1] != 0, case
        if written:
            parse_conllu((out / "parses.conllu").read_text("utf-8"))
            parse_sheet((out / "parses.sheet.tsv").read_text("utf-8"))
    capsys.readouterr()
    # Most mutations are refused; some must still parse.
    assert {0, 1} <= set(codes), codes


# YAML values at the edges of what a config setting holds.
YAML_NOISE = JSON_NOISE + [float("inf"), -float("inf"), "1e3", "stub", "bogus", 0.0, 2,
                           [["a"]], [[1, 2]], {"a": [1]}]
CONFIG_CASES = 150


def test_eval_exits_with_a_documented_code_on_mutated_config(tmp_path, capsys):
    rng = random.Random(23)
    default = resources.files("spokenud.data").joinpath("default_config.yaml")
    gold = tmp_path / "gold.conllu"
    gold.write_text(emit_conllu([random_sentence(rng, f"c{i}") for i in range(3)]),
                    encoding="utf-8")
    codes = []
    for case in range(CONFIG_CASES):
        document = yaml.safe_load(default.read_text("utf-8"))
        for _ in range(rng.randint(1, 2)):
            document = mutate_record(rng, document, YAML_NOISE)
        text = yaml.safe_dump(document, allow_unicode=True)
        if rng.random() < 0.15:
            text = text[:rng.randrange(len(text))] + rng.choice(["[", ": :", "\t", "{", "&"])
        config = tmp_path / f"config{case}.yaml"
        config.write_bytes((b"" if rng.random() < 0.95 else b"\xff") + text.encode("utf-8"))
        argv = ["--config", str(config), "eval", "--gold", str(gold), "--system", str(gold),
                "--out", str(tmp_path / "eval")]
        try:
            codes.append(exit_code(argv))
        except BaseException as err:
            err.add_note(f"case {case}: eval under the config\n{text}")
            raise
        assert codes[-1] in (0, 1, 2, 3), (case, text)
    capsys.readouterr()
    assert 0.2 < codes.count(1) / len(codes) < 0.95, codes.count(1)


# Bytes inserted into an input file: one that is never UTF-8, a UTF-8 BOM, NUL,
# a multi-byte sequence cut short, and the JSON escape of a lone surrogate.
BYTE_NOISE = [b"\xff", b"\xef\xbb\xbf", b"\x00", "€".encode("utf-8")[:2], rb"\ud800"]
BYTE_CASES = 4


def insert_noise(rng, data: bytes, noise: bytes) -> bytes:
    """``data`` with ``noise`` inserted: the escape just inside a JSON string
    value, at any depth of escaping, the other bytes anywhere."""
    if noise == rb"\ud800":
        at = rng.choice([match.end() for match in re.finditer(rb'": \\*"', data)])
    else:
        at = rng.randrange(len(data) + 1)
    return data[:at] + noise + data[at:]


@pytest.fixture
def byte_inputs(tmp_path, pipeline_manifest_path, replay_dir):
    """One clean input file of each kind a subcommand reads."""
    rng = random.Random(29)
    sentences = [random_sentence(rng, f"b{i}", sheet_compatible=True) for i in range(3)]
    paths = {"gold": tmp_path / "gold.conllu", "sheet": tmp_path / "gold.tsv",
             "manifest": pipeline_manifest_path, "replay": replay_dir,
             "config": resources.files("spokenud.data").joinpath("default_config.yaml")}
    paths["gold"].write_text(emit_conllu(sentences), encoding="utf-8")
    paths["sheet"].write_text(emit_sheet(sentences), encoding="utf-8")
    assert main(["eval", "--gold", str(paths["gold"]), "--system", str(paths["gold"]),
                 "--out", str(tmp_path / "eval")]) == 0
    paths["results"] = tmp_path / "eval" / "per_sentence.jsonl"
    return paths


# Each case: the input it damages, whether its text is JSON, and the command
# line that reads it ({path} is the damaged file, {replay} the replay store).
BYTE_TARGETS = {
    "validate-conllu": ("gold", False, ["validate", "{path}"]),
    "validate-sheet": ("sheet", False, ["validate", "{path}"]),
    "eval-gold": ("gold", False, ["eval", "--gold", "{path}", "--system", "{gold}",
                                  "--out", "{out}"]),
    "eval-system": ("gold", False, ["eval", "--gold", "{gold}", "--system", "{path}",
                                    "--out", "{out}"]),
    "report-results": ("results", True, ["report", "--results", "{path}", "--out", "{out}"]),
    "parse-manifest": ("manifest", True, ["parse", "--manifest", "{path}", "--out", "{out}",
                                          "--backend-mode", "replay", "--replay-dir",
                                          "{replay}"]),
    "parse-replay-record": ("replay", True, ["parse", "--manifest", "{manifest}",
                                             "--out", "{out}", "--backend-mode", "replay",
                                             "--replay-dir", "{replay}"]),
    "config": ("config", False, ["--config", "{path}", "eval", "--gold", "{gold}",
                                 "--system", "{gold}", "--out", "{out}"]),
}


@pytest.mark.parametrize("target", BYTE_TARGETS)
def test_damaged_bytes_exit_with_one_line_naming_the_file(tmp_path, capsys, byte_inputs,
                                                          target):
    """Exit 0, or exit 1 or 3 with at most one stderr line, naming the damaged
    file; only validate and parse report a failure on stdout alone. A config
    refusal names the key it refuses instead (tests/test_config.py)."""
    rng = random.Random(31)
    kind, is_json, command = BYTE_TARGETS[target]
    for noise in BYTE_NOISE if is_json else BYTE_NOISE[:-1]:
        for case in range(BYTE_CASES):
            work = tmp_path / f"{noise.hex()}-{case}"
            replay = work / "replay"
            work.mkdir()
            if "{replay}" in command:
                shutil.copytree(byte_inputs["replay"], replay)
            source = byte_inputs[kind]
            if kind == "replay":
                source = path = replay / rng.choice(sorted(p.name for p in replay.iterdir()))
            else:
                path = work / source.name
            path.write_bytes(insert_noise(rng, source.read_bytes(), noise))
            argv = [part.format(path=path, gold=byte_inputs["gold"], out=work / "out",
                                manifest=byte_inputs["manifest"], replay=replay)
                    for part in command]
            try:
                code = exit_code(argv)
            except BaseException as err:
                err.add_note(f"{target}: {noise!r} case {case} in {path}")
                raise
            lines = capsys.readouterr().err.splitlines()
            where = (target, noise, case, lines)
            assert code in (0, 1, 3), where
            assert len(lines) <= 1, where
            assert kind == "config" or all(str(path) in line for line in lines), where
            assert code == 0 or lines or argv[0] in ("validate", "parse"), where
            if argv[0] == "parse":  # all four outputs or none
                written = [name for name in OUTPUTS if (work / "out" / name).exists()]
                assert written in ([], list(OUTPUTS)), where
