import gc
import json
import shutil
import weakref
from pathlib import Path

import pytest

from spokenud.cli import main
from spokenud.ioformats import emit_conllu, parse_conllu, parse_sheet

DATA = Path(__file__).parent / "data"
GOLD = DATA / "gold" / "fixture_corpus.conllu"


def run(args):
    return main([str(a) for a in args])


# --- validate -----------------------------------------------------------------

def test_validate_gold_corpus_exit_zero(capsys):
    assert run(["validate", GOLD]) == 0
    out = capsys.readouterr().out
    assert "30 sentences, 0 with issues" in out


@pytest.mark.parametrize("inserted", ["\x00", "\x07", "\ufeff"])
def test_validate_refuses_a_control_character_inside_a_token_row(tmp_path, capsys, inserted):
    text = GOLD.read_text("utf-8")
    bad = tmp_path / "bad.conllu"
    bad.write_text(text[:4210] + inserted + text[4210:], encoding="utf-8")
    assert text[:4210].count("\n") == 135 and "\t" in text.splitlines()[135]
    assert run(["validate", bad]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: line 136: a control character U+{ord(inserted):04X}: '1\\twe\\t")


def test_validate_reads_a_crlf_file(tmp_path, capsys):
    crlf = tmp_path / "crlf.conllu"
    crlf.write_bytes(GOLD.read_bytes().replace(b"\n", b"\r\n"))
    assert run(["validate", crlf]) == 0
    assert "30 sentences, 0 with issues" in capsys.readouterr().out


def test_validate_two_root_sentence_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.conllu"
    bad.write_text(
        "# sent_id = b1\n"
        "1\ta\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
        "2\tb\t_\tNOUN\t_\t_\t0\troot\t_\t_\n",
        encoding="utf-8")
    assert run(["validate", bad]) == 1
    assert "MultipleRoots" in capsys.readouterr().out


def test_validate_cycle_names_members(tmp_path, capsys):
    bad = tmp_path / "cycle.conllu"
    bad.write_text(
        "# sent_id = c1\n"
        "1\ta\t_\tNOUN\t_\t_\t2\tdep\t_\t_\n"
        "2\tb\t_\tNOUN\t_\t_\t1\tdep\t_\t_\n",
        encoding="utf-8")
    assert run(["validate", bad]) == 1
    out = capsys.readouterr().out
    assert "Cycle" in out and "1, 2" in out


def test_validate_refuses_a_repeated_sentence_id_as_eval_does(tmp_path, capsys):
    # Two well-formed trees that share a sent_id: eval's file-level checks.
    path = tmp_path / "dup.conllu"
    path.write_text(LIKE_IT.format(third=3) + "\n" + LIKE_IT.format(third=3),
                    encoding="utf-8")
    message = f"error: duplicate sentence id: r1 in {path}\n"
    assert run(["validate", path]) == 1
    assert capsys.readouterr() == ("", message)
    assert run(["eval", "--gold", path, "--system", path, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err == message


# --- eval ---------------------------------------------------------------------

def test_eval_gold_vs_itself_matches_goldens(tmp_path):
    out = tmp_path / "eval"
    assert run(["eval", "--gold", GOLD, "--system", GOLD,
                "--by-category", "--out", out]) == 0
    for name in ("standard_by_category.md", "flexud_by_category.md",
                 "standard_by_category.csv", "flexud_by_category.csv"):
        produced = (out / name).read_text("utf-8")
        expected = (DATA / "golden" / name).read_text("utf-8")
        assert produced == expected, f"{name} deviates from golden file"


def test_eval_table_layout():
    golden = (DATA / "golden" / "standard_by_category.md").read_text("utf-8")
    lines = golden.strip().splitlines()
    assert lines[0] == "| Category | LAS | UAS | CLAS | U-LAS |"
    labels = [line.split("|")[1].strip() for line in lines[2:]]
    assert labels == ["Repetition", "Repetition+", "Contr. (EN)", "Contr. (ES)",
                      "Ellipsis", "Ellipsis+", "Discourse", "Discourse+",
                      "Complex", "None", "Overall"]
    flex = (DATA / "golden" / "flexud_by_category.md").read_text("utf-8")
    assert flex.strip().splitlines()[0] == \
        "| Category | ID | UPOS | HEAD | DEPREL | Final |"


def test_eval_mismatched_ids(tmp_path, capsys):
    system = tmp_path / "sys.conllu"
    gold_sentences = parse_conllu(GOLD.read_text("utf-8"))
    from spokenud.ioformats import emit_conllu
    system.write_text(emit_conllu(gold_sentences[:5]), encoding="utf-8")
    assert run(["eval", "--gold", GOLD, "--system", system,
                "--out", tmp_path / "o"]) == 1
    assert "sentence ids do not match" in capsys.readouterr().err


def test_eval_names_the_file_each_refusal_is_about(tmp_path, capsys):
    system = tmp_path / "sys.conllu"
    system.write_text(GOLD.read_text("utf-8").replace("# sent_id = sb01", "# sent_id = x"),
                      encoding="utf-8")
    assert run(["eval", "--gold", GOLD, "--system", system, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err == (f"error: sentence ids do not match: only in gold "
                                       f"{GOLD} ['sb01'], only in system {system} ['x']\n")
    system.write_text("\ufeff" + GOLD.read_text("utf-8"), encoding="utf-8")
    for command in (["eval", "--gold", GOLD, "--system", system, "--out", tmp_path / "o"],
                    ["validate", system]):
        assert run(command) == 1
        assert capsys.readouterr().err == (f"error: line 1: a control character U+FEFF: "
                                           f"'\\ufeff# sent_id = sb01' in {system}\n")


@pytest.mark.parametrize("command", [
    ["validate", "{path}"],
    ["eval", "--gold", GOLD, "--system", "{path}", "--out", "{out}"],
    ["parse", "--manifest", "{path}", "--out", "{out}", "--backend-mode", "stub"],
    ["report", "--results", "{path}", "--out", "{out}"],
])
def test_input_that_is_not_utf8_exits_one_naming_file_and_byte(tmp_path, capsys, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\n" * 70000 + b"\xff")  # past the first chunk a reader decodes
    assert run([str(a).format(path=path, out=tmp_path / "o") for a in command]) == 1
    assert capsys.readouterr().err == (f"error: {path}: not UTF-8 at byte 70000: "
                                       f"invalid start byte\n")
    assert not (tmp_path / "o").exists()


def _conllu(*sentence_ids):
    blocks = []
    for i, sid in enumerate(sentence_ids, start=1):
        header = f"# sent_id = {sid}\n" if sid else ""
        blocks.append(header + f"1\tw{i}\t_\tNOUN\t_\t_\t0\troot\t_\t_\n")
    return "\n".join(blocks)


def test_eval_repeated_id_exits_one_and_names_file_and_id(tmp_path, capsys):
    gold = tmp_path / "gold.conllu"
    system = tmp_path / "sys.conllu"
    gold.write_text(_conllu("a1", "b2"), encoding="utf-8")
    system.write_text(_conllu("a1", "a1"), encoding="utf-8")
    assert run(["eval", "--gold", gold, "--system", system,
                "--out", tmp_path / "o"]) == 1
    captured = capsys.readouterr()
    assert f"duplicate sentence id: a1 in {system}" in captured.err
    assert "evaluated" not in captured.out


def test_eval_two_unnamed_sentences_exit_one(tmp_path, capsys):
    gold = tmp_path / "gold.conllu"
    gold.write_text(_conllu("", ""), encoding="utf-8")
    assert run(["eval", "--gold", gold, "--system", gold,
                "--out", tmp_path / "o"]) == 1
    assert f"duplicate sentence id: <unnamed> in {gold}" in capsys.readouterr().err


def test_eval_one_unnamed_sentence_still_works(tmp_path, capsys):
    gold = tmp_path / "gold.conllu"
    gold.write_text(_conllu(""), encoding="utf-8")
    assert run(["eval", "--gold", gold, "--system", gold,
                "--out", tmp_path / "o"]) == 0
    assert "evaluated 1 sentences" in capsys.readouterr().out


@pytest.mark.parametrize("empty_side", ["gold", "system"])
def test_eval_sentence_without_token_rows_exits_one(tmp_path, capsys, empty_side):
    paths = {side: tmp_path / f"{side}.conllu" for side in ("gold", "system")}
    for side, path in paths.items():
        text = "# sent_id = e1\n" if side == empty_side else _conllu("e1")
        path.write_text(_conllu("a1") + "\n" + text, encoding="utf-8")
    out = tmp_path / "o"
    assert run(["eval", "--gold", paths["gold"], "--system", paths["system"],
                "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error: sentence e1 in {paths[empty_side]} has no token rows\n")
    assert not out.exists()


LIKE_IT = ("# sent_id = r1\n"
           "1\tI\t_\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
           "2\tlike\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
           "{third}\tit\t_\tPRON\t_\t_\t1\tobj\t_\t_\n")


@pytest.mark.parametrize("repeating_side", ["gold", "system"])
def test_eval_repeated_node_id_exits_one_and_names_file_sentence_and_node(
        tmp_path, capsys, repeating_side):
    # Rows 1, 2, 2: the second row 2 used to shadow "like" in the token index.
    paths = {side: tmp_path / f"{side}.conllu" for side in ("gold", "system")}
    for side, path in paths.items():
        third = 2 if side == repeating_side else 3
        path.write_text(LIKE_IT.format(third=third), encoding="utf-8")
    out = tmp_path / "o"
    assert run(["eval", "--gold", paths["gold"], "--system", paths["system"],
                "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error: sentence r1 in {paths[repeating_side]} repeats node id 2\n")
    assert not out.exists()
    assert run(["validate", paths[repeating_side]]) == 1
    assert "IdOrder" in capsys.readouterr().out


def test_eval_jsonl_numbers_match_tables(tmp_path):
    out = tmp_path / "eval"
    run(["eval", "--gold", GOLD, "--system", GOLD, "--out", out])
    records = [json.loads(line) for line in
               (out / "per_sentence.jsonl").read_text("utf-8").splitlines()]
    assert len(records) == 30
    # Recompute the overall micro-average from the machine output and compare
    # with the Overall row of the human table.
    head_correct = sum(r["standard"]["counts"]["head_correct"] for r in records)
    gold_total = sum(r["standard"]["counts"]["gold_total"] for r in records)
    table = (out / "standard_by_category.csv").read_text("utf-8").strip().splitlines()
    overall = table[-1].split(",")
    assert overall[0] == "Overall"
    assert f"{head_correct / gold_total:.2f}" == overall[2]  # UAS column
    finals = [r["flexud"]["final"] for r in records]
    flex_table = (out / "flexud_by_category.csv").read_text("utf-8").strip().splitlines()
    assert flex_table[-1].split(",")[5] == f"{sum(finals) / len(finals):.1f}"


def test_report_rebuilds_identical_tables(tmp_path):
    eval_out = tmp_path / "eval"
    run(["eval", "--gold", GOLD, "--system", GOLD, "--out", eval_out])
    report_out = tmp_path / "report"
    assert run(["report", "--results", eval_out / "per_sentence.jsonl",
                "--out", report_out]) == 0
    for name in ("standard_by_category.md", "flexud_by_category.md"):
        assert (report_out / name).read_text("utf-8") == \
            (eval_out / name).read_text("utf-8")


def test_report_rebuilds_identical_tables_from_scores_that_all_differ(tmp_path):
    # Perturbed pairs: no two components and no two counts agree on every
    # sentence, so a decoder that reads one field for another changes a table.
    from test_eval_golden import corpus

    golds, systems = (sentences[:60] for sentences in corpus())
    gold, system = tmp_path / "gold.conllu", tmp_path / "system.conllu"
    gold.write_text(emit_conllu(golds), encoding="utf-8")
    system.write_text(emit_conllu(systems), encoding="utf-8")
    eval_out, report_out = tmp_path / "eval", tmp_path / "report"
    assert run(["eval", "--gold", gold, "--system", system, "--out", eval_out]) == 0
    records = [json.loads(line) for line in
               (eval_out / "per_sentence.jsonl").read_text("utf-8").splitlines()]
    for fields in ([r["flexud"] for r in records], [r["standard"]["counts"] for r in records]):
        keys = [k for k, v in fields[0].items() if type(v) is int]
        columns = {tuple(f[k] for f in fields) for k in keys}
        assert len(keys) >= 5 and len(columns) == len(keys)
    assert run(["report", "--results", eval_out / "per_sentence.jsonl",
                "--out", report_out]) == 0
    for name in ("standard", "flexud"):
        for suffix in ("md", "csv"):
            path = f"{name}_by_category.{suffix}"
            assert (report_out / path).read_text("utf-8") == \
                (eval_out / path).read_text("utf-8")


@pytest.mark.parametrize("sid", ["a\u2028b", "a\u2029b", "a\x85b"])
def test_report_reads_back_ids_that_str_splitlines_would_break(tmp_path, sid):
    gold = tmp_path / "gold.conllu"
    gold.write_text("".join(f"# sent_id = {name}\n1\tI\tI\tPRON\t_\t_\t0\troot\t_\t_\n\n"
                            for name in ("a", sid)), encoding="utf-8")
    eval_out, report_out = tmp_path / "eval", tmp_path / "report"
    assert run(["eval", "--gold", gold, "--system", gold, "--out", eval_out]) == 0
    assert run(["report", "--results", eval_out / "per_sentence.jsonl",
                "--out", report_out]) == 0
    for name in ("standard", "flexud"):
        for suffix in ("md", "csv"):
            path = f"{name}_by_category.{suffix}"
            assert (report_out / path).read_text("utf-8") == \
                (eval_out / path).read_text("utf-8")
    records = (eval_out / "per_sentence.jsonl").read_text("utf-8").split("\n")
    assert [json.loads(line)["sentence_id"] for line in records if line] == ["a", sid]


def test_eval_holds_one_pair_at_a_time(tmp_path, monkeypatch):
    # When a pair is scored, every earlier pair's sentences have been freed.
    from spokenud import cli

    scored = []
    score = cli.evaluate_pair

    def watched(gold, system, config):
        gc.collect()
        alive = [ref().sentence_id for ref in scored if ref() is not None]
        assert alive == [], f"still alive when {gold.sentence_id} is scored: {alive}"
        scored.extend((weakref.ref(gold), weakref.ref(system)))
        return score(gold, system, config)

    monkeypatch.setattr(cli, "evaluate_pair", watched)
    assert run(["eval", "--gold", GOLD, "--system", GOLD, "--out", tmp_path / "o"]) == 0
    assert len(scored) == 60


def test_eval_that_fails_midway_keeps_the_old_results_and_leaves_no_temporary_file(
        tmp_path, monkeypatch, capsys):
    from spokenud import cli
    from spokenud.core import SpokenUdError

    out = tmp_path / "o"
    assert run(["eval", "--gold", GOLD, "--system", GOLD, "--out", out]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    calls = []
    score = cli.evaluate_pair

    def fails_on_the_second_pair(gold, system, config):
        calls.append(gold.sentence_id)
        if len(calls) == 2:
            raise SpokenUdError(f"cannot score {gold.sentence_id}")
        return score(gold, system, config)

    monkeypatch.setattr(cli, "evaluate_pair", fails_on_the_second_pair)
    capsys.readouterr()
    assert run(["eval", "--gold", GOLD, "--system", GOLD, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: cannot score {calls[1]}\n"
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


# --- parse --------------------------------------------------------------------

@pytest.fixture
def manifest_path(pipeline_manifest_path):
    return pipeline_manifest_path


def test_parse_replay_full_manifest(tmp_path, replay_dir, manifest_path, capsys):
    out = tmp_path / "parse"
    assert run(["parse", "--manifest", manifest_path, "--out", out,
                "--backend-mode", "replay", "--replay-dir", replay_dir]) == 0
    assert "parsed 3 sentences, 0 failures" in capsys.readouterr().out
    sentences = parse_conllu((out / "parses.conllu").read_text("utf-8"))
    assert [s.sentence_id for s in sentences] == ["del1", "disc1", "fig2"]
    sheet_sentences = parse_sheet((out / "parses.sheet.tsv").read_text("utf-8"))
    assert len(sheet_sentences) == 3
    assert (out / "failures.jsonl").read_text("utf-8") == ""


def test_parse_missing_replay_fails_and_names_stage(tmp_path, manifest_path, capsys):
    out = tmp_path / "parse"
    empty_replay = tmp_path / "empty_replay"
    empty_replay.mkdir()
    assert run(["parse", "--manifest", manifest_path, "--out", out,
                "--backend-mode", "replay", "--replay-dir", empty_replay]) == 1
    captured = capsys.readouterr().out
    assert "3 failures" in captured
    assert "at SPH" in captured
    failures = [json.loads(line) for line in
                (out / "failures.jsonl").read_text("utf-8").splitlines()]
    assert {f["sentence_id"] for f in failures} == {"del1", "disc1", "fig2"}
    assert all(f["stage"] == "SPH" for f in failures)


def test_parse_allow_failures_exits_zero(tmp_path, manifest_path):
    empty_replay = tmp_path / "empty_replay"
    empty_replay.mkdir()
    assert run(["parse", "--manifest", manifest_path, "--out", tmp_path / "o",
                "--backend-mode", "replay", "--replay-dir", empty_replay,
                "--allow-failures"]) == 0


def test_parse_then_eval_replay_outputs_are_deterministic(
        tmp_path, replay_dir, manifest_path):
    outputs = []
    for run_index in (1, 2):
        for workers in (1, 4):
            out = tmp_path / f"run{run_index}w{workers}"
            assert run(["parse", "--manifest", manifest_path, "--out", out,
                        "--backend-mode", "replay", "--replay-dir", replay_dir,
                        "--workers", workers]) == 0
            eval_out = tmp_path / f"eval{run_index}w{workers}"
            gold_file = tmp_path / "gold.conllu"
            if not gold_file.exists():
                from spokenud.ioformats import emit_conllu, load_manifest
                manifest = load_manifest(manifest_path)
                gold_file.write_text(
                    emit_conllu([e.gold for e in manifest.entries]),
                    encoding="utf-8")
            assert run(["eval", "--gold", gold_file,
                        "--system", out / "parses.conllu",
                        "--out", eval_out]) == 0
            blob = b""
            for name in ("parses.conllu", "parses.sheet.tsv", "failures.jsonl",
                         "adjudication.log"):
                blob += (out / name).read_bytes()
            for name in ("per_sentence.jsonl", "standard_by_category.md",
                         "flexud_by_category.md"):
                blob += (eval_out / name).read_bytes()
            outputs.append(blob)
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


@pytest.mark.parametrize("workers", [1, 4])
def test_parse_replay_outputs_equal_the_recorded_golden_bytes(
        tmp_path, replay_dir, manifest_path, workers):
    golden = Path(__file__).parent.parent / "perfbench" / "data" / "golden"
    out = tmp_path / "o"
    assert run(["parse", "--manifest", manifest_path, "--out", out,
                "--backend-mode", "replay", "--replay-dir", replay_dir,
                "--workers", workers]) == 0
    for name in ("parses.conllu", "parses.sheet.tsv", "adjudication.log"):
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


def test_parse_encodes_every_output_before_it_writes_one(
        tmp_path, replay_dir, manifest_path, monkeypatch):
    # A text UTF-8 cannot encode never leaves a partial set of outputs.
    monkeypatch.setattr("spokenud.cli.emit_sheet", lambda sentences: "\ud800")
    with pytest.raises(UnicodeEncodeError):
        run(["parse", "--manifest", manifest_path, "--out", tmp_path / "o",
             "--backend-mode", "replay", "--replay-dir", replay_dir])
    assert not (tmp_path / "o").exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["bogus-command"])
    assert err.value.code == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_fewer_than_one_worker_is_a_usage_error(tmp_path, manifest_path, capsys,
                                                workers):
    with pytest.raises(SystemExit) as err:
        main(["parse", "--manifest", str(manifest_path), "--out", str(tmp_path / "o"),
              "--backend-mode", "stub", "--workers", workers])
    assert err.value.code == 2
    assert "--workers: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_backend_misconfiguration_exit_code(tmp_path, manifest_path, capsys):
    # replay mode without a replay directory is a backend error: exit 3
    assert run(["parse", "--manifest", manifest_path, "--out", tmp_path / "o",
                "--backend-mode", "replay"]) == 3
    assert "backend error" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["live", "record"])
def test_a_base_url_that_is_not_http_exits_three_before_any_call(tmp_path, manifest_path,
                                                                capsys, mode):
    assert run(["parse", "--manifest", manifest_path, "--out", tmp_path / "o",
                "--backend-mode", mode, "--replay-dir", tmp_path / "r",
                "--base-url", "file:///etc"]) == 3
    assert capsys.readouterr().err == (f"backend error: {mode} mode requires an http or "
                                       f"https base URL, not 'file'\n")
    assert not (tmp_path / "o").exists()


def test_a_live_transport_failure_fails_each_sentence_without_a_traceback(
        tmp_path, manifest_path, capsys, monkeypatch):
    monkeypatch.setenv("SPOKENUD_API_KEY", "test-token")
    monkeypatch.setattr("spokenud.backends.time.sleep", lambda seconds: None)
    assert run(["parse", "--manifest", manifest_path, "--out", tmp_path / "o",
                "--backend-mode", "live", "--base-url", "http://host:abc"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "parsed 0 sentences, 3 failures"
    assert out[1:] == [f"  FAILED {sid} at SPH: transport failure: nonnumeric port: 'abc'"
                       for sid in ("del1", "disc1", "fig2")]


def test_config_replay_mode_needs_its_directory_only_to_build_the_backend(
        tmp_path, replay_dir, manifest_path, capsys):
    config = tmp_path / "replay.yaml"
    config.write_text("backend: {mode: replay}\n", encoding="utf-8")
    assert run(["--config", config, "parse", "--manifest", manifest_path,
                "--out", tmp_path / "p", "--replay-dir", replay_dir]) == 0
    assert run(["--config", config, "eval", "--gold", GOLD, "--system", GOLD,
                "--out", tmp_path / "e"]) == 0
    assert run(["--config", config, "validate", GOLD]) == 0
    capsys.readouterr()
    assert run(["--config", config, "parse", "--manifest", manifest_path,
                "--out", tmp_path / "o"]) == 3
    assert capsys.readouterr().err == \
        "backend error: replay mode requires a replay directory\n"
    assert not (tmp_path / "o").exists()


def _manifest_with_ids(tmp_path, manifest_path, sids):
    sids = iter(sids)
    out = []
    for line in Path(manifest_path).read_text("utf-8").splitlines():
        obj = json.loads(line)
        if "sentence_id" in obj:
            obj["sentence_id"] = next(sids)
        out.append(json.dumps(obj, ensure_ascii=False))
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


def test_parse_empty_manifest_id_exits_one_and_names_line(
        tmp_path, manifest_path, capsys):
    path = _manifest_with_ids(tmp_path, manifest_path, ["del1", "", "fig2"])
    out = tmp_path / "o"
    assert run(["parse", "--manifest", path, "--out", out,
                "--backend-mode", "stub"]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 3: sentence_id must be a non-empty string, "
        f"found ''\n")
    assert not out.exists()


def _broken_line(line, case):
    if case == "malformed":
        return line[:40]
    if case == "not an object":
        return "[1, 2]"
    if case == "huge int":  # past int's 4,300-digit limit, a ValueError
        return "9" * 5000
    obj = json.loads(line)
    del obj[case]
    return json.dumps(obj)


@pytest.mark.parametrize("case, message", [
    ("malformed", "not valid JSON: "),
    ("not an object", "expected a JSON object"),
    ("category", "missing key 'category'"),
    ("tokens", "missing key 'tokens'"),
    ("huge int", "not valid JSON: Exceeds the limit"),
], ids=["malformed", "not-an-object", "no-category", "no-tokens", "huge-int"])
def test_parse_broken_manifest_line_exits_one_and_names_line(
        tmp_path, manifest_path, capsys, case, message):
    lines = Path(manifest_path).read_text("utf-8").splitlines()
    lines[2] = _broken_line(lines[2], case)
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "o"
    assert run(["parse", "--manifest", path, "--out", out,
                "--backend-mode", "stub"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: line 3: {message}")
    assert not out.exists()


def test_parse_corrupt_replay_record_fails_only_its_sentence(
        tmp_path, replay_dir, manifest_path, capsys):
    replay = tmp_path / "replay"
    shutil.copytree(replay_dir, replay)
    (replay / "disc1.sph.json").write_text('{"request_hash": "ab', "utf-8")
    out = tmp_path / "o"
    assert run(["parse", "--manifest", manifest_path, "--out", out,
                "--backend-mode", "replay", "--replay-dir", replay]) == 1
    captured = capsys.readouterr().out
    assert (f"FAILED disc1 at SPH: corrupt replay record "
            f"{replay / 'disc1.sph.json'}: ") in captured
    assert "parsed 2 sentences, 1 failures" in captured
    sentences = parse_conllu((out / "parses.conllu").read_text("utf-8"))
    assert [s.sentence_id for s in sentences] == ["del1", "fig2"]


@pytest.mark.parametrize("key, value", [
    ("LEMMA", "ven\tir"), ("LEMMA", "ven\nir"), ("DEPREL", "nsubj:x\ty")])
def test_parse_core_cell_with_a_tab_or_line_break_fails_only_its_sentence(
        tmp_path, replay_dir, manifest_path, capsys, key, value):
    replay = tmp_path / "replay"
    shutil.copytree(replay_dir, replay)
    record = json.loads((replay / "del1.core.json").read_text("utf-8"))
    response = json.loads(record["raw_response"])
    response["annotated_tokens"][0][key] = value
    record["raw_response"] = json.dumps(response)
    (replay / "del1.core.json").write_text(json.dumps(record), "utf-8")
    out = tmp_path / "o"
    assert run(["parse", "--manifest", manifest_path, "--out", out,
                "--backend-mode", "replay", "--replay-dir", replay]) == 1
    assert "parsed 2 sentences, 1 failures" in capsys.readouterr().out
    failure, = [json.loads(line) for line in
                (out / "failures.jsonl").read_text("utf-8").splitlines()]
    assert (failure["sentence_id"], failure["stage"]) == ("del1", "CORE")
    # The refused answer was retried; no retry was recorded.
    assert failure["error"].startswith("no recorded response for key 'del1.core.retry1'")
    assert [s.sentence_id for s in parse_conllu(
        (out / "parses.conllu").read_text("utf-8"))] == ["disc1", "fig2"]
    assert [s.sentence_id for s in parse_sheet(
        (out / "parses.sheet.tsv").read_text("utf-8"))] == ["disc1", "fig2"]
    log = (out / "adjudication.log").read_text("utf-8")
    assert not any(line.startswith("del1\t") for line in log.splitlines())


def test_parse_replay_key_outside_replay_dir_fails_the_sentence(
        tmp_path, replay_dir, manifest_path, capsys):
    path = _manifest_with_ids(tmp_path, manifest_path,
                              ["del1", "../disc1", "fig2"])
    assert run(["parse", "--manifest", path, "--out", tmp_path / "o",
                "--backend-mode", "replay", "--replay-dir", replay_dir]) == 1
    assert ("FAILED ../disc1 at SPH: replay key '../disc1.sph' is not a plain "
            "file name") in capsys.readouterr().out


@pytest.mark.parametrize("record", [
    "[1]",
    '{"request_hash": "x"}',
    '{"request_hash": "x", "raw_response": {"sentence_id": "disc1"}}',
], ids=["not-an-object", "no-raw-response", "raw-response-not-a-string"])
def test_parse_replay_record_of_wrong_shape_fails_only_its_sentence(
        tmp_path, replay_dir, manifest_path, capsys, record):
    replay = tmp_path / "replay"
    shutil.copytree(replay_dir, replay)
    (replay / "disc1.sph.json").write_text(record, "utf-8")
    out = tmp_path / "o"
    assert run(["parse", "--manifest", manifest_path, "--out", out,
                "--backend-mode", "replay", "--replay-dir", replay]) == 1
    captured = capsys.readouterr().out
    assert (f"FAILED disc1 at SPH: corrupt replay record "
            f"{replay / 'disc1.sph.json'}: expected an object with a string "
            f"raw_response") in captured
    assert "parsed 2 sentences, 1 failures" in captured
    failure, = [json.loads(line) for line in
                (out / "failures.jsonl").read_text("utf-8").splitlines()]
    assert (failure["attempts"], failure["violations"]) == (None, [])


def _break_first_token(line, case):
    obj = json.loads(line)
    if case == "no-form":
        del obj["tokens"][0]["form"]
    elif case == "form-not-a-string":
        obj["tokens"][0]["form"] = 7
    elif case == "token-not-an-object":
        obj["tokens"][0] = "hola"
    else:
        obj["tokens"] = "hola"
    return json.dumps(obj)


@pytest.mark.parametrize("case", ["no-form", "form-not-a-string",
                                  "token-not-an-object", "tokens-not-a-list"])
def test_parse_bad_manifest_token_exits_one_before_any_backend_call(
        tmp_path, manifest_path, capsys, monkeypatch, case):
    lines = Path(manifest_path).read_text("utf-8").splitlines()
    lines[2] = _break_first_token(lines[2], case)
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def no_backend(config):
        raise AssertionError("a backend was made")

    monkeypatch.setattr("spokenud.cli.make_backend", no_backend)
    out = tmp_path / "o"
    assert run(["parse", "--manifest", path, "--out", out,
                "--backend-mode", "stub"]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 3: tokens must be objects with a string 'form'\n")
    assert not out.exists()


def _set_first_lang_tag(obj, tag):
    obj["tokens"][0]["lang_tag"] = tag
    return obj


@pytest.mark.parametrize("line_no, edit, message", [
    (1, lambda obj: {"category_counts": [1]},
     "category_counts must be an object, found [1]"),
    (3, lambda obj: dict(obj, gold_conllu=3), "gold_conllu must be a string, found 3"),
    (3, lambda obj: _set_first_lang_tag(obj, "en"),
     "lang_tag must be one of eng, spa, mixed, unknown, found 'en'"),
    (3, lambda obj: _set_first_lang_tag(obj, 5),
     "lang_tag must be one of eng, spa, mixed, unknown, found 5"),
    (3, lambda obj: dict(obj, category=5), "unknown category label: 5"),
    (1, lambda obj: {"category_counts": {"bogus": 1}},
     "unknown category label: 'bogus'"),
    (1, lambda obj: {"category_counts": {"contraction-es": "x"}},
     "category count of contraction-es must be a non-negative integer, found 'x'"),
    (3, lambda obj: dict(obj, sentence_id="del1"), "duplicate sentence id: del1"),
    (3, lambda obj: dict(obj, gold_conllu="1\tyo\n"),
     "gold_conllu: line 1: expected 10 columns, got 2: '1\\tyo'"),
    (1, lambda obj: {"category_counts": {"contraction-es": 2}},
     "declared {contraction-es: 2} but found {contraction-es: 1, "
     "simple-discourse: 1, highly-complex: 1}"),
], ids=["category-counts-not-an-object", "gold-conllu-not-a-string",
        "unknown-lang-tag", "lang-tag-not-a-string", "unknown-category",
        "unknown-category-counts-key", "count-not-an-integer",
        "repeated-sentence-id", "gold-conllu-refused", "count-mismatch"])
def test_parse_manifest_value_of_wrong_shape_exits_one_and_names_it(
        tmp_path, manifest_path, capsys, monkeypatch, line_no, edit, message):
    lines = Path(manifest_path).read_text("utf-8").splitlines()
    lines[line_no - 1] = json.dumps(edit(json.loads(lines[line_no - 1])))
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def no_backend(config):
        raise AssertionError("a backend was made")

    monkeypatch.setattr("spokenud.cli.make_backend", no_backend)
    out = tmp_path / "o"
    assert run(["parse", "--manifest", path, "--out", out,
                "--backend-mode", "stub"]) == 1
    assert capsys.readouterr().err == f"error: {path}: line {line_no}: {message}\n"
    assert not out.exists()


def test_failures_jsonl_records_attempts_and_violations(
        tmp_path, manifest_path, monkeypatch):
    from spokenud.backends import StubBackend
    from spokenud.config import load_config

    monkeypatch.setattr("spokenud.cli.make_backend", lambda config: StubBackend(
        script=lambda system, user, key: '{"sentence_id": 5}'))
    out = tmp_path / "o"
    assert run(["parse", "--manifest", manifest_path, "--out", out,
                "--backend-mode", "stub"]) == 1
    failures = [json.loads(line) for line in
                (out / "failures.jsonl").read_text("utf-8").splitlines()]
    attempts = load_config().agent_retries + 1
    assert [sorted(f) for f in failures] == [
        ["attempts", "error", "sentence_id", "stage", "violations"]] * 3
    for failure in failures:
        assert failure["stage"] == "SPH"
        assert failure["attempts"] == attempts
        assert failure["violations"] == [
            "schema: 'tokens' is a required property at <root>"]
        assert failure["error"].startswith(
            f"SPH output invalid after {attempts} attempts: schema: ")


# --- missing inputs and bad result records ----------------------------------------

@pytest.mark.parametrize("command", [
    ["validate", "{missing}"],
    ["eval", "--gold", "{missing}", "--system", GOLD, "--out", "{out}"],
    ["eval", "--gold", GOLD, "--system", "{missing}", "--out", "{out}"],
    ["parse", "--manifest", "{missing}", "--out", "{out}", "--backend-mode", "stub"],
    ["report", "--results", "{missing}", "--out", "{out}"],
])
def test_missing_input_path_exits_one_naming_it(tmp_path, capsys, command):
    missing = tmp_path / "nope.conllu"
    assert run([str(a).format(missing=missing, out=tmp_path / "out")
                for a in command]) == 1
    assert capsys.readouterr().err == \
        f"error: {missing}: No such file or directory\n"


@pytest.mark.parametrize("line, reason", [
    ('{"sentence_id": "a"', "JSONDecodeError"),
    ('{"sentence_id": "a"}', "KeyError('standard')"),
    ('[1, 2]', "TypeError"),
])
def test_report_bad_record_exits_one_naming_file_and_line(tmp_path, capsys,
                                                          line, reason):
    eval_out = tmp_path / "eval"
    run(["eval", "--gold", GOLD, "--system", GOLD, "--out", eval_out])
    results = eval_out / "per_sentence.jsonl"
    lines = results.read_text("utf-8").splitlines()
    results.write_text("\n".join(lines[:2] + [line] + lines[2:]), encoding="utf-8")
    assert run(["report", "--results", results, "--out", tmp_path / "r"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {results} line 3: not an eval record: {reason}")


def test_report_decodes_each_line_without_its_line_break(tmp_path, capsys):
    # The decoder's position names the record's own text, as it did when the
    # file was split with str.splitlines.
    results = tmp_path / "per_sentence.jsonl"
    results.write_text('{"sentence_id": "a"\n', encoding="utf-8")
    assert run(["report", "--results", results, "--out", tmp_path / "r"]) == 1
    assert capsys.readouterr().err == (
        f"error: {results} line 1: not an eval record: JSONDecodeError(\"Expecting "
        f"',' delimiter: line 1 column 20 (char 19)\")\n")
