"""End-to-end pipeline runs over the recorded fixtures (no live model)."""

import json
from pathlib import Path

from spokenud.backends import ReplayMiss, ReplayStore, make_backend
from spokenud.config import load_config
from spokenud.core import NodeId, validate_tree
from spokenud.ioformats import load_manifest, manifest_entry_to_input_sentence
from spokenud.pipeline import (SentenceFailure, induced_sentence, parse_sentence, run_batch,
                               seed_replay_store)

from pipeline_helpers import sheet_rows


def replay_config(replay_dir):
    return load_config().with_backend(mode="replay", replay_dir=str(replay_dir))


def test_fig2_replay_end_to_end(replay_dir, pipeline_manifest_path):
    config = replay_config(replay_dir)
    backend = make_backend(config.backend)
    manifest = load_manifest(pipeline_manifest_path)
    entry = next(e for e in manifest.entries if e.sentence_id == "fig2")
    parse = parse_sentence(manifest_entry_to_input_sentence(entry), backend, config)
    assert not isinstance(parse, SentenceFailure)

    sentence = induced_sentence(parse)
    assert validate_tree(sentence).ok
    by_form_order = [row.split_token for row in sheet_rows(parse)]
    assert by_form_order == ["Entonces", "then", "I", "will", "not",
                             "I", "will", "not", "buy", "anything", "uh"]
    reparanda = [str(row.id) for row in sheet_rows(parse) if row.deprel == "reparandum"]
    assert reparanda == ["3", "4", "5"]  # the first "I won't" segment
    uh = next(row for row in sheet_rows(parse) if row.split_token == "uh")
    assert uh.deprel == "discourse" and uh.upos == "INTJ"
    roots = [row for row in sheet_rows(parse) if row.head_id == "0"]
    assert len(roots) == 1 and roots[0].split_token == "buy"
    assert all(row.penalty == 0.0 for row in sheet_rows(parse))


def test_whitelist_mwe_created_in_replay(replay_dir, pipeline_manifest_path):
    config = replay_config(replay_dir)
    backend = make_backend(config.backend)
    manifest = load_manifest(pipeline_manifest_path)
    entry = next(e for e in manifest.entries if e.sentence_id == "disc1")
    parse = parse_sentence(manifest_entry_to_input_sentence(entry), backend, config)
    assert not isinstance(parse, SentenceFailure)
    ids = [str(row.id) for row in sheet_rows(parse)]
    assert ids == ["1", "1.1", "2", "3", "4"]
    dotted = sheet_rows(parse)[1]
    assert dotted.split_token == "you_know"
    assert dotted.upos == "INTJ" and dotted.deprel == "discourse"
    components = [sheet_rows(parse)[0], sheet_rows(parse)[2]]
    assert all(row.form == "" and row.upos == "" for row in components)
    assert any("auto-combined" in line for line in parse.adjudication_log)


def test_batch_replay_deterministic_across_worker_counts(
        replay_dir, pipeline_manifest_path):
    config = replay_config(replay_dir)
    manifest = load_manifest(pipeline_manifest_path)
    sentences = [manifest_entry_to_input_sentence(e) for e in manifest.entries]
    runs = []
    for workers in (1, 4, 1):
        backend = make_backend(config.backend)
        runs.append(run_batch(sentences, backend, config, workers=workers))
    assert runs[0] == runs[1] == runs[2]
    assert [p.sentence_id for p in runs[0]] == ["del1", "disc1", "fig2"]
    assert all(not isinstance(p, SentenceFailure) for p in runs[0])


def test_missing_replay_file_fails_loudly(replay_dir, pipeline_manifest_path, tmp_path):
    config = load_config().with_backend(mode="replay", replay_dir=str(tmp_path))
    backend = make_backend(config.backend)
    manifest = load_manifest(pipeline_manifest_path)
    entry = manifest.entries[0]
    result = parse_sentence(manifest_entry_to_input_sentence(entry), backend, config)
    assert isinstance(result, SentenceFailure)
    assert result.stage == "SPH"
    assert "no recorded response" in result.error


def replay_parse(tmp_path, manifest_path, sid, edit):
    """Parse manifest sentence ``sid`` in replay mode from its recorded stage
    responses after ``edit(responses)``."""
    scripts = Path(__file__).parent / "data" / "replay_scripts"
    responses = {stage: json.loads((scripts / f"{sid}.{stage}.json").read_text("utf-8"))
                 for stage in ("sph", "lsr", "core")}
    edit(responses)
    config = replay_config(tmp_path)
    entry = next(e for e in load_manifest(manifest_path).entries if e.sentence_id == sid)
    sentence = manifest_entry_to_input_sentence(entry)
    seed_replay_store(ReplayStore(tmp_path), sentence,
                      {stage: json.dumps(obj) for stage, obj in responses.items()},
                      config.backend.model_name, mwe_whitelist=config.mwe_whitelist)
    return parse_sentence(sentence, make_backend(config.backend), config)


def test_an_empty_core_lemma_keeps_the_lsr_lemma(tmp_path, pipeline_manifest_path):
    """Core's LEMMA wins when it is non-empty; an empty or null one falls back
    to LSR's lemma, and a row with neither has none."""
    def edit(responses):
        core = {row["proposed_ID"]: row for row in responses["core"]["annotated_tokens"]}
        lsr = {row["proposed_ID"]: row for row in responses["lsr"]["tokens"]}
        core["2"]["LEMMA"], core["9"]["LEMMA"] = "", None  # LSR: "then", "buy"
        core["10"]["LEMMA"] = lsr["10"]["lemma"] = ""
        core["1"]["LEMMA"] = "luego"  # LSR: "entonces"

    parse = replay_parse(tmp_path, pipeline_manifest_path, "fig2", edit)
    lemmas = {str(token.id): token.lemma for token in induced_sentence(parse).tokens}
    assert (lemmas["1"], lemmas["2"], lemmas["9"], lemmas["10"]) == ("luego", "then", "buy", None)


def test_a_core_head_id_that_names_no_node_is_repaired_by_its_head_form(
        tmp_path, pipeline_manifest_path):
    """The Core schema's id pattern admits "4.0", which no node id reads as."""
    def edit(responses):
        responses["core"]["annotated_tokens"][1]["HEAD_ID"] = "4.0"  # "de", HEAD_FORM mercado

    parse = replay_parse(tmp_path, pipeline_manifest_path, "del1", edit)
    assert parse.adjudication_log == ("repair[head]: invalid head '4.0' of 2 resolved to 4 "
                                      "by unique HEAD_FORM 'mercado'",)
    assert induced_sentence(parse).tokens[1].head == NodeId(4)
