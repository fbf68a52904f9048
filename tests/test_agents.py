import json

import pytest

from spokenud.backends import StubBackend
from spokenud.config import load_config
from spokenud.ioformats import DuplicateSentenceId
from spokenud.pipeline import (
    SchemaViolation,
    SentenceFailure,
    parse_sentence,
    run_agent,
    run_batch,
)
from spokenud.pipeline.envelopes import build_id_map

from pipeline_helpers import core_from, input_sentence, sph_lsr


@pytest.fixture(scope="module")
def config():
    return load_config()


def canned(sid, forms, labels=None, anchors=None, annotations=None):
    sph, lsr = sph_lsr(sid, forms, labels, anchors)
    core = core_from(sid, annotations, forms=forms)
    return {
        "sph": json.dumps(sph.to_payload()),
        "lsr": json.dumps(lsr.to_payload()),
        "core": json.dumps(core.to_payload()),
    }


def three_word_responses(sid="t1"):
    return canned(sid, ["yo", "creo", "si"], annotations=[
        ("1", "PRON", "2", "nsubj"),
        ("2", "VERB", "0", "root"),
        ("3", "INTJ", "2", "discourse"),
    ])


def scripted_backend(responses, failures_before_success=0):
    calls = {"n": {}}

    def script(system, user, key):
        stage = key.split(".")[1] if key else "?"
        count = calls["n"].get(stage, 0)
        calls["n"][stage] = count + 1
        if count < failures_before_success:
            return "this is not json at all"
        return responses[stage]

    return StubBackend(script=script), calls


def test_clean_run_produces_final_parse(config):
    sentence = input_sentence("t1", ["yo", "creo", "si"])
    backend, _ = scripted_backend(three_word_responses())
    parse = parse_sentence(sentence, backend, config)
    assert not isinstance(parse, SentenceFailure)
    assert parse.sentence_id == "t1"
    assert [row.split_token for row in parse.rows] == ["yo", "creo", "si"]
    assert all(row.penalty == 0.0 for row in parse.rows)


def test_retry_recovers_after_two_garbage_responses(config):
    sentence = input_sentence("t1", ["yo", "creo", "si"])
    backend, calls = scripted_backend(three_word_responses(),
                                      failures_before_success=2)
    envelope = run_agent("sph", sentence, backend, config)
    assert envelope.sentence_id == "t1"
    assert calls["n"]["sph"] == 3  # initial call plus two retries


def test_retry_exhaustion_raises_schema_violation(config):
    sentence = input_sentence("t1", ["yo", "creo", "si"])
    backend, _ = scripted_backend(three_word_responses(),
                                  failures_before_success=5)
    with pytest.raises(SchemaViolation) as err:
        run_agent("sph", sentence, backend, config)
    assert err.value.stage == "sph"
    assert err.value.attempts == 3


def test_failure_contained_in_sentence_failure(config):
    sentence = input_sentence("t1", ["yo", "creo", "si"])
    backend, _ = scripted_backend(three_word_responses(),
                                  failures_before_success=5)
    result = parse_sentence(sentence, backend, config)
    assert isinstance(result, SentenceFailure)
    assert result.stage == "SPH"
    assert result.envelopes == {}


def test_core_with_two_roots_triggers_retry(config):
    responses = three_word_responses()
    bad_core = canned("t1", ["yo", "creo", "si"], annotations=[
        ("1", "PRON", "0", "root"),
        ("2", "VERB", "0", "root"),
        ("3", "INTJ", "2", "discourse"),
    ])["core"]
    sequence = {"sph": [responses["sph"]], "lsr": [responses["lsr"]],
                "core": [bad_core, responses["core"]]}
    seen_prompts = []

    def script(system, user, key):
        stage = key.split(".")[1] if key else "?"
        seen_prompts.append((stage, user))
        queue = sequence[stage]
        return queue.pop(0) if len(queue) > 1 else queue[0]

    sentence = input_sentence("t1", ["yo", "creo", "si"])
    parse = parse_sentence(sentence, StubBackend(script=script), config)
    assert not isinstance(parse, SentenceFailure)
    retry_prompts = [u for s, u in seen_prompts if s == "core"][1]
    assert "exactly one token must have HEAD_ID" in retry_prompts
    assert "repair_required" in retry_prompts


def test_lsr_removing_sph_split_is_rejected(config):
    sid = "t2"
    sph, _ = sph_lsr(sid, ["do", "not", "go"])
    # Claim original index 1 produced both "do" and "not" upstream...
    from dataclasses import replace
    sph_tokens = (replace(sph.tokens[0], orig_token_index=1),
                  replace(sph.tokens[1], orig_token_index=1),
                  replace(sph.tokens[2], orig_token_index=2))
    sph = replace(sph, tokens=sph_tokens, id_map=build_id_map(sph_tokens))
    # ...but LSR merges them back into one token.
    lsr_obj = {
        "sentence_id": sid,
        "tokens": [
            {"proposed_ID": "1", "orig_token_index": 1, "split_token": "don't"},
            {"proposed_ID": "2", "orig_token_index": 2, "split_token": "go"},
        ],
        "proposed_id_map": {"1": ["1"], "2": ["2"]},
    }
    backend = StubBackend(script=lambda s, u, k: json.dumps(lsr_obj))
    two_word_input = input_sentence(sid, ["don't", "go"])
    with pytest.raises(SchemaViolation) as err:
        run_agent("lsr", sph, backend, config, input_sentence=two_word_input)
    assert any("tokenization edits were removed" in v
               for v in err.value.violations)


def test_whitelist_mwe_auto_combined(config):
    sid = "t3"
    responses = canned(sid, ["you", "know", "right"], annotations=[])
    sentence = input_sentence(sid, ["you", "know", "right"])
    backend, _ = scripted_backend(responses)
    sph = run_agent("sph", sentence, backend, config)
    lsr = run_agent("lsr", sph, backend, config, input_sentence=sentence)
    dotted = [t for t in lsr.tokens if t.proposed_id.is_dotted]
    assert len(dotted) == 1
    assert dotted[0].split_token == "you_know"
    assert any("auto-combined" in line for line in lsr.enforcements)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_batch_rejects_duplicate_ids_before_any_backend_call(config, workers):
    calls = []

    def script(system, user, key):
        calls.append(key)
        return three_word_responses("d1")[key.split(".")[1]]

    sentences = [input_sentence("d1", ["yo", "creo", "si"]),
                 input_sentence("d2", ["yo", "creo", "si"]),
                 input_sentence("d1", ["yo", "creo", "si"])]
    with pytest.raises(DuplicateSentenceId, match="d1"):
        run_batch(sentences, StubBackend(script=script), config, workers=workers)
    assert calls == []
