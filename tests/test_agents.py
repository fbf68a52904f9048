import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spokenud.backends import ReplayStore, StubBackend
from spokenud.config import load_config
from spokenud.core import SpokenUdError
from spokenud.ioformats import DuplicateSentenceId
from spokenud.pipeline import (
    FinalParse,
    SchemaViolation,
    SentenceFailure,
    agents,
    driver,
    parse_sentence,
    run_agent,
    run_batch,
    seed_replay_store,
)
from spokenud.pipeline.envelopes import build_id_map
from spokenud.pipeline.prompts import STAGES

from pipeline_helpers import core_from, input_sentence, sheet_rows, sph_lsr


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
    assert [row.split_token for row in sheet_rows(parse)] == ["yo", "creo", "si"]
    assert all(row.penalty == 0.0 for row in sheet_rows(parse))


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


# --- decoding and seeding ------------------------------------------------------

def with_value(stage, key, value, responses):
    """``responses`` with ``key`` set to ``value`` in the stage's response: on
    its root for ``confidence``, else on its first token."""
    obj = json.loads(responses[stage])
    target = obj if key == "confidence" else \
        obj["annotated_tokens" if stage == "core" else "tokens"][0]
    target[key] = value
    return dict(responses, **{stage: json.dumps(obj)})  # NaN is written as NaN


CONFIDENCE_KEYS = [("sph", "sph_confidence"), ("sph", "confidence"),
                   ("lsr", "lsr_confidence"), ("lsr", "confidence"),
                   ("core", "core_confidence")]


@pytest.mark.parametrize("stage, key", CONFIDENCE_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_confidence_is_retried_and_never_reaches_finalize(
        config, monkeypatch, stage, key, value):
    good = three_word_responses()
    bad = with_value(stage, key, float(value), good)
    constant = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[value]
    violation = f"response is not valid JSON: {constant} is not a JSON number"
    sentence = input_sentence("t1", ["yo", "creo", "si"])
    finalized = []
    real_finalize = driver.finalize
    monkeypatch.setattr(driver, "finalize",
                        lambda *args: finalized.append(args) or real_finalize(*args))

    always_bad = StubBackend(script=lambda system, user, key: bad[key.split(".")[1]])
    failure = parse_sentence(sentence, always_bad, config)
    assert isinstance(failure, SentenceFailure) and failure.stage == stage.upper()
    assert failure.violations == [violation] and finalized == []

    prompts = []

    def bad_once(system, user, key):
        prompts.append(user)
        return (bad if key == f"t1.{stage}" else good)[key.split(".")[1]]

    assert isinstance(parse_sentence(sentence, StubBackend(script=bad_once), config),
                      FinalParse)
    assert len(finalized) == 1 and len(prompts) == 4
    assert json.dumps(violation) in prompts[STAGES.index(stage) + 1]


JSONISH = st.text(alphabet='{}[]":, 0123456789.eE-+tnrufalsNIiy\ufeff\\', max_size=14)
JSON_TEXTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5).map(json.dumps)
FIXTURE_TEXT = three_word_responses()["sph"]


@settings(derandomize=True, deadline=None, max_examples=500)
@given(raw=JSONISH | JSON_TEXTS | st.integers(0, len(FIXTURE_TEXT)).map(
    lambda n: FIXTURE_TEXT[:n]) | st.sampled_from(
        ["\ufeff{}", "{} {}", " {}\n", "[NaN, }", '{"a": -Infinity', "[1, NaN]"]))
def test_decode_matches_json_loads_except_for_non_finite_constants(raw):
    """A response is refused at its first NaN, Infinity or -Infinity, which
    json.loads would accept; any other response json.loads refuses keeps the
    retry text it had, and one it accepts decodes to the same object."""
    constants = []
    try:
        expected = json.loads(raw, parse_constant=lambda c: constants.append(c) or 0)
    except json.JSONDecodeError as err:
        error = f"{constants[0]} is not a JSON number" if constants else err
        assert agents._single_json_object(raw) == \
            (None, [f"response is not valid JSON: {error}"])
        return
    if constants:
        assert agents._single_json_object(raw) == (None, [
            f"response is not valid JSON: {constants[0]} is not a JSON number"])
    elif isinstance(expected, dict):
        assert agents._single_json_object(raw) == (expected, [])
    else:
        assert agents._single_json_object(raw) == \
            (None, ["response must be a single JSON object"])


def test_an_integer_too_long_to_convert_is_retried_not_raised():
    raw = '{"sentence_id": ' + "1" * 5000 + "}"
    try:
        json.loads(raw)
    except ValueError as err:  # the interpreter's limit on integer digits
        assert agents._single_json_object(raw) == \
            (None, [f"response is not valid JSON: {err}"])
    else:
        assert agents._single_json_object(raw)[0] is not None


# Nested past the interpreter's recursion limit: json.loads raises RecursionError.
DEEP = "[" * 100000


@pytest.mark.parametrize("stage", STAGES)
def test_json_nested_past_the_recursion_limit_is_retried_not_raised(config, stage):
    with pytest.raises(RecursionError) as err:
        json.loads(DEEP)
    violation = f"response is not valid JSON: {err.value}"
    good = three_word_responses()
    keys, prompts = [], []

    def deep_once(system, user, key):
        keys.append(key)
        prompts.append(user)
        return DEEP if key == f"t1.{stage}" else good[key.split(".")[1]]

    sentence = input_sentence("t1", ["yo", "creo", "si"])
    assert isinstance(parse_sentence(sentence, StubBackend(script=deep_once), config),
                      FinalParse)
    retry = keys.index(f"t1.{stage}") + 1
    assert len(keys) == 4 and keys[retry] == f"t1.{stage}.retry1"
    assert json.dumps(violation) in prompts[retry]


def semantic_defect(stage, good):
    """``good`` with the stage's response one its schema admits but its
    semantic validator refuses, and the violation the refusal names."""
    if stage == "sph":
        sph = dict(json.loads(good["sph"]), sentence_id="t2")
        return dict(good, sph=json.dumps(sph)), "sentence_id 't2' does not match input 't1'"
    if stage == "lsr":
        return with_value("lsr", "lemma", "YO", good), "lemma of 1 must be lowercase: 'YO'"
    core = canned("t1", ["yo", "creo", "si"], annotations=[
        ("1", "PRON", "0", "root"), ("2", "VERB", "0", "root"),
        ("3", "INTJ", "2", "discourse")])["core"]
    return dict(good, core=core), 'exactly one token must have HEAD_ID "0", found 2'


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("kind", ["not-json", "schema-invalid", "nan", "deep", "semantic"])
def test_seeding_a_bad_canned_response_names_its_stage(tmp_path, config, stage, kind):
    good = three_word_responses()
    key = "confidence" if stage != "core" else "core_confidence"
    violation = ""
    if kind == "semantic":
        responses, violation = semantic_defect(stage, good)
    else:
        responses = {
            "not-json": dict(good, **{stage: "this is not json at all"}),
            "deep": dict(good, **{stage: DEEP}),
            "schema-invalid": dict(good, **{stage: json.dumps({"sentence_id": "t1"})}),
            "nan": with_value(stage, key, float("nan"), good),
        }[kind]
    with pytest.raises(SpokenUdError, match=f"^canned {stage} response invalid: ") as err:
        seed_replay_store(ReplayStore(tmp_path), input_sentence("t1", ["yo", "creo", "si"]),
                          responses, config.backend.model_name)
    assert violation in str(err.value)
    # Only the stages before the refused one are recorded.
    assert {path.name for path in tmp_path.iterdir()} == {
        f"t1.{earlier}.json" for earlier in STAGES[:STAGES.index(stage)]}
