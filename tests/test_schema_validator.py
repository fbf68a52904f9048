"""Differential test: the per-stage validators built once give exactly the
violation text that ``jsonschema.validate`` raising gives, on seeded mutants
of the recorded stage responses."""

import copy
import json
import random
import re
import sys
import threading
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spokenud.backends import StubBackend
from spokenud.config import load_config
from spokenud.core import LANG_TAGS, SPOKEN_LABELS, SpokenUdError
from spokenud.ioformats import load_manifest, manifest_entry_to_input_sentence
from spokenud.pipeline import agents, run_agent
from spokenud.pipeline.prompts import STAGES, stage_schema

from schema_reference import _conforms as reference_conforms

DATA = Path(__file__).parent / "data"
FIXTURES = ("del1", "disc1", "fig2")
MUTANTS_PER_FIXTURE = 60

WRONG_TYPES = (None, True, 0, -3, 1.5, "x", "", [], ["1"], {}, {"a": 1})
BAD_IDS = ("", "a", "1.", ".1", "1.2.3", " 1", "1 ", "-1", "1a", "١", "1\n", "1.x")
OUT_OF_RANGE = (-1, -0.01, 1.01, 2, 100, -1e-9, 1 + 1e-9)


def reference_violations(stage: str, obj) -> list[str]:
    """The violation list as run_agent built it from jsonschema.validate."""
    try:
        jsonschema.validate(obj, stage_schema(stage))
    except jsonschema.ValidationError as err:
        path = "/".join(str(p) for p in err.absolute_path)
        return [f"schema: {err.message} at {path or '<root>'}"]
    return []


def fixture_response(sid: str, stage: str) -> dict:
    return json.loads((DATA / "replay_scripts" / f"{sid}.{stage}.json")
                      .read_text("utf-8"))


def token_key(stage: str) -> str:
    return "annotated_tokens" if stage == "core" else "tokens"


def confidence_keys(stage: str) -> tuple[str, ...]:
    return ("core_confidence",) if stage == "core" else \
        ("sph_confidence", "lsr_confidence")


def id_keys(stage: str) -> tuple[str, ...]:
    return ("proposed_ID", "HEAD_ID") if stage == "core" else \
        ("proposed_ID", "spoken_anchor")


def mutate(rng: random.Random, stage: str, obj: dict) -> None:
    """Apply one random mutation in place."""
    tokens = obj.get(token_key(stage))
    token = rng.choice(tokens) if isinstance(tokens, list) and tokens \
        and all(isinstance(t, dict) for t in tokens) else None
    kind = rng.choice(("drop_root", "drop_token_key", "root_type",
                       "token_type", "bad_id", "out_of_range", "empty_tokens",
                       "extra_root", "extra_token_key"))
    if kind == "drop_root" and obj:
        del obj[rng.choice(sorted(obj))]
    elif kind == "drop_token_key" and token:
        del token[rng.choice(sorted(token))]
    elif kind == "root_type":
        obj[rng.choice(sorted(obj) or ["sentence_id"])] = rng.choice(WRONG_TYPES)
    elif kind == "token_type" and token:
        token[rng.choice(sorted(token))] = rng.choice(WRONG_TYPES)
    elif kind == "bad_id" and token:
        token[rng.choice(id_keys(stage))] = rng.choice(BAD_IDS)
    elif kind == "out_of_range":
        if stage != "core" and rng.random() < 0.3:
            obj["confidence"] = rng.choice(OUT_OF_RANGE)
        elif token:
            token[rng.choice(confidence_keys(stage))] = rng.choice(OUT_OF_RANGE)
    elif kind == "empty_tokens":
        obj[token_key(stage)] = []
    elif kind == "extra_root":
        obj[f"extra_{rng.randrange(3)}"] = rng.choice(WRONG_TYPES)
    elif kind == "extra_token_key" and token:
        token[f"extra_{rng.randrange(3)}"] = rng.choice(WRONG_TYPES)


def mutants(stage: str, seed: int = 20260):
    rng = random.Random(f"{seed}-{stage}")
    for sid in FIXTURES:
        base = fixture_response(sid, stage)
        yield base
        for _ in range(MUTANTS_PER_FIXTURE):
            obj = copy.deepcopy(base)
            for _ in range(rng.choice((1, 1, 2, 3))):
                mutate(rng, stage, obj)
            yield obj


@pytest.mark.parametrize("stage", STAGES)
def test_violations_match_jsonschema_validate(stage):
    invalid = valid = 0
    for obj in mutants(stage):
        expected = reference_violations(stage, obj)
        assert agents._schema_violations(stage, obj) == expected, obj
        if expected:
            invalid += 1
        else:
            valid += 1
    # Both outcomes occur often enough for the comparison to mean something.
    assert invalid > MUTANTS_PER_FIXTURE and valid > 10


@pytest.mark.parametrize("stage", STAGES)
def test_fixture_responses_are_schema_valid(stage):
    for sid in FIXTURES:
        assert agents._schema_violations(stage, fixture_response(sid, stage)) == []


def test_check_schema_runs_once_per_stage(monkeypatch):
    """Each stage's schema is compiled once however many threads make the
    process's first checks at once."""
    monkeypatch.setattr(agents, "_validators", {})
    compiled = []
    compile_schema = agents._compile

    def counting_compile(stage, schema):
        compiled.append(stage)
        return compile_schema(stage, schema)

    monkeypatch.setattr(agents, "_compile", counting_compile)
    objs = {stage: fixture_response("fig2", stage) for stage in STAGES}
    results = []

    def worker():
        for _ in range(5):
            for stage in STAGES:
                results.append(agents._schema_violations(stage, objs[stage]))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[]] * (8 * 5 * len(STAGES))
    assert sorted(compiled) == sorted(STAGES)


@pytest.mark.parametrize("stage", STAGES)
def test_shipped_schemas_pass_their_metaschema(stage):
    schema = stage_schema(stage)
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("stage", ("sph", "lsr"))
def test_label_enums_are_the_data_model_sets(stage):
    """The parsers pass lang_tag and spoken_label on unchecked, and Token
    refuses any value outside these sets."""
    token = stage_schema(stage)["$defs"]["token"]["properties"]
    for enum, allowed in ((token["lang_tag"]["enum"], set(LANG_TAGS)),
                          (token["spoken_label"]["enum"], {*SPOKEN_LABELS, None})):
        assert len(enum) == len(set(enum)) and set(enum) == allowed


def test_broken_schema_fails_loudly(monkeypatch):
    monkeypatch.setattr(agents, "_validators", {})
    monkeypatch.setattr(agents, "stage_schema", lambda stage: {"type": 5})
    with pytest.raises(SpokenUdError,
                       match="^sph schema: unsupported keyword 'type': 5$"):
        agents._schema_violations("sph", {})


MALFORMED = [
    ("type", "strng"), ("type", []), ("type", [1]), ("type", [[]]), ("enum", "a"),
    ("required", "a"), ("properties", []), ("patternProperties", 1), ("pattern", 1),
    ("minItems", True), ("minLength", 1.5), ("minimum", "0"), ("maximum", None),
    ("items", []), ("$defs", 1), ("title", 1), ("$ref", 1),
]


@pytest.mark.parametrize("keyword, value", MALFORMED,
                         ids=[f"{k}={v!r}" for k, v in MALFORMED])
def test_a_value_the_metaschema_refuses_fails_loudly_naming_its_keyword(keyword, value):
    schema = {"type": "object", keyword: value}
    with pytest.raises(jsonschema.SchemaError):
        jsonschema.Draft202012Validator.check_schema(schema)
    message = f"core schema: unsupported keyword {keyword!r}: {value!r}"
    with pytest.raises(SpokenUdError, match=f"^{re.escape(message)}$"):
        agents._compile("core", schema)


def test_retry_prompt_wording_is_pinned(pipeline_manifest_path):
    """The retry prompt embeds the violation text, and replay fingerprints
    hash the prompt, so its bytes must not change."""
    entry = next(e for e in load_manifest(pipeline_manifest_path).entries
                 if e.sentence_id == "del1")
    sentence = manifest_entry_to_input_sentence(entry)
    valid = fixture_response("del1", "sph")
    missing_id = {k: v for k, v in valid.items() if k != "sentence_id"}
    responses = [json.dumps(missing_id), json.dumps(valid)]
    prompts = []

    def script(system, user, key):
        prompts.append((key, user))
        return responses[len(prompts) - 1]

    envelope = run_agent("sph", sentence, StubBackend(script=script), load_config())
    assert envelope.sentence_id == "del1"
    assert [key for key, _ in prompts] == ["del1.sph", "del1.sph.retry1"]
    assert prompts[1][1] == prompts[0][1] + (
        "\n\nYour previous response was invalid:\n"
        "{\n"
        '  "repair_required": true,\n'
        '  "violations": [\n'
        "    \"schema: 'sentence_id' is a required property at <root>\"\n"
        "  ],\n"
        '  "instruction": "Return the corrected JSON object only."\n'
        "}")


# --- the compiled predicate against the old interpreter and jsonschema --------

NAN, INF = float("nan"), float("inf")
EDGE_VALUES = (1.0, -2.0, True, False, 0, "1\n", "\u0661", NAN, INF, -INF)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(WRONG_TYPES + BAD_IDS + OUT_OF_RANGE + EDGE_VALUES)
    .map(copy.deepcopy),  # WRONG_TYPES holds lists and dicts an edit may grow
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
EXTRA_KEYS = st.sampled_from(("extra", "7", "1\n", "\u0661", "a", "")) \
    | st.text(max_size=3)


def slots(container):
    """Every (container, key) pair at or below ``container``."""
    items = container.items() if isinstance(container, dict) else \
        enumerate(container) if isinstance(container, list) else ()
    for key, value in list(items):
        yield container, key
        yield from slots(value)


def validate_violations(schema: dict, obj) -> list[str]:
    """reference_violations for any ``schema`` already known to pass its
    metaschema: ``jsonschema.validate`` raises ``best_match`` of the
    validator's errors, and skipping its metaschema check keeps this fast."""
    error = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(schema).iter_errors(obj))
    if error is None:
        return []
    path = "/".join(str(p) for p in error.absolute_path)
    return [f"schema: {error.message} at {path or '<root>'}"]


def verdicts(stage: str, obj) -> tuple[bool, bool]:
    """The compiled predicate's verdict, asserted equal to the interpreter it
    replaced, and jsonschema's; the violation line is asserted equal to the
    one ``jsonschema.validate`` gives."""
    schema, conforms = agents._validator(stage)
    verdict = conforms(obj)
    assert verdict == reference_conforms(schema, obj), obj
    assert agents._schema_violations(stage, obj) == validate_violations(schema, obj), obj
    return verdict, jsonschema.Draft202012Validator(schema).is_valid(obj)


@pytest.mark.parametrize("stage", STAGES)
@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_conforms_agrees_with_jsonschema(stage, data):
    """A random path gets an arbitrary JSON value, a key is deleted, or an
    extra key is added; the holder list lets the root itself be replaced."""
    holder = [fixture_response(data.draw(st.sampled_from(FIXTURES)), stage)]
    for _ in range(data.draw(st.integers(1, 3))):
        edit = data.draw(st.sampled_from(("set", "delete", "add")))
        if edit == "add":
            dicts = [v for c, k in slots(holder) if isinstance(v := c[k], dict)]
            if dicts:
                data.draw(st.sampled_from(dicts))[data.draw(EXTRA_KEYS)] = \
                    data.draw(JSON_VALUES)
            continue
        container, key = data.draw(st.sampled_from(list(slots(holder))))
        if edit == "set":
            container[key] = data.draw(JSON_VALUES)
        elif container is not holder:
            del container[key]
    conforms, valid = verdicts(stage, holder[0])
    assert conforms == valid, holder[0]


TOKEN_CASES = [
    ("orig_token_index", 1.0, True),
    ("orig_token_index", -0.0, False),
    ("orig_token_index", True, False),
    ("orig_token_index", 1.5, False),
    ("proposed_ID", "1\n", True),
    ("proposed_ID", "\u0661", False),
    ("spoken_anchor", "1\n", True),
    ("spoken_label", 0, False),
    ("spoken_label", False, False),
    ("spoken_label", None, True),
    ("sph_confidence", NAN, True),
    ("sph_confidence", INF, False),
    ("lsr_confidence", -INF, False),
    ("lsr_confidence", True, False),
    ("mwe", 1, False),
    ("split_token", "", False),
]
CORE_TOKEN_CASES = [
    ("HEAD_ID", "", True),
    ("HEAD_ID", "1\n", True),
    ("HEAD_ID", "\u0661", False),
    ("core_confidence", NAN, True),
    ("core_confidence", INF, False),
    ("core_confidence", 1, True),
    ("LEMMA", False, False),
]
ROOT_CASES = [
    (("confidence",), NAN, True),
    (("confidence",), -INF, False),
    (("tokens",), [], False),
    (("proposed_id_map", "a"), ["1"], False),
    (("proposed_id_map", "\u0661"), ["1"], False),
    (("proposed_id_map", "1\n"), ["1"], True),
    (("proposed_id_map", "1"), [1], False),
]
FIXED_CASES = (
    [(s, ("tokens", 0, k), v, ok) for s in ("sph", "lsr") for k, v, ok in TOKEN_CASES]
    + [(s, path, v, ok) for s in ("sph", "lsr") for path, v, ok in ROOT_CASES]
    + [("core", ("annotated_tokens", 0, k), v, ok) for k, v, ok in CORE_TOKEN_CASES]
    + [("core", ("annotated_tokens",), [], False)])


@pytest.mark.parametrize("stage, path, value, valid", FIXED_CASES,
                         ids=[f"{c[0]}-{'.'.join(map(str, c[1]))}={c[2]!r}"
                              for c in FIXED_CASES])
def test_conforms_on_fixed_edge_cases(stage, path, value, valid):
    obj = fixture_response("fig2", stage)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert verdicts(stage, obj) == (valid, valid)


SYNTHETIC_SCHEMAS = [
    {"minimum": 2, "maximum": 5},
    {"type": ["boolean", "integer"], "minimum": 2},
    {"enum": [1, "a", None, False]},
    {"type": ["string", "array"], "pattern": "^a", "minLength": 2, "minItems": 2},
    {"type": "object", "additionalProperties": False, "required": ["a"],
     "properties": {"a": {"type": "string"}}, "patternProperties": {"^a": {"minLength": 2}}},
    # Each wording of additionalProperties, minItems and minLength.
    {"additionalProperties": False, "properties": {"a": {}}},
    {"additionalProperties": False, "patternProperties": {"^a": {}, "b$": {}}},
    {"items": {"$ref": "#/$defs/s"}, "minItems": 1, "$defs": {"s": {"minLength": 1}}},
    {"required": ["b", "a"], "properties": {"b": {"enum": ["x"]}}, "minLength": 3},
    # At one path, an error whose schema's type the value fails (or that has
    # no type) beats one whose type it matches, and of equals the first wins.
    {"properties": {"a": {"type": "integer", "minimum": 5, "$ref": "#/$defs/s"}},
     "$defs": {"s": {"type": "string"}}},
    {"properties": {"a": {"minimum": 5, "$ref": "#/$defs/s"}}, "$defs": {"s": {"type": "string"}}},
    {"properties": {"a": {"$ref": "#/$defs/s", "minimum": 5}}, "$defs": {"s": {"type": "string"}}},
    # A shallower error beats a deeper one, and of two at one depth, the one
    # earlier by path.
    {"type": "object", "properties": {"b": {"type": "string"}, "a": {"items": {"maximum": 0}}},
     "required": ["c"]},
    {"properties": {"b": {"type": "string"}, "a": {"type": "string"}}},
]
SYNTHETIC_VALUES = (True, False, 0, 1, 1.0, 2, 5.0, 7.5, NAN, "a", "ab", "b", None,
                    [], [1], [1, 2], [""], ["a", 1], {}, {"a": "x"}, {"a": "xy"},
                    {"a": "xy", "ab": 1}, {"a": "xy", "b": 1}, {"a": 1}, {"b": 1, "c": 2},
                    {"a": 1, "b": 2}, {"ab": 1, "c": 2, "d": 3}, {"a": [1, 2], "b": 1},
                    {"a": [1, -1], "c": 1}, {"b": "x", "a": "y", "c": 1})


@pytest.mark.parametrize("schema", SYNTHETIC_SCHEMAS, ids=range(len(SYNTHETIC_SCHEMAS)))
def test_keyword_combinations_the_stage_schemas_lack(monkeypatch, schema):
    conforms = agents._compile("test", schema)
    validator = jsonschema.Draft202012Validator(schema)
    validator.check_schema(schema)
    monkeypatch.setattr(agents, "_validators", {})
    monkeypatch.setattr(agents, "stage_schema", lambda stage: schema)
    for value in SYNTHETIC_VALUES:
        assert conforms(value) == reference_conforms(schema, value) == \
            validator.is_valid(value), value
        assert agents._schema_violations("test", value) == \
            validate_violations(schema, value), value


def test_stage_schema_returns_a_fresh_dict_each_call():
    pristine = copy.deepcopy(stage_schema("sph"))
    edited = stage_schema("sph")
    edited["maxItems"] = 1
    edited["properties"].clear()
    assert stage_schema("sph") == pristine
    assert stage_schema("sph") is not stage_schema("sph")


@pytest.mark.parametrize("edit, keyword", [
    (lambda s: s["properties"]["tokens"].update(maxItems=50), "maxItems"),
    (lambda s: s["$defs"]["token"]["properties"]["lemma"].update(format="x"),
     "format"),
    (lambda s: s["properties"]["proposed_id_map"].update(
        additionalProperties={"type": "string"}), "additionalProperties"),
    (lambda s: s.update(oneOf=[{"type": "object"}]), "oneOf"),
], ids=["maxItems", "nested-format", "schema-additionalProperties", "oneOf"])
def test_unsupported_schema_keyword_fails_loudly(monkeypatch, edit, keyword):
    schema = copy.deepcopy(stage_schema("lsr"))
    edit(schema)
    monkeypatch.setattr(agents, "_validators", {})
    monkeypatch.setattr(agents, "stage_schema", lambda stage: schema)
    with pytest.raises(SpokenUdError,
                       match=f"lsr schema: unsupported keyword '{keyword}'"):
        agents._schema_violations("lsr", fixture_response("fig2", "lsr"))


def test_a_property_named_like_a_keyword_is_not_a_keyword(monkeypatch):
    schema = copy.deepcopy(stage_schema("sph"))
    schema["properties"]["maxItems"] = {"type": "integer"}
    monkeypatch.setattr(agents, "_validators", {})
    monkeypatch.setattr(agents, "stage_schema", lambda stage: schema)
    obj = fixture_response("fig2", "sph")
    assert agents._schema_violations("sph", obj) == []
    obj["maxItems"] = "many"
    assert agents._schema_violations("sph", obj) == [
        "schema: 'many' is not of type 'integer' at maxItems"]
