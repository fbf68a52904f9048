"""Differential test: the per-stage validators built once give exactly the
violation text that ``jsonschema.validate`` raising gives, on seeded mutants
of the recorded stage responses."""

import copy
import json
import random
import sys
import threading
from pathlib import Path

import jsonschema
import pytest

from spokenud.backends import StubBackend
from spokenud.config import load_config
from spokenud.ioformats import load_manifest, manifest_entry_to_input_sentence
from spokenud.pipeline import agents, run_agent
from spokenud.pipeline.prompts import STAGES, stage_schema

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
    monkeypatch.setattr(agents, "_validators", {})
    validator_class = jsonschema.validators.validator_for(stage_schema("sph"))
    checked = []
    original = validator_class.check_schema.__func__

    def counting(cls, schema, *args, **kwargs):
        checked.append(schema["$id"])
        return original(cls, schema, *args, **kwargs)

    monkeypatch.setattr(validator_class, "check_schema", classmethod(counting))
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
    assert sorted(checked) == sorted(stage_schema(s)["$id"] for s in STAGES)


def test_broken_schema_fails_loudly(monkeypatch):
    monkeypatch.setattr(agents, "_validators", {})
    monkeypatch.setattr(agents, "stage_schema", lambda stage: {"type": 5})
    with pytest.raises(jsonschema.SchemaError):
        agents._schema_violations("sph", {})


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
