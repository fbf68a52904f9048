"""Differential test: on stage responses that pass the decode and the schema
check, the parsers that trust the schema and the validators without the
[0, 1] re-checks give exactly what the former ones (kept verbatim in
``tests/envelope_parse_reference.py``) gave."""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from spokenud.config import load_config
from spokenud.core import LANG_TAGS, SPOKEN_LABELS
from spokenud.ioformats import load_manifest, manifest_entry_to_input_sentence
from spokenud.pipeline import agents, envelopes
from spokenud.pipeline.prompts import STAGES

import envelope_parse_reference as reference

DATA = Path(__file__).parent / "data"
FIXTURES = ("del1", "disc1", "fig2")
CONFIG = load_config()
SENTENCES = {e.sentence_id: manifest_entry_to_input_sentence(e) for e in
             load_manifest(DATA / "manifest" / "pipeline_fixtures.jsonl").entries}
RAW = {(sid, stage): (DATA / "replay_scripts" / f"{sid}.{stage}.json").read_text("utf-8")
       for sid in FIXTURES for stage in STAGES}

# Ids the schema's pattern admits but the data model refuses (0, 1.0, "1\n")
# or that name rows which do not exist, next to well-formed ones.
IDS = ("1", "2", "3", "4", "2.1", "1.1", "3.2", "99", "0", "00", "0.1", "1.0",
       "01", "1\n", "12")
# In and out of [0, 1]; NaN and the infinities are refused at decode.
CONFIDENCES = (None, 0, 1, 0.0, 1.0, 0.5, -0.0, 1e-9, 0.999, 1.5, -1,
               math.nan, math.inf, -math.inf)
NOTES = (None, "", "note", "X")
TOKEN_VALUES = {
    "proposed_ID": IDS,
    "orig_token_index": (1, 2, 3, 4, 1.0, 2.0, 0, 9, True),
    "split_token": ("del", "de", "el", "you_know", "you", "a_b_c", "Yo", ""),
    "lang_tag": LANG_TAGS + ("xx", None),
    "spoken_label": SPOKEN_LABELS + (None, "other"),
    "spoken_anchor": IDS + (None,),
    "lemma": NOTES,
    "mwe": (True, False, 1, None),
    "sph_confidence": CONFIDENCES,
    "lsr_confidence": CONFIDENCES,
    "lsr_notes": NOTES,
}
CORE_VALUES = {
    "proposed_ID": IDS,
    "FORM": ("del", "", "x"),
    "LEMMA": NOTES,
    "UPOS": ("", "NOUN", "VERB", "XX"),
    "HEAD_ID": ("", "0", "1", "2", "1\n", "2.1", "0.0", "x"),
    "HEAD_FORM": NOTES,
    "DEPREL": ("", "root", "nsubj", "rep", "bogus"),
    "core_confidence": CONFIDENCES,
    "core_notes": NOTES,
}
ROOT_VALUES = {
    "sentence_id": ("del1", "disc1", "fig2", "", 5),
    "summary_notes": NOTES,
    "confidence": CONFIDENCES,
}


def token_key(stage: str) -> str:
    return "annotated_tokens" if stage == "core" else "tokens"


@st.composite
def responses(draw, stage):
    """A fixture response after one to four edits: a token or root key set
    from its pool, a key deleted from one token, every token or the root, a
    token dropped or repeated, or an id-map entry rewritten."""
    sid = draw(st.sampled_from(FIXTURES))
    obj = json.loads(RAW[sid, stage])
    tokens = obj[token_key(stage)]
    values = CORE_VALUES if stage == "core" else TOKEN_VALUES
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(("token", "token", "token", "root", "delete",
                                     "omit", "drop", "repeat", "id_map")))
        index = draw(st.integers(0, max(len(tokens) - 1, 0)))
        if edit == "token" and tokens:
            key = draw(st.sampled_from(sorted(values)))
            tokens[index][key] = draw(st.sampled_from(values[key]))
        elif edit == "root":
            key = draw(st.sampled_from(sorted(ROOT_VALUES)))
            obj[key] = draw(st.sampled_from(ROOT_VALUES[key]))
        elif edit == "delete" and tokens:
            target = draw(st.sampled_from((tokens[index], obj)))
            del target[draw(st.sampled_from(sorted(target)))]
        elif edit == "omit":
            key = draw(st.sampled_from(sorted(values)))
            for token in tokens:
                token.pop(key, None)
        elif edit == "drop" and len(tokens) > 1:
            del tokens[index]
        elif edit == "repeat" and tokens:
            tokens.insert(index, copy.deepcopy(tokens[index]))
        elif edit == "id_map" and stage != "core":
            id_map = obj.setdefault("proposed_id_map", {})
            key = draw(st.sampled_from(("1", "2", "3", "01", "1\n", "0", "x")))
            id_map[key] = draw(st.lists(st.sampled_from(IDS), max_size=3))
    return sid, json.dumps(obj)


def upstream(sid: str, stage: str):
    """The envelope the fixture's previous stage hands on, as run_agent does."""
    sph, _ = envelopes.parse_sph(json.loads(RAW[sid, "sph"]))
    if stage == "lsr":
        return sph
    lsr, _ = envelopes.parse_lsr(json.loads(RAW[sid, "lsr"]))
    return envelopes.apply_mwe_whitelist(lsr, CONFIG.mwe_whitelist)[0]


def parse_and_validate(module, stage: str, obj: dict, sid: str):
    sentence = SENTENCES[sid]
    if stage == "core":
        envelope, violations = module.parse_core(obj)
        checks = module.validate_core(envelope, upstream(sid, stage),
                                      CONFIG.allowed_upos, CONFIG.allowed_deprels)
    elif stage == "lsr":
        envelope, violations = module.parse_lsr(obj)
        checks = module.validate_lsr(envelope, upstream(sid, stage), sentence)
    else:
        envelope, violations = module.parse_sph(obj)
        checks = module.validate_sph(envelope, sentence)
    return envelope, violations, checks


@pytest.mark.parametrize("stage", STAGES)
@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_trusting_parsers_match_the_reference_on_accepted_responses(stage, data):
    sid, raw = data.draw(responses(stage))
    obj, _ = agents._single_json_object(raw)
    assume(obj is not None and not agents._schema_violations(stage, obj))
    expected = parse_and_validate(reference, stage, json.loads(raw), sid)
    actual = parse_and_validate(envelopes, stage, obj, sid)
    assert actual == expected, raw
    assert repr(actual) == repr(expected), raw
    assert not any("outside [0,1]" in v for v in expected[2]), raw


def test_reference_parsers_disagreed_only_on_what_the_schema_refuses():
    """Each check the new code dropped fires in the reference on an object
    that the decode or the schema check now refuses first."""
    cases = [
        ("sph", ("tokens", 0, "lang_tag"), "xx", "unknown lang_tag"),
        ("sph", ("tokens", 0, "spoken_label"), "other", "unknown spoken_label"),
        ("lsr", ("proposed_id_map", "x"), ["1"], "bad original index"),
        ("sph", ("tokens", 0, "sph_confidence"), math.nan, "outside [0,1]"),
        ("sph", ("confidence",), math.nan, "outside [0,1]"),
        ("core", ("annotated_tokens", 0, "core_confidence"), math.nan, "outside [0,1]"),
    ]
    for stage, path, value, message in cases:
        obj = json.loads(RAW["del1", stage])
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        _, violations, checks = parse_and_validate(reference, stage, obj, "del1")
        assert any(message in v for v in violations + checks), (path, value)
        decoded, refused = agents._single_json_object(json.dumps(obj))
        assert refused or agents._schema_violations(stage, decoded), (path, value)
