"""Model-stage execution: prompt rendering, schema validation, bounded retry."""

from __future__ import annotations

import functools
import json
import re
import threading

import jsonschema

from ..backends import ReplayStore, request_fingerprint
from ..core import Sentence, SpokenUdError
from .envelopes import (
    apply_mwe_whitelist,
    envelope_to_json_text,
    input_payload,
    parse_core,
    parse_lsr,
    parse_sph,
    validate_core,
    validate_lsr,
    validate_sph,
)
from .prompts import render_prompt, repair_prompt, stage_schema


class SchemaViolation(SpokenUdError):
    """A stage kept returning invalid output after the retry budget."""

    def __init__(self, stage: str, violations: list[str], attempts: int):
        self.stage = stage
        self.violations = list(violations)
        self.attempts = attempts
        summary = "; ".join(self.violations[:5])
        super().__init__(
            f"{stage.upper()} output invalid after {attempts} attempts: {summary}")


_validators: dict = {}
_validators_lock = threading.Lock()

_KEYWORDS = frozenset((
    "type", "required", "properties", "items", "minItems", "minLength",
    "pattern", "patternProperties", "additionalProperties", "enum", "minimum",
    "maximum", "$ref", "$schema", "$id", "title", "description", "$defs"))
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None), "number": (int, float), "integer": int}
_regex = functools.cache(re.compile)


def _validator(stage: str):
    """The stage's schema validator, built once per process. The schema is
    checked against its metaschema, and for keywords _conforms does not
    interpret, on first use, so a broken shipped schema still fails loudly."""
    with _validators_lock:
        if stage not in _validators:
            schema = stage_schema(stage)
            cls = jsonschema.validators.validator_for(schema)
            cls.check_schema(schema)
            _check_keywords(stage, schema)
            _validators[stage] = cls(schema)
        return _validators[stage]


def _check_keywords(stage: str, schema) -> None:
    if not isinstance(schema, dict):
        raise SpokenUdError(f"{stage} schema: unsupported subschema {schema!r}")
    for key, value in schema.items():
        if key not in _KEYWORDS or key == "$ref" and not value.startswith("#/$defs/") \
                or key == "additionalProperties" and not isinstance(value, bool) \
                or key == "enum" and any(isinstance(v, (list, dict)) for v in value):
            raise SpokenUdError(f"{stage} schema: unsupported keyword {key!r}")
        for sub in value.values() if key in ("properties", "patternProperties", "$defs") \
                else [value] if key == "items" else ():
            _check_keywords(stage, sub)


def _is_type(obj, name: str) -> bool:
    if isinstance(obj, bool):
        return name == "boolean"
    return isinstance(obj, _TYPES[name]) or \
        name == "integer" and isinstance(obj, float) and obj.is_integer()


def _conforms(schema: dict, obj, root: dict | None = None) -> bool:
    """Whether ``obj`` is valid under ``schema`` by jsonschema's draft 2020-12
    semantics for the keywords in _KEYWORDS, of which the last five check
    nothing. Enum members are scalars; True never equals 1, as in jsonschema."""
    root = root or schema
    if "$ref" in schema and not _conforms(
            root["$defs"][schema["$ref"].removeprefix("#/$defs/")], obj, root):
        return False
    types = schema.get("type")
    if types is not None and not (
            _is_type(obj, types) if isinstance(types, str)
            else any(_is_type(obj, t) for t in types)):
        return False
    if "enum" in schema and not any(
            e is obj or isinstance(e, bool) == isinstance(obj, bool) and e == obj
            for e in schema["enum"]):
        return False
    if isinstance(obj, str):
        return len(obj) >= schema.get("minLength", 0) and (
            "pattern" not in schema or bool(_regex(schema["pattern"]).search(obj)))
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return not ("minimum" in schema and obj < schema["minimum"]
                    or "maximum" in schema and obj > schema["maximum"])
    if isinstance(obj, list):
        items = schema.get("items")
        return len(obj) >= schema.get("minItems", 0) and (
            items is None or all(_conforms(items, x, root) for x in obj))
    if not isinstance(obj, dict):
        return True
    properties = schema.get("properties", {})
    patterns = schema.get("patternProperties", {})
    for key, value in obj.items():
        known = key in properties
        if known and not _conforms(properties[key], value, root):
            return False
        for pattern, sub in patterns.items():
            if _regex(pattern).search(key):
                known = True
                if not _conforms(sub, value, root):
                    return False
        if not known and schema.get("additionalProperties") is False:
            return False
    return all(key in obj for key in schema.get("required", ()))


def _schema_violations(stage: str, obj: dict) -> list[str]:
    """The error ``jsonschema.validate`` would raise, as a violation line;
    jsonschema is asked only about responses _conforms rejects."""
    validator = _validator(stage)
    if _conforms(validator.schema, obj):
        return []
    err = jsonschema.exceptions.best_match(validator.iter_errors(obj))
    if err is None:
        return []
    path = "/".join(str(p) for p in err.absolute_path)
    return [f"schema: {err.message} at {path or '<root>'}"]


def _single_json_object(raw: str) -> tuple[dict | None, list[str]]:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as err:
        return None, [f"response is not valid JSON: {err}"]
    if not isinstance(obj, dict):
        return None, ["response must be a single JSON object"]
    return obj, []


def run_agent(stage: str, upstream, backend, config, *,
              input_sentence: Sentence | None = None):
    """Run one model stage and validate its output.

    ``upstream`` is the input Sentence for the first stage or the prior
    stage's envelope otherwise; ``input_sentence`` supplies the original
    tokenization for the later stages' validators. Invalid responses trigger
    repair rounds with the violation list appended to the prompt, up to the
    configured retry budget; exhaustion raises SchemaViolation.
    """
    sentence_id = upstream.sentence_id
    if stage == "sph":
        input_sentence = upstream
        payload = input_payload(upstream)
    else:
        payload = upstream.to_payload()
    payload_text = envelope_to_json_text(payload)
    system_prompt, user_prompt = render_prompt(stage, payload_text)
    budget = config.agent_retries

    violations: list[str] = []
    attempts = 0
    prompt = user_prompt
    while attempts <= budget:
        attempts += 1
        key = f"{sentence_id}.{stage}" if attempts == 1 else \
            f"{sentence_id}.{stage}.retry{attempts - 1}"
        raw = backend.complete(system_prompt, prompt, key=key)
        obj, violations = _single_json_object(raw)
        if obj is not None:
            violations = _schema_violations(stage, obj)
            if not violations:
                envelope, violations = _parse_and_check(
                    stage, obj, upstream, input_sentence, config)
                if not violations:
                    return envelope
        prompt = repair_prompt(user_prompt, violations)
    raise SchemaViolation(stage, violations, attempts)


def _parse_and_check(stage: str, obj: dict, upstream,
                     input_sentence: Sentence, config):
    if stage == "sph":
        envelope, violations = parse_sph(obj)
        violations += validate_sph(envelope, input_sentence)
        return envelope, violations
    if stage == "lsr":
        envelope, violations = parse_lsr(obj)
        violations += validate_lsr(envelope, upstream, input_sentence)
        if not violations:
            envelope, _ = apply_mwe_whitelist(envelope, config.mwe_whitelist)
        return envelope, violations
    envelope, violations = parse_core(obj)
    violations += validate_core(envelope, upstream,
                                config.allowed_upos, config.allowed_deprels)
    return envelope, violations


def seed_replay_store(store: ReplayStore, sentence: Sentence,
                      responses: dict, model: str,
                      mwe_whitelist=()) -> None:
    """Record canned stage responses under the fingerprints live runs compute.

    ``responses`` maps stage name to raw response text. Each canned output is
    parsed (and whitelist MWEs applied, mirroring run_agent) to derive the
    next stage's prompt, so replay-mode lookups hit the recorded entries.
    """
    payload = input_payload(sentence)
    for stage in ("sph", "lsr", "core"):
        system_prompt, user_prompt = render_prompt(stage, envelope_to_json_text(payload))
        store.save(f"{sentence.sentence_id}.{stage}",
                   request_fingerprint(system_prompt, user_prompt, model),
                   responses[stage])
        if stage == "core":
            return
        parse = parse_sph if stage == "sph" else parse_lsr
        envelope, violations = parse(json.loads(responses[stage]))
        if violations:
            raise SpokenUdError(f"canned {stage} response invalid: {violations}")
        if stage == "lsr":
            envelope, _ = apply_mwe_whitelist(envelope, mwe_whitelist)
        payload = envelope.to_payload()
