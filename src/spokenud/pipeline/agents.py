"""Model-stage execution: prompt rendering, schema validation, bounded retry."""

from __future__ import annotations

import functools
import importlib.util
import json
import math
import re
import sys
import threading
from types import SimpleNamespace

from ..backends import ReplayStore, StubBackend, request_fingerprint
from ..core import UD_RELATIONS, UPOS_TAGS, Sentence, SpokenUdError
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
from .prompts import STAGES, render_prompt, repair_prompt, stage_schema


class SchemaViolation(SpokenUdError):
    """A stage kept returning invalid output after the retry budget."""

    def __init__(self, stage: str, violations: list[str], attempts: int):
        self.stage = stage
        self.violations = list(violations)
        self.attempts = attempts
        summary = "; ".join(self.violations[:5])
        super().__init__(
            f"{stage.upper()} output invalid after {attempts} attempts: {summary}")


# Only parse checks stage schemas, so eval, validate and report never load
# jsonschema: its code runs on its first attribute access, which happens in
# _validator under _validators_lock (on Python 3.11 that load is not thread-safe).
jsonschema = sys.modules.get("jsonschema")
if jsonschema is None:
    _spec = importlib.util.find_spec("jsonschema")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'jsonschema'", name="jsonschema")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    jsonschema = sys.modules["jsonschema"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(jsonschema)

_validators: dict = {}
_validators_lock = threading.Lock()

_KEYWORDS = frozenset((
    "type", "required", "properties", "items", "minItems", "minLength",
    "pattern", "patternProperties", "additionalProperties", "enum", "minimum",
    "maximum", "$ref", "$schema", "$id", "title", "description", "$defs"))
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None), "number": (int, float), "integer": int}


def _validator(stage: str):
    """The stage's jsonschema validator and compiled predicate, built once per
    process on first use; a schema its metaschema refuses fails loudly."""
    with _validators_lock:
        if stage not in _validators:
            schema = stage_schema(stage)
            cls = jsonschema.validators.validator_for(schema)
            cls.check_schema(schema)
            _validators[stage] = cls(schema), _compile(stage, schema)
        return _validators[stage]


def _compile(stage: str, root: dict):
    """``root`` compiled in one walk into a predicate, one closure per node over
    the keywords it has, with jsonschema's draft 2020-12 verdict for those in
    _KEYWORDS; the last five check nothing, and any other keyword fails loudly.
    Enum members are scalars; True never equals 1, as in jsonschema."""
    defs: dict = {}

    def node(schema):
        if not isinstance(schema, dict):
            raise SpokenUdError(f"{stage} schema: unsupported subschema {schema!r}")
        for key, value in schema.items():
            if key not in _KEYWORDS or key == "$ref" and not value.startswith("#/$defs/") \
                    or key == "additionalProperties" and not isinstance(value, bool) \
                    or key == "enum" and any(isinstance(v, (list, dict)) for v in value):
                raise SpokenUdError(f"{stage} schema: unsupported keyword {key!r}")
        get, checks = schema.get, []
        # A $ref looks its target up at call time; only the root's $defs count.
        (defs if schema is root else {}).update(
            (name, node(sub)) for name, sub in get("$defs", {}).items())

        def on(kind, check):  # a check of one JSON type's values; other values pass
            type_checked = get("type") in ((kind, "integer") if kind == "number" else (kind,))
            checks.append(check if type_checked else lambda obj, cls=_TYPES[kind]:
                          not isinstance(obj, cls) or check(obj))
        if "$ref" in schema:
            checks.append(lambda obj, name=get("$ref")[len("#/$defs/"):]: defs[name](obj))
        if "type" in schema:
            names = {get("type")} if isinstance(get("type"), str) else set(get("type"))
            classes = tuple(_TYPES[name] for name in names)
            any_bool = "boolean" in names or not names & {"number", "integer"}
            integral = "integer" in names and "number" not in names
            checks.append(lambda obj: isinstance(obj, classes) and (
                any_bool or not isinstance(obj, bool))
                or integral and isinstance(obj, float) and obj.is_integer())
        if "enum" in schema:
            members = frozenset((isinstance(e, bool), e) for e in schema["enum"])
            checks.append(lambda obj: not isinstance(obj, (list, dict))
                          and (isinstance(obj, bool), obj) in members)
        if "pattern" in schema:
            on("string", lambda s, search=re.compile(get("pattern")).search:
               search(s) is not None)
        if "minimum" in schema or "maximum" in schema:
            low, high = get("minimum", -math.inf), get("maximum", math.inf)
            on("number", lambda x: isinstance(x, bool) or not (x < low or x > high))
        for keyword, kind in (("minLength", "string"), ("minItems", "array")):
            if keyword in schema:
                on(kind, lambda x, n=schema[keyword]: len(x) >= n)
        if "items" in schema:
            on("array", lambda a, item=node(get("items")): all(map(item, a)))
        closed = get("additionalProperties") is False
        if closed or {"properties", "patternProperties", "required"} & schema.keys():
            properties = {key: node(sub) for key, sub in get("properties", {}).items()}
            patterns = [(re.compile(pattern).search, node(sub))
                        for pattern, sub in get("patternProperties", {}).items()]

            def check_object(obj, required=frozenset(get("required", ()))):
                for key, value in obj.items():
                    prop = properties.get(key)
                    if prop is not None and not prop(value):
                        return False
                    for search, sub in patterns:
                        if search(key) and not sub(value):
                            return False
                    if closed and prop is None and not any(s(key) for s, _ in patterns):
                        return False
                return required <= obj.keys()
            on("object", check_object)
        return functools.reduce(lambda first, then: lambda obj: first(obj) and then(obj),
                                checks or [lambda obj: True])

    return node(root)


def _schema_violations(stage: str, obj: dict) -> list[str]:
    """The error ``jsonschema.validate`` would raise, as a violation line;
    jsonschema is asked only about responses the predicate rejects."""
    validator, conforms = _validator(stage)
    if conforms(obj):
        return []
    err = jsonschema.exceptions.best_match(validator.iter_errors(obj))
    if err is None:
        return []
    path = "/".join(str(p) for p in err.absolute_path)
    return [f"schema: {err.message} at {path or '<root>'}"]


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _single_json_object(raw: str) -> tuple[dict | None, list[str]]:
    """The response decoded by ``json.loads``, refusing the NaN, Infinity and
    -Infinity that RFC 8259 does not allow: NaN would pass every schema bound.
    Nesting past the recursion limit is invalid JSON too, not a crash."""
    try:
        obj = json.loads(raw, parse_constant=_refuse_constant)
    except (ValueError, RecursionError) as err:  # also a refused constant, a huge int
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

    ``responses`` maps stage name to raw response text. Each stage runs
    through run_agent with no retry (Core checked against the shipped UPOS
    tags and relations), answered by its canned text, so a response a replay
    run would refuse raises an error naming its stage; a stage's request is
    recorded only once it passes, and its envelope drives the next prompt.
    """
    config = SimpleNamespace(agent_retries=0, mwe_whitelist=mwe_whitelist,
                             allowed_upos=UPOS_TAGS, allowed_deprels=UD_RELATIONS)
    upstream = sentence
    for stage in STAGES:
        requests = []

        def answer(system_prompt, user_prompt, key, raw=responses[stage]):
            requests.append((key, request_fingerprint(system_prompt, user_prompt, model)))
            return raw
        try:
            upstream = run_agent(stage, upstream, StubBackend(script=answer), config,
                                 input_sentence=sentence)
        except SchemaViolation as err:
            raise SpokenUdError(f"canned {stage} response invalid: {err.violations}") from None
        store.save(*requests[0], responses[stage])
