"""Model-stage execution: prompt rendering, schema validation, bounded retry."""

from __future__ import annotations

import importlib.util
import json
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


# The program never runs jsonschema (_compile decides, _errors words a refusal).
# This lazy binding, whose code never loads, is only the name perfbench/tracer.py
# hooks for its schema_check layer; ROADMAP item 1 deletes it.
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

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None), "number": (int, float), "integer": int}


def _names(types) -> list:  # a schema's "type", a name or a list of names
    return [types] if isinstance(types, str) else types


# Keyword -> the type of the values _compile takes for it (the metaschema's, or narrower).
_KEYWORDS = {"type": (str, list), "enum": list, "required": list, "pattern": str, "$ref": str,
             "additionalProperties": bool, "minimum": (int, float), "maximum": (int, float),
             "minItems": int, "minLength": int, "properties": dict, "patternProperties": dict,
             "items": dict, "$defs": dict, "$schema": str, "$id": str, "title": str,
             "description": str}


def _validator(stage: str):
    """The stage's schema and its compiled predicate, built once per process."""
    with _validators_lock:
        if stage not in _validators:
            schema = stage_schema(stage)
            _validators[stage] = schema, _compile(stage, schema)
        return _validators[stage]


def _compile(stage: str, root: dict):
    """``root`` compiled in one walk into generated Python, one function of
    ``obj`` per node over the keywords it has, with jsonschema's draft 2020-12
    verdict for those in _KEYWORDS; the last five check nothing. Any other
    keyword, or a value its keyword does not take, fails loudly. Constants
    reach the code by name; only the ``repr`` of property names is spliced
    into it. Enum members are scalars; True never equals 1, as in jsonschema."""
    source: list[str] = []
    consts: dict = {"MISSING": object()}
    # $defs name -> its function; $ref target -> the name bound to that function;
    # function -> its one expression, which an object's function inlines.
    defs, refs, leaves = {}, {}, {}

    def check_of_value(name: str) -> str:  # function ``name``'s check of ``value``
        return re.sub(r"\bobj\b", "value", leaves.get(name, f"{name}(obj)"))

    def const(value) -> str:
        consts[name := f"c{len(consts)}"] = value
        return name

    def node(schema) -> str:
        """Emit ``schema``'s function; return its name."""
        if not isinstance(schema, dict):
            raise SpokenUdError(f"{stage} schema: unsupported subschema {schema!r}")
        for key, value in schema.items():
            if not isinstance(value, _KEYWORDS.get(key, ())) \
                    or isinstance(value, bool) != (key == "additionalProperties") \
                    or key == "type" and not (value and all(
                        isinstance(name, str) and name in _TYPES for name in _names(value))) \
                    or key == "enum" and any(isinstance(v, (list, dict)) for v in value) \
                    or key == "$ref" and not value.startswith("#/$defs/"):
                raise SpokenUdError(f"{stage} schema: unsupported keyword {key!r}: {value!r}")
        get, checks = schema.get, []
        # Only the root's $defs count.
        (defs if schema is root else {}).update(
            (name, node(sub)) for name, sub in get("$defs", {}).items())

        def on(kind, check):  # a check of one JSON type's values; other values pass
            type_checked = get("type") in ((kind, "integer") if kind == "number" else (kind,))
            checks.append(check if type_checked else
                          f"(not isinstance(obj, {const(_TYPES[kind])}) or {check})")
        if "$ref" in schema:
            checks.append(refs.setdefault(get("$ref")[len("#/$defs/"):], f"r{len(refs)}")
                          + "(obj)")
        if "type" in schema:
            names = set(_names(get("type")))
            check = f"isinstance(obj, {const(tuple(_TYPES[name] for name in names))})"
            if names & {"number", "integer"} and "boolean" not in names:
                check += " and not isinstance(obj, bool)"
            if "integer" in names and "number" not in names:
                check += " or isinstance(obj, float) and obj.is_integer()"
            checks.append(f"({check})")
        if "enum" in schema:
            members = frozenset((isinstance(e, bool), e) for e in schema["enum"])
            checks.append("(not isinstance(obj, (list, dict)) and "
                          f"(isinstance(obj, bool), obj) in {const(members)})")
        if "pattern" in schema:
            on("string", f"{const(re.compile(get('pattern')).search)}(obj) is not None")
        if "minimum" in schema or "maximum" in schema:
            outside = " or ".join(f"obj {op} {const(get(key))}" for key, op in
                                  (("minimum", "<"), ("maximum", ">")) if key in schema)
            on("number", f"(isinstance(obj, bool) or not ({outside}))")
        for keyword, kind in (("minLength", "string"), ("minItems", "array")):
            if keyword in schema:
                on(kind, f"len(obj) >= {const(schema[keyword])}")
        if "items" in schema:
            on("array", f"all(map({node(get('items'))}, obj))")
        closed = get("additionalProperties") is False
        if not (closed or {"properties", "patternProperties", "required"} & schema.keys()):
            leaves[f"n{len(source)}"] = f"({' and '.join(checks) or 'True'})"
            body = ["return " + leaves[f"n{len(source)}"]]
        else:
            body = [f"if not ({' and '.join(checks)}): return False"] if checks else []
            if get("type") != "object":
                body.append("if not isinstance(obj, dict): return True")
            for key, sub in get("properties", {}).items():
                body += [f"value = obj.get({key!r}, MISSING)", "if value is not MISSING "
                         f"and not {check_of_value(node(sub))}: return False"]
            patterns = [(const(re.compile(pattern).search), node(sub))
                        for pattern, sub in get("patternProperties", {}).items()]
            if patterns or closed:
                body.append("for key, value in obj.items():")
                body += [f"    if {search}(key) and not {check_of_value(sub)}: return False"
                         for search, sub in patterns]
                if closed:
                    known = const(frozenset(get("properties", ())))
                    matched = " or ".join(f"{search}(key)" for search, _ in patterns)
                    body.append(f"    if key not in {known} and not ({matched or 'False'}):"
                                " return False")
            body.append(f"return {const(frozenset(get('required', ())))} <= obj.keys()")
        source.append(f"def n{len(source)}(obj):\n    " + "\n    ".join(body))
        return f"n{len(source) - 1}"

    top = node(root)
    for target, ref in refs.items():
        if target not in defs:
            raise SpokenUdError(f"{stage} schema: no $defs entry for $ref {target!r}")
        source.append(f"{ref} = {defs[target]}")
    for text in source:  # one at a time, which keeps the compiler's peak memory low
        exec(compile(text, f"<{stage} schema>", "exec"), consts)
    return consts[top]


def _is_type(obj, types) -> bool:  # jsonschema's verdict on obj for a schema's "type"
    return any(name == "boolean" if isinstance(obj, bool) else isinstance(obj, _TYPES[name])
               or name == "integer" and isinstance(obj, float) and obj.is_integer()
               for name in _names(types))


def _errors(schema: dict, obj, path: tuple, defs: dict):
    """jsonschema 4.26's errors in ``obj`` under ``schema``, in its order (keywords
    as listed, depth first), as ((-len(path), path, not matches_type), message):
    ``matches_type`` if ``obj`` is of the ``type`` of the schema holding the keyword."""
    matches_type = "type" in schema and _is_type(obj, schema["type"])
    rank = (-len(path), path, not matches_type)
    for key, value in schema.items():
        if key == "$ref":
            yield from _errors(defs[value[len("#/$defs/"):]], obj, path, defs)
        elif key == "items" and isinstance(obj, list):
            for index, item in enumerate(obj):
                yield from _errors(value, item, path + (index,), defs)
        elif key == "properties" and isinstance(obj, dict):
            for name in filter(obj.__contains__, value):
                yield from _errors(value[name], obj[name], path + (name,), defs)
        elif key == "patternProperties" and isinstance(obj, dict):
            for pattern, sub in value.items():
                for name in filter(re.compile(pattern).search, obj):
                    yield from _errors(sub, obj[name], path + (name,), defs)
        elif key == "required" and isinstance(obj, dict):
            yield from ((rank, f"{name!r} is a required property") for name in value
                        if name not in obj)
        elif key == "type" and not matches_type:
            yield rank, f"{obj!r} is not of type {', '.join(map(repr, _names(value)))}"
        elif key == "enum" and (isinstance(obj, (list, dict)) or (isinstance(obj, bool), obj)
                                not in {(isinstance(e, bool), e) for e in value}):
            yield rank, f"{obj!r} is not one of {value!r}"
        elif key == "pattern" and isinstance(obj, str) and not re.search(value, obj):
            yield rank, f"{obj!r} does not match {value!r}"
        elif key in ("minimum", "maximum") and _is_type(obj, "number") \
                and (obj < value if key == "minimum" else obj > value):
            yield rank, (f"{obj!r} is {'less' if key == 'minimum' else 'greater'} "
                         f"than the {key} of {value!r}")
        elif key in ("minLength", "minItems") \
                and isinstance(obj, str if key == "minLength" else list) and len(obj) < value:
            yield rank, f"{obj!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif key == "additionalProperties" and value is False and isinstance(obj, dict):
            patterns = schema.get("patternProperties")
            extras = [repr(name) for name in sorted(obj) if name not in schema.get(
                "properties", {}) and not any(re.search(p, name) for p in patterns or ())]
            one, listed = len(extras) == 1, ", ".join(extras)
            if extras and patterns is None:
                yield rank, (f"Additional properties are not allowed ({listed} "
                             f"{'was' if one else 'were'} unexpected)")
            elif extras:
                yield rank, (f"{listed} {'does' if one else 'do'} not match any of the "
                             f"regexes: {', '.join(map(repr, sorted(patterns)))}")


def _schema_violations(stage: str, obj: dict) -> list[str]:
    """The error ``jsonschema.validate`` (4.26) raises, as a violation line. The
    compiled predicate decides; of a refused ``obj``'s _errors, best_match's pick
    is worded: the max of (-len(path), path, not matches_type), where the first
    maximal error wins (its other terms rank anyOf and oneOf, which _compile
    refuses). This heuristic may change between jsonschema versions, so
    tests/test_schema_validator.py pins it with 4.26 as the oracle."""
    schema, conforms = _validator(stage)
    if conforms(obj):
        return []
    (_, path, _), message = max(_errors(schema, obj, (), schema.get("$defs", {})),
                                key=lambda error: error[0])
    return [f"schema: {message} at {'/'.join(map(str, path)) or '<root>'}"]


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _single_json_object(raw: str) -> tuple[dict | None, list[str]]:
    """The response decoded by ``json.loads``, refusing the NaN, Infinity and
    -Infinity that RFC 8259 does not allow: NaN would pass every schema bound.
    Nesting past the recursion limit is invalid JSON too, not a crash. Any str
    but one with a BOM, which json.loads refuses, goes to the shared decoder."""
    try:
        obj = _DECODER.decode(raw) if type(raw) is str and raw[:1] != "\ufeff" \
            else json.loads(raw, parse_constant=_refuse_constant)
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
        asked = []

        def answer(system_prompt, user_prompt, key, raw=responses[stage]):
            asked.append((key, request_fingerprint(system_prompt, user_prompt, model)))
            return raw
        try:
            upstream = run_agent(stage, upstream, StubBackend(script=answer), config,
                                 input_sentence=sentence)
        except SchemaViolation as err:
            raise SpokenUdError(f"canned {stage} response invalid: {err.violations}") from None
        store.save(*asked[0], responses[stage])
