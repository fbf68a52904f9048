"""Model-stage execution: prompt rendering, schema validation, bounded retry."""

from __future__ import annotations

import json
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


def _validator(stage: str):
    """The stage's schema validator, built once per process. The schema is
    checked against its metaschema on first use, so a broken shipped schema
    still fails loudly."""
    with _validators_lock:
        if stage not in _validators:
            schema = stage_schema(stage)
            cls = jsonschema.validators.validator_for(schema)
            cls.check_schema(schema)
            _validators[stage] = cls(schema)
        return _validators[stage]


def _schema_violations(stage: str, obj: dict) -> list[str]:
    """The error ``jsonschema.validate`` would raise, as a violation line."""
    err = jsonschema.exceptions.best_match(_validator(stage).iter_errors(obj))
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
    if stage == "sph":
        input_sentence = upstream
        payload = input_payload(upstream)
        sentence_id = upstream.sentence_id
    else:
        payload = upstream.to_payload()
        sentence_id = upstream.sentence_id
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
    sph_payload = envelope_to_json_text(input_payload(sentence))
    system_prompt, user_prompt = render_prompt("sph", sph_payload)
    store.save(f"{sentence.sentence_id}.sph",
               request_fingerprint(system_prompt, user_prompt, model),
               responses["sph"])

    sph_envelope, violations = parse_sph(json.loads(responses["sph"]))
    if violations:
        raise SpokenUdError(f"canned sph response invalid: {violations}")
    lsr_payload = envelope_to_json_text(sph_envelope.to_payload())
    system_prompt, user_prompt = render_prompt("lsr", lsr_payload)
    store.save(f"{sentence.sentence_id}.lsr",
               request_fingerprint(system_prompt, user_prompt, model),
               responses["lsr"])

    lsr_envelope, violations = parse_lsr(json.loads(responses["lsr"]))
    if violations:
        raise SpokenUdError(f"canned lsr response invalid: {violations}")
    lsr_envelope, _ = apply_mwe_whitelist(lsr_envelope, mwe_whitelist)
    core_payload = envelope_to_json_text(lsr_envelope.to_payload())
    system_prompt, user_prompt = render_prompt("core", core_payload)
    store.save(f"{sentence.sentence_id}.core",
               request_fingerprint(system_prompt, user_prompt, model),
               responses["core"])
