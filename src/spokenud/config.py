"""Toolkit configuration: one declarative YAML document with all defaults
inline-documented; user files override defaults, CLI flags override both."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

import yaml

from .backends import BackendConfig
from .core import SpokenUdError, UD_RELATIONS, UPOS_TAGS
from .flexud import PenaltySchedule, ToleranceConfig, Weights


class ConfigError(SpokenUdError):
    pass


@dataclass(frozen=True)
class ToolkitConfig:
    weights: Weights
    tolerance: ToleranceConfig
    penalties: PenaltySchedule
    mwe_whitelist: tuple[str, ...]
    allowed_upos: frozenset
    allowed_deprels: frozenset
    backend: BackendConfig
    workers: int = 1
    agent_retries: int = 2

    def with_backend(self, **kwargs) -> "ToolkitConfig":
        return replace(self, backend=replace(self.backend, **kwargs))


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _load_yaml(text: str):
    """The document in ``text``, parsed by libyaml when PyYAML has it."""
    return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_config(path: str | Path | None = None) -> ToolkitConfig:
    """Build the toolkit configuration from the shipped defaults, optionally
    merged with a user YAML file of the same structure. The defaults hold
    every key and a user file can only override one, so every key is read."""
    document = _load_yaml(resources.files("spokenud.data")
                          .joinpath("default_config.yaml").read_text("utf-8"))
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file does not exist: {path}")
        user = _load_yaml(path.read_text("utf-8")) or {}
        if not isinstance(user, dict):
            raise ConfigError(f"config file must hold a mapping: {path}")
        document = _deep_merge(document, user)
    return _build(document)


def _number(doc: dict, key: str, kind=float):
    """The value of dotted ``key``'s last part in ``doc``, as ``kind``."""
    value = doc[key.rpartition(".")[2]]
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}") from None


def _section(doc: dict, key: str) -> dict:
    """The mapping at dotted ``key``'s last part in ``doc``."""
    value = doc[key.rpartition(".")[2]]
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected a mapping, got {type(value).__name__}")
    return value


def _strings(doc: dict, key: str, nested: bool = False) -> list:
    """The list of strings (with ``nested``, of lists of strings) at dotted
    ``key``'s last part in ``doc``; null reads as empty."""
    value = doc[key.rpartition(".")[2]]
    rows = value if nested and isinstance(value, list) else [value]
    if value is not None and not all(
            isinstance(row, list) and all(isinstance(s, str) for s in row) for row in rows):
        kind = "lists of strings" if nested else "strings"
        raise ConfigError(f"{key}: expected a list of {kind}, got {value!r}")
    return value or []


def _build(document: dict) -> ToolkitConfig:
    evaluation = _section(document, "evaluation")
    weights_doc = _section(evaluation, "evaluation.weights")
    try:
        # Field w_split reads key split, and so on.
        weights = Weights(**{f.name: _number(weights_doc, f"evaluation.weights.{f.name[2:]}")
                             for f in fields(Weights)})
    except SpokenUdError as err:
        raise ConfigError(str(err))

    tolerance_doc = _section(evaluation, "evaluation.tolerance")
    tolerance = ToleranceConfig(
        upos_pairs=frozenset(frozenset(pair) for pair in _strings(
            tolerance_doc, "evaluation.tolerance.upos_pairs", nested=True)),
        deprel_classes=tuple(frozenset(cls) for cls in _strings(
            tolerance_doc, "evaluation.tolerance.deprel_classes", nested=True)),
        upos_credit=_number(tolerance_doc, "evaluation.tolerance.upos_credit"),
        deprel_credit=_number(tolerance_doc, "evaluation.tolerance.deprel_credit"),
        contraction_table={str(k): str(v) for k, v in _section(
            tolerance_doc, "evaluation.tolerance.contractions").items()},
    )

    penalties_doc = _section(evaluation, "evaluation.penalties")
    try:
        penalties = PenaltySchedule(**{
            f.name: _number(penalties_doc, f"evaluation.penalties.{f.name}")
            for f in fields(PenaltySchedule)})
    except ValueError as err:
        raise ConfigError(f"evaluation.penalties: {err}")

    annotation_doc = _section(document, "annotation")
    allowed_upos = frozenset(_strings(annotation_doc, "annotation.allowed_upos")
                             or UPOS_TAGS)
    allowed_deprels = frozenset(_strings(annotation_doc, "annotation.allowed_deprels")
                                or UD_RELATIONS)

    pipeline_doc = _section(document, "pipeline")
    workers = _number(pipeline_doc, "pipeline.workers", int)
    if workers < 1:
        raise ConfigError(f"pipeline.workers must be at least 1, got {workers}")
    backend_doc = _section(document, "backend")
    backend = BackendConfig(
        mode=backend_doc["mode"],
        base_url=backend_doc["base_url"],
        model_name=backend_doc["model_name"],
        temperature=_number(backend_doc, "backend.temperature"),
        max_tokens=_number(backend_doc, "backend.max_tokens", int),
        timeout_s=_number(backend_doc, "backend.timeout_s"),
        retries=_number(backend_doc, "backend.retries", int),
        replay_dir=backend_doc["replay_dir"],
        max_in_flight=_number(backend_doc, "backend.max_in_flight", int),
        auth_env_var=backend_doc["auth_env_var"],
    )

    return ToolkitConfig(
        weights=weights,
        tolerance=tolerance,
        penalties=penalties,
        mwe_whitelist=tuple(_strings(pipeline_doc, "pipeline.mwe_whitelist")),
        allowed_upos=allowed_upos,
        allowed_deprels=allowed_deprels,
        backend=backend,
        workers=workers,
        agent_retries=_number(pipeline_doc, "pipeline.agent_retries", int),
    )
