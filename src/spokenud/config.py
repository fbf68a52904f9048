"""Toolkit configuration: the defaults are ``ToolkitConfig()``, which the
shipped YAML document restates with inline comments; a user file overrides
that document, CLI flags override both. PyYAML loads only for a user file."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

from .backends import BACKEND_MODES, MAX_WORKERS, BackendConfig
from .core import SpokenUdError, UD_RELATIONS, UPOS_TAGS
from .flexud import PenaltySchedule, ToleranceConfig, Weights


class ConfigError(SpokenUdError):
    pass


@dataclass(frozen=True)
class ToolkitConfig:
    weights: Weights = Weights()
    tolerance: ToleranceConfig = field(default_factory=ToleranceConfig)  # holds a dict
    penalties: PenaltySchedule = PenaltySchedule()
    mwe_whitelist: tuple[str, ...] = ("you know", "a lot", "pitta bread", "swimming pool")
    allowed_upos: frozenset = UPOS_TAGS
    allowed_deprels: frozenset = UD_RELATIONS
    backend: BackendConfig = BackendConfig()
    workers: int = 1
    agent_retries: int = 2

    def with_backend(self, **kwargs) -> "ToolkitConfig":
        return replace(self, backend=replace(self.backend, **kwargs))


def _deep_merge(base: dict, override: dict, prefix: str = "") -> dict:
    """``base`` with ``override``'s values; a key ``base`` lacks is refused."""
    merged = dict(base)
    for key, value in override.items():
        if key not in base and prefix != "evaluation.tolerance.contractions.":  # an open table
            raise ConfigError(f"unknown config key {prefix}{key}")
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value, f"{prefix}{key}.")
        else:
            merged[key] = value
    return merged


def load_config(path: str | Path | None = None) -> ToolkitConfig:
    """``ToolkitConfig()``, or with ``path`` the shipped document merged with
    a user YAML file of the same structure. The shipped document holds every
    key and a user file can only override one, so every key is read."""
    if path is None:
        return ToolkitConfig()
    import yaml
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml's when PyYAML has it
    document = yaml.load(resources.files("spokenud.data")
                         .joinpath("default_config.yaml").read_text("utf-8"), Loader=loader)
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file does not exist: {path}")
    try:
        user = yaml.load(path.read_text("utf-8"), Loader=loader) or {}
    except (ValueError, yaml.YAMLError) as err:  # also bad UTF-8
        raise ConfigError(f"config file is not UTF-8 YAML: {path}: "
                          f"{' '.join(str(err).split())}") from None  # one line
    if not isinstance(user, dict):
        raise ConfigError(f"config file must hold a mapping: {path}")
    try:
        return _build(_deep_merge(document, user))
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None


def _number(doc: dict, key: str, kind=float, least=None, most=None):
    """The value at dotted ``key``'s last part in ``doc`` as ``kind``, at least
    ``least`` and at most ``most`` if given. A boolean, or a fraction where an
    int is expected, is refused, as is nan, which would pass every range check."""
    value = doc[key.rpartition(".")[2]]
    try:
        number = kind(value)
        valid = math.isfinite(number) and not isinstance(value, bool)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid or kind is int and isinstance(value, float) and number != value:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")
    if least is not None and number < least:
        raise ConfigError(f"{key} must be at least {least}, got {number}")
    if most is not None and number > most:
        raise ConfigError(f"{key} must be at most {most}, got {number}")
    return number


def _string(doc: dict, key: str, nullable: bool = False) -> str | None:
    """The string (with ``nullable``, or null) at dotted ``key``'s last part in ``doc``."""
    value = doc[key.rpartition(".")[2]]
    if isinstance(value, str) or nullable and value is None:
        return value
    raise ConfigError(f"{key}: expected a string{' or null' if nullable else ''}, "
                      f"got {value!r}")


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
    backend_doc = _section(document, "backend")
    if backend_doc["mode"] not in BACKEND_MODES:
        raise ConfigError(f"backend.mode: expected one of {', '.join(BACKEND_MODES)}, "
                          f"got {backend_doc['mode']!r}")
    backend = BackendConfig(
        mode=backend_doc["mode"],
        base_url=_string(backend_doc, "backend.base_url", nullable=True),
        model_name=_string(backend_doc, "backend.model_name"),
        temperature=_number(backend_doc, "backend.temperature"),
        max_tokens=_number(backend_doc, "backend.max_tokens", int),
        timeout_s=_number(backend_doc, "backend.timeout_s"),
        retries=_number(backend_doc, "backend.retries", int, least=0),
        replay_dir=_string(backend_doc, "backend.replay_dir", nullable=True),
        auth_env_var=_string(backend_doc, "backend.auth_env_var"),
    )

    return ToolkitConfig(
        weights=weights,
        tolerance=tolerance,
        penalties=penalties,
        mwe_whitelist=tuple(_strings(pipeline_doc, "pipeline.mwe_whitelist")),
        allowed_upos=allowed_upos,
        allowed_deprels=allowed_deprels,
        backend=backend,
        workers=_number(pipeline_doc, "pipeline.workers", int, least=1, most=MAX_WORKERS),
        agent_retries=_number(pipeline_doc, "pipeline.agent_retries", int, least=0),
    )
