import pytest

from spokenud.backends import StubBackend, make_backend
from spokenud.config import ConfigError, load_config
from spokenud.core import UD_RELATIONS, UPOS_TAGS


def test_defaults_load():
    config = load_config()
    assert abs(sum(config.weights.astuple()) - 1.0) < 1e-9
    assert config.weights.w_head == 0.25
    assert frozenset({"VERB", "AUX"}) in config.tolerance.upos_pairs
    assert config.penalties.missing_dotted_mwe == 0.30
    assert config.penalties.p_max == 0.95
    assert "you know" in config.mwe_whitelist
    assert config.allowed_upos == UPOS_TAGS
    assert config.allowed_deprels == UD_RELATIONS
    assert config.backend.mode == "stub"
    assert config.backend.temperature == 0.0
    assert config.agent_retries == 2


def test_user_file_overrides_defaults(tmp_path):
    user = tmp_path / "user.yaml"
    user.write_text(
        "evaluation:\n"
        "  weights: {split: 0.1, id: 0.1, upos: 0.2, head: 0.3, deprel: 0.3}\n"
        "pipeline:\n"
        "  workers: 4\n"
        "backend:\n"
        "  model_name: other-model\n",
        encoding="utf-8")
    config = load_config(user)
    assert config.weights.w_head == 0.3
    assert config.workers == 4
    assert config.backend.model_name == "other-model"
    # untouched sections keep their defaults
    assert config.penalties.minor_mismatch == 0.02
    assert "you know" in config.mwe_whitelist


def test_invalid_weights_rejected(tmp_path):
    user = tmp_path / "user.yaml"
    user.write_text(
        "evaluation:\n"
        "  weights: {split: 0.5, id: 0.5, upos: 0.5, head: 0.5, deprel: 0.5}\n",
        encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(user)


def test_out_of_band_penalty_rejected(tmp_path):
    user = tmp_path / "user.yaml"
    user.write_text(
        "evaluation:\n"
        "  penalties: {missing_dotted_mwe: 0.9}\n",
        encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(user)


@pytest.mark.parametrize("document, key", [
    ("evaluation:\n  penalties: {p_max: -0.5}\n", "evaluation.penalties: p_max"),
    ("evaluation:\n  penalties: {p_max: 1.5}\n", "evaluation.penalties: p_max"),
    ("pipeline:\n  workers: 0\n", "pipeline.workers"),
    ("pipeline:\n  workers: -3\n", "pipeline.workers"),
])
def test_out_of_range_value_names_its_key(tmp_path, document, key):
    user = tmp_path / "user.yaml"
    user.write_text(document, encoding="utf-8")
    with pytest.raises(ConfigError, match=key):
        load_config(user)


def test_missing_config_file_errors():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.yaml")


def test_stub_backend_from_config():
    config = load_config()
    backend = make_backend(config.backend)
    assert isinstance(backend, StubBackend)


def test_allowed_relation_sets_configurable(tmp_path):
    user = tmp_path / "user.yaml"
    user.write_text(
        "annotation:\n"
        "  allowed_deprels: [root, nsubj, obj, dep, reparandum, discourse]\n",
        encoding="utf-8")
    config = load_config(user)
    assert config.allowed_deprels == frozenset(
        {"root", "nsubj", "obj", "dep", "reparandum", "discourse"})
    assert config.allowed_upos == UPOS_TAGS
