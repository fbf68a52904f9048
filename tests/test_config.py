import ast
from importlib import resources
from pathlib import Path

import pytest
import yaml

from spokenud.backends import StubBackend, make_backend
from spokenud.cli import main
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


def assert_config_error(tmp_path, capsys, document, message):
    """``document`` as the user config is refused with ``message``, and the CLI
    exits 1 printing it."""
    user = tmp_path / "user.yaml"
    user.write_text(document, encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(user)
    assert str(err.value) == message
    assert main(["--config", str(user), "validate", str(user)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("document, message", [
    ("evaluation:\n  weights: {split: x}\n",
     "evaluation.weights.split: expected float, got 'x'"),
    ("evaluation:\n  tolerance: {upos_credit: [0.5]}\n",
     "evaluation.tolerance.upos_credit: expected float, got [0.5]"),
    ("evaluation:\n  penalties: {p_max: high}\n",
     "evaluation.penalties.p_max: expected float, got 'high'"),
    ("pipeline:\n  workers: two\n", "pipeline.workers: expected int, got 'two'"),
    ("pipeline:\n  agent_retries: null\n",
     "pipeline.agent_retries: expected int, got None"),
    ("backend:\n  timeout_s: soon\n", "backend.timeout_s: expected float, got 'soon'"),
    ("backend:\n  max_tokens: '1.5'\n", "backend.max_tokens: expected int, got '1.5'"),
])
def test_non_numeric_value_exits_one_naming_key_and_value(tmp_path, capsys,
                                                          document, message):
    assert_config_error(tmp_path, capsys, document, message)


@pytest.mark.parametrize("document, message", [
    ("evaluation: 5\n", "evaluation: expected a mapping, got int"),
    ("evaluation: {weights: [1]}\n", "evaluation.weights: expected a mapping, got list"),
    ("evaluation: {tolerance: yes}\n", "evaluation.tolerance: expected a mapping, got bool"),
    ("evaluation:\n  tolerance: {contractions: [del]}\n",
     "evaluation.tolerance.contractions: expected a mapping, got list"),
    ("evaluation: {penalties: high}\n", "evaluation.penalties: expected a mapping, got str"),
    ("annotation: [UPOS]\n", "annotation: expected a mapping, got list"),
    ("pipeline: [1]\n", "pipeline: expected a mapping, got list"),
    ("backend: null\n", "backend: expected a mapping, got NoneType"),
])
def test_section_that_is_not_a_mapping_exits_one_naming_key_and_type(
        tmp_path, capsys, document, message):
    assert_config_error(tmp_path, capsys, document, message)


@pytest.mark.parametrize("document, message", [
    ("evaluation: {tolerance: {upos_pairs: 5}}\n",
     "evaluation.tolerance.upos_pairs: expected a list of lists of strings, got 5"),
    ("evaluation: {tolerance: {deprel_classes: [1]}}\n",
     "evaluation.tolerance.deprel_classes: expected a list of lists of strings, got [1]"),
    ("annotation: {allowed_upos: 5}\n",
     "annotation.allowed_upos: expected a list of strings, got 5"),
    ("pipeline: {mwe_whitelist: 5}\n",
     "pipeline.mwe_whitelist: expected a list of strings, got 5"),
])
def test_list_value_of_the_wrong_shape_exits_one_naming_key_and_value(
        tmp_path, capsys, document, message):
    assert_config_error(tmp_path, capsys, document, message)


def test_null_list_values_read_as_empty(tmp_path):
    user = tmp_path / "user.yaml"
    user.write_text("evaluation: {tolerance: {upos_pairs: null}}\n"
                    "annotation: {allowed_upos: null}\npipeline: {mwe_whitelist: null}\n",
                    encoding="utf-8")
    config = load_config(user)
    assert config.tolerance.upos_pairs == frozenset()
    assert config.allowed_upos == UPOS_TAGS  # empty means every tag, as before
    assert config.mwe_whitelist == ()


SECTIONS = {"evaluation", "annotation", "pipeline", "backend"}


def config_texts() -> list[str]:
    """The shipped default document and every configuration in tests/: each
    string literal of a test module that reads as a mapping of config
    sections."""
    texts = [resources.files("spokenud.data").joinpath("default_config.yaml")
             .read_text("utf-8")]
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    document = yaml.safe_load(node.value)
                except yaml.YAMLError:
                    continue
                if isinstance(document, dict) and SECTIONS.issuperset(document):
                    texts.append(node.value)
    return texts


def test_libyaml_and_python_loaders_give_equal_documents():
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    texts = config_texts()
    assert len(texts) > 10
    for text in texts:
        assert yaml.load(text, Loader=yaml.CSafeLoader) == \
            yaml.load(text, Loader=yaml.SafeLoader), text


def test_config_loads_the_same_without_libyaml(tmp_path, monkeypatch):
    user = tmp_path / "user.yaml"
    user.write_text("evaluation:\n  weights: {split: 0.1, id: 0.2, upos: 0.3, "
                    "head: 0.25, deprel: 0.15}\npipeline: {workers: 3}\n",
                    encoding="utf-8")
    expected = [load_config(), load_config(user)]
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    loaders, load = [], yaml.load
    monkeypatch.setattr(yaml, "load", lambda text, Loader: (
        loaders.append(Loader) or load(text, Loader=Loader)))
    assert [load_config(), load_config(user)] == expected
    assert loaders == [yaml.SafeLoader] * 3


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
