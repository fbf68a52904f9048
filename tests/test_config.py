import ast
from importlib import resources
from pathlib import Path

import pytest
import yaml

from spokenud.backends import MAX_WORKERS, BackendConfig, BackendError, make_backend
from spokenud.cli import main
from spokenud.config import ConfigError, ToolkitConfig, load_config
from spokenud.core import UD_RELATIONS, UPOS_TAGS
from spokenud.flexud import PenaltySchedule, ToleranceConfig, Weights


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


def test_shipped_defaults_equal_the_dataclass_defaults():
    # The command line's defaults are ToolkitConfig(); library calls such as
    # evaluate_sentence(gold, system) use the section dataclasses' defaults;
    # the shipped YAML restates them and is the base every --config file is
    # merged over. They must not drift.
    shipped = load_config(resources.files("spokenud.data").joinpath("default_config.yaml"))
    assert shipped == load_config() == ToolkitConfig()
    assert shipped.weights == Weights()
    assert shipped.tolerance == ToleranceConfig()
    assert shipped.penalties == PenaltySchedule()
    assert shipped.backend == BackendConfig()


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
    """``document`` as the user config is refused with ``message`` after the
    file's path, and the CLI exits 1 printing it."""
    user = tmp_path / "user.yaml"
    user.write_text(document, encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(user)
    assert str(err.value) == f"{user}: {message}"
    assert main(["--config", str(user), "validate", str(user)]) == 1
    assert capsys.readouterr().err == f"error: {user}: {message}\n"


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
    ("evaluation:\n  tolerance: {upos_credit: .nan}\n",
     "evaluation.tolerance.upos_credit: expected float, got nan"),
    ("pipeline:\n  workers: .inf\n", "pipeline.workers: expected int, got inf"),
])
def test_non_numeric_value_exits_one_naming_key_and_value(tmp_path, capsys,
                                                          document, message):
    assert_config_error(tmp_path, capsys, document, message)


def test_a_negative_weight_exits_one_although_the_weights_sum_to_one(tmp_path, capsys):
    assert_config_error(
        tmp_path, capsys,
        "evaluation:\n  weights: {split: -0.1, id: 0.25, upos: 0.2, head: 0.4, deprel: 0.25}\n",
        "negative weight in (-0.1, 0.25, 0.2, 0.4, 0.25)")


@pytest.mark.parametrize("document, message", [
    ("backend: {mode: bogus}\n",
     "backend.mode: expected one of live, record, replay, stub, got 'bogus'"),
    ("backend: {max_in_flight: 4}\n", "unknown config key backend.max_in_flight"),
    ("backend: {retries: -1}\n", "backend.retries must be at least 0, got -1"),
    ("pipeline: {agent_retries: -1}\n",
     "pipeline.agent_retries must be at least 0, got -1"),
])
def test_out_of_range_backend_or_retry_setting_exits_one_naming_the_key(
        tmp_path, capsys, monkeypatch, pipeline_manifest_path, document, message):
    assert_config_error(tmp_path, capsys, document, message)
    # Refused before any command runs, also by the ones that would use it.
    monkeypatch.delenv("SPOKENUD_API_KEY", raising=False)
    user, out = str(tmp_path / "user.yaml"), str(tmp_path / "o")
    for command in (["eval", "--gold", user, "--system", user, "--out", out],
                    ["parse", "--manifest", str(pipeline_manifest_path),
                     "--out", out, "--backend-mode", "live",
                     "--base-url", "http://127.0.0.1:1"]):
        assert main(["--config", user, *command]) == 1
        assert capsys.readouterr().err == f"error: {user}: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("document, key", [
    ("pipeline: {worker: 8}\n", "pipeline.worker"),
    ("backend: {retires: 5}\n", "backend.retires"),
    ("backend: {max_in_flight: 4}\n", "backend.max_in_flight"),
    ("evaluation: {weights: {split: 0.15, splits: 0.1}}\n", "evaluation.weights.splits"),
    ("evaluation: {tolerance: {contraction: {a: b}}}\n", "evaluation.tolerance.contraction"),
    ("pipelines: {workers: 2}\n", "pipelines"),
])
def test_a_key_the_shipped_document_lacks_exits_one_naming_it(tmp_path, capsys,
                                                               document, key):
    # Nothing reads such a key, so it used to load silently as the default.
    assert_config_error(tmp_path, capsys, document, f"unknown config key {key}")


def test_a_user_file_may_add_a_contraction(tmp_path):
    user = tmp_path / "user.yaml"
    user.write_text("evaluation: {tolerance: {contractions: {\"don't\": donot}}}\n",
                    encoding="utf-8")
    table = load_config(user).tolerance.contraction_table
    assert table == {**load_config().tolerance.contraction_table, "don't": "donot"}


def test_more_workers_than_the_cap_are_refused_at_both_entry_points(
        tmp_path, capsys, monkeypatch, pipeline_manifest_path):
    # Refused before a backend, and so a worker pool, is made.
    monkeypatch.setattr("spokenud.cli.make_backend", pytest.fail)
    assert_config_error(tmp_path, capsys, f"pipeline: {{workers: {MAX_WORKERS + 1}}}\n",
                        f"pipeline.workers must be at most {MAX_WORKERS}, got "
                        f"{MAX_WORKERS + 1}")
    user = tmp_path / "user.yaml"
    user.write_text(f"pipeline: {{workers: {MAX_WORKERS}}}\n", encoding="utf-8")
    assert load_config(user).workers == MAX_WORKERS
    with pytest.raises(SystemExit) as err:
        main(["parse", "--manifest", str(pipeline_manifest_path), "--out",
              str(tmp_path / "o"), "--workers", str(MAX_WORKERS + 1)])
    assert err.value.code == 2
    assert (f"--workers: must be at most {MAX_WORKERS}, got {MAX_WORKERS + 1}"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("document, message", [
    ("pipeline: {workers: 2.9}\n", "pipeline.workers: expected int, got 2.9"),
    ("pipeline: {workers: true}\n", "pipeline.workers: expected int, got True"),
    ("pipeline: {agent_retries: 1.5}\n", "pipeline.agent_retries: expected int, got 1.5"),
    ("backend: {max_tokens: false}\n", "backend.max_tokens: expected int, got False"),
    ("backend: {temperature: true}\n", "backend.temperature: expected float, got True"),
    ("evaluation: {weights: {split: false}}\n",
     "evaluation.weights.split: expected float, got False"),
])
def test_boolean_or_fractional_number_exits_one_naming_the_key(tmp_path, capsys,
                                                                document, message):
    assert_config_error(tmp_path, capsys, document, message)


def test_integral_float_reads_as_an_int(tmp_path):
    user = tmp_path / "user.yaml"
    user.write_text("pipeline: {workers: 2.0, agent_retries: 0.0}\n", encoding="utf-8")
    config = load_config(user)
    assert (config.workers, config.agent_retries) == (2, 0)
    assert type(config.workers) is int


@pytest.mark.parametrize("document, message", [
    ("backend: {model_name: [1]}\n", "backend.model_name: expected a string, got [1]"),
    ("backend: {auth_env_var: null}\n", "backend.auth_env_var: expected a string, got None"),
    ("backend: {base_url: 5}\n", "backend.base_url: expected a string or null, got 5"),
    ("backend: {replay_dir: [d]}\n",
     "backend.replay_dir: expected a string or null, got ['d']"),
])
def test_backend_string_setting_of_another_type_exits_one_naming_the_key(
        tmp_path, capsys, replay_dir, pipeline_manifest_path, document, message):
    assert_config_error(tmp_path, capsys, document, message)
    assert main(["--config", str(tmp_path / "user.yaml"), "parse", "--manifest",
                 str(pipeline_manifest_path), "--out", str(tmp_path / "o"),
                 "--backend-mode", "replay", "--replay-dir", str(replay_dir)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'user.yaml'}: {message}\n"
    assert not (tmp_path / "o").exists()


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
    assert loaders == [yaml.SafeLoader] * 2  # the defaults parse no YAML


def test_missing_config_file_errors():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.yaml")


@pytest.mark.parametrize("content", [b"evaluation: [\n", b"\xffpipeline: {}\n"],
                         ids=["not-yaml", "not-utf8"])
def test_config_file_that_is_not_utf8_yaml_is_a_config_error(tmp_path, content):
    user = tmp_path / "user.yaml"
    user.write_bytes(content)
    with pytest.raises(ConfigError, match=f"^config file is not UTF-8 YAML: {user}: "):
        load_config(user)


def test_stub_backend_from_config(tmp_path, pipeline_manifest_path, capsys):
    """The shipped mode, stub, has no responses: it is refused with the modes
    that can parse, and ``parse`` exits 3 before any backend call."""
    config = load_config()
    assert config.backend.mode == "stub"
    with pytest.raises(BackendError, match="replay --replay-dir DIR, record or live"):
        make_backend(config.backend)
    out = tmp_path / "o"
    assert main(["parse", "--manifest", str(pipeline_manifest_path),
                 "--out", str(out)]) == 3
    assert "replay --replay-dir DIR, record or live" in capsys.readouterr().err
    assert not out.exists()


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
