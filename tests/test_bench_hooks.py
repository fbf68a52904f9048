"""Every layer the traced benchmark run times still has a hook point in the
program. A renamed or deleted hooked name makes that layer's metrics read
``null`` while the traced run still exits 0, so it is caught here instead."""

import json
import shutil
from pathlib import Path

import spokenud.cli as cli
import spokenud.pipeline.agents as agents
from spokenud.backends import ReplayStore, StubBackend, request_fingerprint
from spokenud.config import load_config
from spokenud.ioformats import load_manifest, manifest_entry_to_input_sentence
from spokenud.pipeline import parse_sentence

from perfbench.tracer import HOOKS, Tracer

DATA = Path(__file__).parent / "data"


def test_every_benchmark_layer_has_a_hook_point():
    jsonschema = agents.jsonschema
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.absent_layers == set()
        # core.validate_tree keeps its other point, in pipeline.finalize.
        assert tracer.absent_points == ["spokenud.flexud.validate_tree"]
    finally:
        tracer.uninstall()
    assert agents.jsonschema is jsonschema


EVAL_LAYERS = ["ioformats.parse_conllu", "flexud.align_tokens", "metrics.attachment_scores",
               "flexud.component_scores", "flexud.detect_severity", "flexud.flexud_final",
               "metrics.aggregate_by_category", "flexud.flexud_report"]


def test_every_eval_layer_is_called_by_an_eval_run(tmp_path, capsys):
    """A hook that still exists but is no longer called reads a silent zero."""
    gold = Path(__file__).parent / "data" / "gold" / "fixture_corpus.conllu"
    tracer = Tracer()
    try:
        tracer.install()
        assert cli.main(["eval", "--gold", str(gold), "--system", str(gold),
                         "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert {layer: tracer.calls[layer] for layer in EVAL_LAYERS if not tracer.calls[layer]} == {}


# A replay parse reaches every layer but the eval layers, the benchmark's own
# entry point and stub wait, and schema_check: that hook times
# ``jsonschema.validate``, which the program never calls (the generated
# predicate checks each response and jsonschema only words a refusal), so it
# reads a structural 0.
PARSE_LAYERS = [layer for layer in HOOKS if layer not in EVAL_LAYERS + [
    "cli.main", "backends.stub.wait", "pipeline.agents.schema_check"]]


def _replay_dir_with_a_retry(tmp_path, replay_dir, manifest_path):
    """A copy of the fixture replay store in which del1's first SPH answer is
    not JSON, recorded under the requests the program makes."""
    directory = tmp_path / "replay"
    shutil.copytree(replay_dir, directory)
    store, config = ReplayStore(directory), load_config()

    def answer(system, user, key):
        raw = "not JSON" if key == "del1.sph" else (
            DATA / "replay_scripts" / f"{key.removesuffix('.retry1')}.json").read_text("utf-8")
        store.save(key, request_fingerprint(system, user, config.backend.model_name), raw)
        return raw

    entry = next(e for e in load_manifest(manifest_path).entries if e.sentence_id == "del1")
    parse_sentence(manifest_entry_to_input_sentence(entry), StubBackend(script=answer), config)
    return directory


def test_every_parse_layer_is_called_by_a_replay_parse(
        tmp_path, replay_dir, pipeline_manifest_path, capsys):
    """The parse counterpart of the eval check above."""
    directory = _replay_dir_with_a_retry(tmp_path, replay_dir, pipeline_manifest_path)
    tracer = Tracer()
    try:
        tracer.install()
        assert cli.main(["parse", "--manifest", str(pipeline_manifest_path),
                         "--out", str(tmp_path / "out"), "--backend-mode", "replay",
                         "--replay-dir", str(directory)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert json.loads((directory / "del1.sph.json").read_text("utf-8"))["raw_response"] \
        == "not JSON"
    assert {layer: tracer.calls[layer] for layer in PARSE_LAYERS if not tracer.calls[layer]} == {}
