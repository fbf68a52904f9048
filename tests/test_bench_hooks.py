"""Every layer the traced benchmark run times still has a hook point in the
program. A renamed or deleted hooked name makes that layer's metrics read
``null`` while the traced run still exits 0, so it is caught here instead."""

from pathlib import Path

import spokenud.cli as cli
import spokenud.pipeline.agents as agents

from perfbench.tracer import Tracer


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
