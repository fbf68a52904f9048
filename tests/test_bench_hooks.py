"""Every layer the traced benchmark run times still has a hook point in the
program. A renamed or deleted hooked name makes that layer's metrics read
``null`` while the traced run still exits 0, so it is caught here instead."""

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
