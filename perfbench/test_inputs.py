"""Checks on the benchmark's own input generator, output gate and tracer.

Run with ``python3 -m pytest perfbench`` (``src/`` on ``PYTHONPATH``).
"""

from types import SimpleNamespace

import pytest

from spokenud.core import validate_tree
from spokenud.ioformats import emit_conllu

from perfbench import inputs, run, tracer, workloads

EVAL_PROFILES = tuple(inputs.EVAL_PROFILES)


def _eval_bytes(profile, seed):
    corpus = inputs.eval_corpus(profile, seed)
    return emit_conllu(corpus.gold) + emit_conllu(corpus.system)


@pytest.mark.parametrize("profile", EVAL_PROFILES)
def test_same_seed_gives_identical_eval_inputs(profile):
    assert _eval_bytes(profile, 7) == _eval_bytes(profile, 7)
    assert _eval_bytes(profile, 7) != _eval_bytes(profile, 8)


def test_same_seed_gives_identical_parse_inputs():
    raw = workloads._fixture_raw()
    first, again = inputs.parse_corpus(7), inputs.parse_corpus(7)
    assert first == again
    assert inputs.stage_responses(first, raw) == inputs.stage_responses(again, raw)
    assert inputs.parse_corpus(8) != first


@pytest.mark.parametrize("profile", EVAL_PROFILES)
@pytest.mark.parametrize("seed", [0, 1])
def test_every_gold_sentence_is_a_valid_tree(profile, seed):
    corpus = inputs.eval_corpus(profile, seed)
    invalid = [s.sentence_id for s in corpus.gold if not validate_tree(s).ok]
    assert invalid == []


@pytest.mark.parametrize("profile, applied", [("eval-short", 810), ("eval-long", 76)])
def test_perturbation_counts_go_into_the_result(profile, applied, tmp_path):
    workload = workloads.WORKLOADS[profile]
    state = workload.setup(3, tmp_path)
    described = workload.describe(state)
    assert described["perturbations"] == state.corpus.perturbations
    assert set(described["perturbations"]) == set(inputs.PERTURBATIONS)
    assert sum(described["perturbations"].values()) == applied
    assert described["pairs"] == inputs.EVAL_PROFILES[profile]["pairs"]


def test_parse_composition_is_balanced():
    counts = inputs.parse_corpus(5).counts()
    assert [counts[f"fixture.{f}"] for f in inputs.FIXTURES] == [20, 20, 20]
    assert [counts[f"retry.{s}"] for s in inputs.STAGES] == [3, 3, 3]
    assert [counts[f"retry.{k}"] for k in inputs.RETRY_KINDS] == [3, 3, 3]


def test_expected_outputs_reproduce_the_recorded_fixture_outputs():
    identity = inputs.ParseCorpus({f: f for f in inputs.FIXTURES}, {})
    expected = workloads.Expected(identity)
    golden = workloads.DATA / "golden"
    for name in ("parses.conllu", "parses.sheet.tsv", "adjudication.log"):
        assert expected.files[name] == (golden / name).read_text("utf-8")


def test_missing_hook_point_is_absent_and_hooks_are_restored():
    hooks = {"cli.main": tracer.HOOKS["cli.main"],
             "pipeline.agents.schema_check": [
                 ("spokenud.pipeline.agents", "no_such_validator", "call")]}
    original = workloads.cli_main
    t = tracer.Tracer()
    t.install(hooks)
    try:
        assert workloads.cli_main is not original
    finally:
        t.uninstall()
    assert workloads.cli_main is original
    assert t.absent_layers == {"pipeline.agents.schema_check"}
    metrics = t.metrics(sentences=1, workers=1, overhead_frac=0.0)
    assert set(metrics) == set(tracer.METRICS)
    assert metrics["pipeline.agents.schema_check.self_ms"] == {
        "value": None, "unit": "ms/sent", "status": "absent"}
    assert metrics["cli.main.self_ms"] == {"value": 0.0, "unit": "ms/sent"}


def test_nonzero_exit_fails_every_sentence_of_the_round(tmp_path):
    class Exits:
        def run(self, state, out):
            return 3

        def check(self, state, out):
            return set(), ""

    out = tmp_path / "out"
    out.mkdir()
    (out / "parses.conllu").write_text("left by an earlier round\n")
    tally = run.Tally()
    run._round(Exits(), SimpleNamespace(ids={"s1", "s2"}), out, tally, "round", None)
    assert not out.exists()
    assert (tally.attempted, tally.failed) == (2, 2)
    assert "round: exit code 3" in tally.problems
