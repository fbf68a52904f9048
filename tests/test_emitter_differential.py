"""Differential test: ``envelope_to_json_text``, which builds stage payload
text from cached templates, gives exactly the text of ``json.dumps(payload,
ensure_ascii=False, sort_keys=True, indent=2)`` that it replaced, on random
JSON values and on every payload a replay parse of the fixture manifest emits."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spokenud import cli
from spokenud.pipeline import agents
from spokenud.pipeline.envelopes import envelope_to_json_text


def dumps(value) -> str:
    return json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2)


# '%' in keys and values, non-ASCII, control characters, quotes and escapes.
TEXT = st.text(st.sampled_from('%sd"\\/ aZé中\U0001f600\x00\x07\n\r\t\x1f\x7f '),
               max_size=6)
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | TEXT
           | st.sampled_from([True, 1, False, 0, 1.0, -0.0, 1e16, 5e-324, math.nan,
                              math.inf, -math.inf, 10**30, -(10**30) + 1]))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.dictionaries(TEXT, VALUES, max_size=5))
def test_random_payloads_equal_json_dumps(payload):
    assert envelope_to_json_text(payload) == dumps(payload)


@pytest.mark.parametrize("payload", [
    {}, {"a": {}}, {"a": []}, {"a": [[], {}, [{}], {"b": []}]}, {"%": "%s", "%%d": "%"},
    {"t": [True, 1, 1.0, False, 0, -0.0]}, {"f": [1e16, 5e-324, math.nan, math.inf, -math.inf]},
    {"n": [10**30, -(10**30)]}, {"c": "\x00\x1f\x7f é中"}, {"é": {"\n": None}},
], ids=["empty", "empty-object", "empty-array", "nested-empty", "percent", "true-and-1",
        "floats", "30-digit-ints", "control-chars", "non-ascii-keys"])
def test_edge_payloads_equal_json_dumps(payload):
    assert envelope_to_json_text(payload) == dumps(payload)


@pytest.mark.parametrize("payload", [{1: "a", 2: [1.5]}, {"a": {2.5: 1, True: 2, 0: 3}}],
                         ids=["int-keys", "nested-float-bool-int-keys"])
def test_keys_that_are_not_str_are_written_as_json_writes_them(payload):
    assert envelope_to_json_text(payload) == dumps(payload)


@pytest.mark.parametrize("payload", [{"a": {1, 2}}, {"a": [object()]}, {1: "a", "b": 2}],
                         ids=["set", "object", "mixed-keys"])
def test_values_json_refuses_raise_its_type_error(payload):
    with pytest.raises(TypeError) as expected:
        dumps(payload)
    with pytest.raises(TypeError) as err:
        envelope_to_json_text(payload)
    assert str(err.value) == str(expected.value)


def test_every_payload_of_a_fixture_parse_equals_json_dumps(
        tmp_path, replay_dir, pipeline_manifest_path, monkeypatch, capsys):
    payloads = []

    def recording(payload):
        payloads.append(payload)
        return envelope_to_json_text(payload)

    monkeypatch.setattr(agents, "envelope_to_json_text", recording)
    assert cli.main(["parse", "--manifest", str(pipeline_manifest_path),
                     "--out", str(tmp_path / "o"), "--backend-mode", "replay",
                     "--replay-dir", str(replay_dir)]) == 0
    capsys.readouterr()
    assert len(payloads) == 9
    for payload in payloads:
        assert envelope_to_json_text(payload) == dumps(payload)
