"""The slotted ``PipelineToken`` and ``CoreToken`` against the frozen
dataclasses they replaced (``pipeline_token_reference``): the same signature,
field values, ``repr``, ``==`` and ``hash`` for any arguments, and the
dataclass behaviour callers rely on (frozen, ``replace``, copying, pickling)
with no per-instance ``__dict__``."""

import copy
import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spokenud.core import NodeId
from spokenud.pipeline.envelopes import CoreToken, PipelineToken

import pipeline_token_reference as reference

PAIRS = [(PipelineToken, reference.PipelineToken), (CoreToken, reference.CoreToken)]

node_ids = st.builds(NodeId, st.integers(1, 4), st.none() | st.integers(1, 2))
texts = st.text(max_size=4)
scores = st.none() | st.floats(0, 1)
PIPELINE_KWARGS = st.fixed_dictionaries(
    {"proposed_id": node_ids, "orig_token_index": st.integers(0, 9), "split_token": texts},
    optional={"lang_tag": texts, "spoken_label": st.none() | texts,
              "spoken_anchor": st.none() | node_ids, "lemma": st.none() | texts,
              "mwe": st.booleans(), "sph_confidence": scores, "lsr_confidence": scores,
              "lsr_notes": texts})
CORE_KWARGS = st.fixed_dictionaries(
    {"proposed_id": node_ids, "form": texts, "lemma": texts, "upos": texts,
     "head_id": texts, "head_form": texts, "deprel": texts},
    optional={"confidence": scores, "notes": texts})


def fields(token) -> list:
    return [getattr(token, f.name) for f in dataclasses.fields(token)]


@pytest.mark.parametrize("new, old", PAIRS, ids=["PipelineToken", "CoreToken"])
def test_signature_keeps_the_dataclass_parameters_and_defaults(new, old):
    assert [(p.name, p.default) for p in inspect.signature(new).parameters.values()] == \
        [(p.name, p.default) for p in inspect.signature(old).parameters.values()]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from(PAIRS[:1]), PIPELINE_KWARGS)
def test_pipeline_tokens_equal_the_dataclass(pair, kwargs):
    check_against_reference(*pair, kwargs)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from(PAIRS[1:]), CORE_KWARGS)
def test_core_tokens_equal_the_dataclass(pair, kwargs):
    check_against_reference(*pair, kwargs)


def check_against_reference(new, old, kwargs):
    token, expected = new(**kwargs), old(**kwargs)
    assert fields(token) == fields(expected)
    assert repr(token) == repr(expected)
    assert hash(token) == hash(expected)
    assert new(*fields(expected)) == token and not new(*fields(expected)) != token


TOKENS = [PipelineToken(NodeId(2, 1), 2, "a_lot", "eng", "dep", NodeId(1), "a lot", True,
                        0.5, 0.75, "combined"),
          CoreToken(NodeId(3), "like", "like", "VERB", "0", "", "root", 0.9, "n")]


@pytest.mark.parametrize("token", TOKENS, ids=["PipelineToken", "CoreToken"])
def test_frozen_slotted_and_without_a_dict(token):
    name = dataclasses.fields(token)[1].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(token, name, "x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(token, name)
    assert not hasattr(token, "__dict__")
    assert "__slots__" in type(token).__dict__


@pytest.mark.parametrize("token", TOKENS, ids=["PipelineToken", "CoreToken"])
def test_replace_builds_a_new_token(token):
    name = dataclasses.fields(token)[1].name
    changed = dataclasses.replace(token, **{name: "changed"})
    assert getattr(changed, name) == "changed" and getattr(token, name) != "changed"
    assert type(changed) is type(token) and changed != token
    assert dataclasses.replace(changed, **{name: getattr(token, name)}) == token


CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy, **{
    f"pickle{p}": lambda t, p=p: pickle.loads(pickle.dumps(t, protocol=p))
    for p in range(pickle.HIGHEST_PROTOCOL + 1)}}


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
@pytest.mark.parametrize("token", TOKENS, ids=["PipelineToken", "CoreToken"])
def test_copies_and_pickles_equal_the_original(token, clone):
    twin = clone(token)
    assert twin == token and repr(twin) == repr(token) and hash(twin) == hash(token)
    assert type(twin) is type(token) and not hasattr(twin, "__dict__")
