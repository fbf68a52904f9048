"""The slotted ``Token`` against the frozen dataclass it replaced
(``token_reference``): the same field values and ``repr`` for every accepted
argument set, the same ``ValueError`` message for every refused one, and the
dataclass behaviour callers rely on (frozen, ``==``, ``replace``, copying,
pickling) with no per-instance ``__dict__``."""

import copy
import dataclasses
import inspect
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spokenud.core import LANG_TAGS, NO_CONFIDENCES, ROOT, SPOKEN_LABELS, NodeId, Token

import token_reference as reference

FIELDS = [f.name for f in dataclasses.fields(reference.Token)]

node_ids = st.builds(NodeId, st.integers(1, 4), st.none() | st.integers(1, 2))
texts = st.text(max_size=4)
# In and out of [0, 1], NaN and the infinities.
scores = st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, math.nan, math.inf, -math.inf])

keywords = st.fixed_dictionaries(
    {"id": node_ids, "form": texts},
    optional={
        "orig_token_index": st.none() | st.integers(0, 9),
        "lemma": st.none() | texts,
        "upos": st.none() | texts,
        # A small id range, so the head is often the token itself.
        "head": st.none() | st.just(ROOT) | node_ids,
        "deprel": st.none() | texts,
        "lang_tag": st.sampled_from(LANG_TAGS + ("xx", "", "ENG")),
        "spoken_label": st.none() | st.sampled_from(SPOKEN_LABELS + ("bad", "")),
        "spoken_anchor": st.none() | node_ids,
        "confidences": st.dictionaries(texts, scores, max_size=3),
        "penalty": scores,
        "notes": texts,
    })


def outcome(cls, *args, **kwargs):
    """Field values and repr of the built token, or the ValueError message."""
    try:
        token = cls(*args, **kwargs)
    except ValueError as err:
        return "refused", str(err)
    return [getattr(token, name) for name in FIELDS], repr(token)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(keywords)
def test_keyword_sets_build_or_fail_as_the_dataclass_did(kwargs):
    assert outcome(Token, **kwargs) == outcome(reference.Token, **kwargs)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(keywords)
def test_positional_arguments_follow_the_field_order(kwargs):
    built = outcome(reference.Token, **kwargs)
    if built[0] != "refused":
        assert outcome(Token, *built[0]) == built


@pytest.mark.parametrize("kwargs, message", [
    ({"head": NodeId(1)}, "token 1 cannot be its own head"),
    ({"lang_tag": "xx"}, "unknown language tag: 'xx'"),
    ({"spoken_label": "bad"}, "unknown spoken label: 'bad'"),
    ({"penalty": 1.5}, "penalty must be in [0,1], got 1.5"),
    ({"penalty": math.nan}, "penalty must be in [0,1], got nan"),
    ({"confidences": {"core": -0.1}}, "confidence core=-0.1 outside [0,1]"),
    ({"confidences": {"final": math.nan}}, "confidence final=nan outside [0,1]"),
    # The first failing check names the error, in the dataclass's order.
    ({"head": NodeId(1), "lang_tag": "xx", "penalty": 2.0}, "token 1 cannot be its own head"),
    ({"penalty": 2.0, "confidences": {"a": 2.0}}, "penalty must be in [0,1], got 2.0"),
])
def test_each_check_gives_the_dataclass_message(kwargs, message):
    for cls in (Token, reference.Token):
        with pytest.raises(ValueError) as err:
            cls(id=NodeId(1), form="a", **kwargs)
        assert str(err.value) == message


def test_a_missing_or_empty_confidences_is_the_shared_read_only_mapping():
    first, second = Token(NodeId(1), "a"), Token(NodeId(2), "b", confidences={})
    assert first.confidences == {} and first.confidences is second.confidences is NO_CONFIDENCES
    with pytest.raises(TypeError, match="FrozenMap is read-only"):
        first.confidences["final"] = 0.5
    assert NO_CONFIDENCES == {}


def test_signature_keeps_the_dataclass_parameters_and_defaults():
    new = inspect.signature(Token).parameters
    old = inspect.signature(reference.Token).parameters
    assert list(new) == list(old) == FIELDS
    assert [p.default for n, p in new.items() if n != "confidences"] == \
        [p.default for n, p in old.items() if n != "confidences"]


TOKEN = Token(NodeId(2), "like", 2, "like", "VERB", ROOT, "root", "eng", "dep",
              NodeId(1), {"final": 0.75, "core": 0.5}, 0.25, "repaired")


def test_frozen_slotted_and_without_a_dict():
    with pytest.raises(dataclasses.FrozenInstanceError):
        TOKEN.form = "x"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del TOKEN.form
    assert not hasattr(TOKEN, "__dict__")
    assert "__slots__" in Token.__dict__


def test_equality_as_the_dataclass_and_equal_tokens_hash_equal():
    same = Token(**{name: getattr(TOKEN, name) for name in FIELDS})
    assert same == TOKEN and not same != TOKEN
    assert dataclasses.replace(TOKEN, notes="") != TOKEN
    assert TOKEN != reference.Token(NodeId(2), "like")
    # confidences is a FrozenMap, so a token hashes, unlike the dataclass's dict.
    rebuilt = Token(**{name: getattr(TOKEN, name) for name in FIELDS if name != "confidences"},
                    confidences={"core": 0.5, "final": 0.75})
    assert rebuilt == TOKEN and hash(rebuilt) == hash(same) == hash(TOKEN)
    assert len({TOKEN, same, rebuilt, dataclasses.replace(TOKEN, notes="")}) == 2


def test_replace_builds_a_new_token_and_checks_it_again():
    changed = dataclasses.replace(TOKEN, penalty=0.5)
    assert changed.penalty == 0.5 and TOKEN.penalty == 0.25
    assert [getattr(changed, n) for n in FIELDS if n != "penalty"] == \
        [getattr(TOKEN, n) for n in FIELDS if n != "penalty"]
    with pytest.raises(ValueError, match="cannot be its own head"):
        dataclasses.replace(TOKEN, head=TOKEN.id)
    with pytest.raises(ValueError, match=r"penalty must be in \[0,1\], got 2"):
        dataclasses.replace(TOKEN, penalty=2)


# TOKEN's head is the ROOT sentinel, which every protocol keeps the one
# instance of, so the twin equals TOKEN (head compares by identity).
CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy, **{
    f"pickle{p}": lambda t, p=p: pickle.loads(pickle.dumps(t, protocol=p))
    for p in range(pickle.HIGHEST_PROTOCOL + 1)}}


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
def test_copies_and_pickles_equal_the_original(clone):
    twin = clone(TOKEN)
    assert twin == TOKEN and repr(twin) == repr(TOKEN)
    assert type(twin) is Token and not hasattr(twin, "__dict__")
