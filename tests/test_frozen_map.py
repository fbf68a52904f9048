"""``core.FrozenMap`` against the ``dict`` it stands in for: the same reads,
``repr`` and JSON; copies and pickles that stay a ``FrozenMap``; and a
``TypeError`` from every mutator, with the map left as it was."""

import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spokenud.core import FrozenMap

keys = st.text(max_size=4)
values = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
          | st.text(max_size=4))
dicts = st.dictionaries(keys, values, max_size=6)


@dataclasses.dataclass(frozen=True)
class Holder:
    table: FrozenMap


ROUND_TRIPS = {
    **{f"pickle{p}": lambda m, p=p: pickle.loads(pickle.dumps(m, protocol=p))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "replace": lambda m: dataclasses.replace(Holder(m)).table,
    "asdict": lambda m: dataclasses.asdict(Holder(m))["table"],
}

MUTATORS = {
    "setitem": lambda m, k: m.__setitem__(k, 1),
    "delitem": lambda m, k: m.__delitem__(k),
    "ior": lambda m, k: m.__ior__({k: 1}),
    "clear": lambda m, k: m.clear(),
    "pop": lambda m, k: m.pop(k, None),
    "popitem": lambda m, k: m.popitem(),
    "setdefault": lambda m, k: m.setdefault(k, 1),
    "update": lambda m, k: m.update({k: 1}),
    "update_keywords": lambda m, k: m.update(x=1),
}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(dicts, keys)
def test_reads_repr_and_json_are_the_dicts(plain, key):
    frozen = FrozenMap(plain)
    assert frozen == plain and plain == frozen and not frozen != plain
    assert repr(frozen) == repr(plain) and str(frozen) == str(plain)
    assert json.dumps(frozen) == json.dumps(plain)
    assert sorted(frozen) == sorted(plain) and list(frozen.items()) == list(plain.items())
    assert frozen.get(key) == plain.get(key) and (key in frozen) == (key in plain)
    assert frozen | {key: 0} == plain | {key: 0}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(dicts)
def test_it_hashes_as_its_item_set_whatever_the_order(plain):
    frozen = FrozenMap(plain)
    assert hash(frozen) == hash(frozenset(plain.items()))
    assert hash(FrozenMap(reversed(plain.items()))) == hash(frozen)


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
@settings(derandomize=True, deadline=None, max_examples=50)
@given(dicts)
def test_copies_and_pickles_give_an_equal_frozen_map(round_trip, plain):
    twin = round_trip(FrozenMap(plain))
    assert type(twin) is FrozenMap and twin == plain and repr(twin) == repr(plain)


@pytest.mark.parametrize("mutate", MUTATORS.values(), ids=MUTATORS.keys())
@settings(derandomize=True, deadline=None, max_examples=50)
@given(dicts, keys)
def test_every_mutator_raises_and_changes_nothing(mutate, plain, key):
    frozen = FrozenMap(plain)
    with pytest.raises(TypeError, match="^FrozenMap is read-only$"):
        mutate(frozen, next(iter(plain), key))
    assert frozen == plain and list(frozen.items()) == list(plain.items())


def test_augmented_assignment_leaves_the_name_bound_to_the_same_map():
    frozen = FrozenMap(a=1)
    with pytest.raises(TypeError):
        frozen |= {"b": 2}
    assert frozen == {"a": 1} and type(frozen) is FrozenMap
