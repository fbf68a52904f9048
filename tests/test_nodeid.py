"""``NodeId`` as a ``(major, minor)`` tuple against the dataclass it replaced.

Same hash, so every set and dict iterates in the same order; same equality,
ordering, ``str`` and ``repr``; and it survives copying and pickling.
"""

import copy
import itertools
import operator
import pickle
import random

import pytest

from spokenud.core import NodeId

import nodeid_reference


def seeded_pairs(n=60, seed=3):
    rng = random.Random(seed)
    pairs = {(rng.randint(1, 12), rng.choice([None, None, 1, 2, 3])) for _ in range(n)}
    return sorted(pairs, key=lambda p: (p[0], p[1] or 0))


PAIRS = seeded_pairs()


def both(pair):
    return NodeId(*pair), nodeid_reference.NodeId(*pair)


@pytest.mark.parametrize("pair", PAIRS, ids=str)
def test_hash_str_repr_and_fields_match_the_dataclass(pair):
    new, old = both(pair)
    assert hash(new) == hash(old) == hash(pair)
    assert str(new) == str(old)
    assert repr(new) == repr(old)
    assert (new.major, new.minor, new.is_dotted, new._key()) == \
        (old.major, old.minor, old.is_dotted, old._key())
    assert NodeId.parse(str(new)) == new


def test_equality_and_all_four_orderings_match_the_dataclass():
    ops = (operator.eq, operator.ne, operator.lt, operator.le,
           operator.gt, operator.ge)
    for a, b in itertools.product(PAIRS, repeat=2):
        (new_a, old_a), (new_b, old_b) = both(a), both(b)
        for op in ops:
            assert op(new_a, new_b) == op(old_a, old_b), (a, b, op)


def test_sorted_order_and_set_iteration_order_match_the_dataclass():
    shuffled = list(PAIRS)
    random.Random(5).shuffle(shuffled)
    new = [NodeId(*p) for p in shuffled]
    old = [nodeid_reference.NodeId(*p) for p in shuffled]
    assert [str(n) for n in sorted(new)] == [str(o) for o in sorted(old)]
    assert [str(n) for n in set(new)] == [str(o) for o in set(old)]
    assert [str(n) for n in dict.fromkeys(new)] == [str(o) for o in dict.fromkeys(old)]
    assert NodeId(6) < NodeId(6, 1) < NodeId(7)
    assert NodeId(7) >= NodeId(6, 1) >= NodeId(6, 1) > NodeId(6)


def test_equals_the_plain_tuple():
    assert NodeId(3) == (3, None) and NodeId(3, 1) == (3, 1)
    assert NodeId(3) != (3,) and NodeId(3) != 3
    assert {(3, None): "x"}[NodeId(3)] == "x"


@pytest.mark.parametrize("pair", [(1, None), (6, 1), (12, 3)], ids=str)
def test_copy_and_pickle_round_trip(pair):
    node = NodeId(*pair)
    copies = [copy.copy(node), copy.deepcopy(node),
              copy.deepcopy({node: [node]}).popitem()[0]]
    copies += [pickle.loads(pickle.dumps(node, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is NodeId
        assert twin == node and repr(twin) == repr(node)


@pytest.mark.parametrize("args", [(0,), (-2,), (0, 1), (3, 0), (3, -1)], ids=str)
def test_major_and_minor_below_one_still_raise(args):
    with pytest.raises(ValueError):
        NodeId(*args)
    with pytest.raises(ValueError):
        nodeid_reference.NodeId(*args)


def test_keyword_construction_and_immutability():
    node = NodeId(major=4, minor=2)
    assert node == NodeId(4, 2) and node.is_dotted
    with pytest.raises(AttributeError):
        node.major = 5
    with pytest.raises(AttributeError):
        node.extra = 1
