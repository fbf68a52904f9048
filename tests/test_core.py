import copy
import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spokenud.core import (
    ROOT,
    Category,
    IssueCode,
    NodeId,
    RootSentinel,
    Sentence,
    Token,
    UnknownCategory,
    annotatable_tokens,
    is_content_relation,
    mwe_component_ids,
    validate_tree,
)


def chain(heads, forms=None):
    """Build a sentence from a list of heads (0 means root, None missing)."""
    tokens = []
    for i, head in enumerate(heads, start=1):
        if head == 0:
            h = ROOT
        elif head is None:
            h = None
        else:
            h = NodeId(head)
        form = forms[i - 1] if forms else f"w{i}"
        tokens.append(Token(id=NodeId(i), form=form, upos="NOUN", head=h,
                            deprel="root" if head == 0 else "dep"))
    return Sentence(sentence_id="s", tokens=tuple(tokens))


# --- NodeId ---------------------------------------------------------------

def test_nodeid_ordering_dotted_between_integers():
    assert NodeId(6) < NodeId(6, 1) < NodeId(7)


def test_nodeid_parse_roundtrip():
    for text in ["1", "6.1", "12.3"]:
        assert str(NodeId.parse(text)) == text


def test_nodeid_rejects_bad_values():
    with pytest.raises(ValueError):
        NodeId(0)
    with pytest.raises(ValueError):
        NodeId(3, 0)
    with pytest.raises(ValueError):
        NodeId.parse("6.0")


node_ids = st.builds(
    NodeId,
    major=st.integers(min_value=1, max_value=50),
    minor=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
)


@given(node_ids, node_ids)
def test_nodeid_trichotomy_and_antisymmetry(a, b):
    assert (a < b) + (b < a) + (a == b) == 1


@given(node_ids, node_ids, node_ids)
def test_nodeid_transitivity(a, b, c):
    if a < b and b < c:
        assert a < c


def test_root_sentinel_is_singleton_and_not_a_node():
    assert RootSentinel() is ROOT
    assert not isinstance(ROOT, NodeId)
    # Protocols 0 and 1 used to rebuild it without __new__.
    assert all(pickle.loads(pickle.dumps(ROOT, p)) is ROOT
               for p in range(pickle.HIGHEST_PROTOCOL + 1))
    assert copy.copy(ROOT) is ROOT and copy.deepcopy(ROOT) is ROOT


# --- content relations ----------------------------------------------------

def test_content_relation_examples():
    assert is_content_relation("nsubj")
    assert not is_content_relation("det")
    assert not is_content_relation("aux:pass")
    assert is_content_relation("root")
    assert is_content_relation("reparandum")


def test_content_relation_rejects_empty():
    with pytest.raises(ValueError):
        is_content_relation("")


def test_content_relation_partitions_relation_set():
    from spokenud.core import FUNCTIONAL_RELATIONS, UD_RELATIONS
    for rel in UD_RELATIONS:
        assert is_content_relation(rel) != (rel in FUNCTIONAL_RELATIONS)


# --- validate_tree --------------------------------------------------------

def test_validate_wellformed_chain():
    report = validate_tree(chain([0, 1, 1]))
    assert report.ok and not report.issues


def test_validate_two_node_cycle_reports_cycle_and_no_root():
    report = validate_tree(chain([2, 1]))
    codes = {i.code for i in report.issues}
    assert IssueCode.CYCLE in codes
    assert IssueCode.NO_ROOT in codes
    cycle = next(i for i in report.issues if i.code == IssueCode.CYCLE)
    assert set(cycle.node_ids) == {NodeId(1), NodeId(2)}


def test_validate_multiple_roots():
    report = validate_tree(chain([0, 0]))
    assert any(i.code == IssueCode.MULTIPLE_ROOTS for i in report.issues)


def test_validate_dangling_head():
    report = validate_tree(chain([0, 9]))
    assert any(i.code == IssueCode.DANGLING_HEAD for i in report.issues)


def test_validate_missing_head_on_annotatable_row():
    report = validate_tree(chain([0, None]))
    bad = [i for i in report.issues if i.code == IssueCode.DANGLING_HEAD]
    assert bad and bad[0].node_ids == (NodeId(2),)


def test_validate_id_order():
    tokens = (
        Token(id=NodeId(2), form="b", upos="NOUN", head=ROOT, deprel="root"),
        Token(id=NodeId(1), form="a", upos="NOUN", head=NodeId(2), deprel="dep"),
    )
    report = validate_tree(Sentence("s", tokens))
    assert any(i.code == IssueCode.ID_ORDER for i in report.issues)


def mwe_sentence(annotate_components: bool):
    upos = "NOUN" if annotate_components else None
    head = NodeId(5) if annotate_components else None
    deprel = "compound" if annotate_components else None
    tokens = (
        Token(id=NodeId(5), form="the", upos="DET", head=NodeId(6, 1), deprel="det"),
        Token(id=NodeId(6), form="pitta", upos=upos, head=head, deprel=deprel),
        Token(id=NodeId(6, 1), form="pitta_bread", upos="NOUN", head=ROOT, deprel="root"),
        Token(id=NodeId(7), form="bread", upos=upos, head=head, deprel=deprel),
    )
    return Sentence("mwe", tokens)


def test_validate_flags_annotated_mwe_components():
    report = validate_tree(mwe_sentence(annotate_components=True))
    flagged = {i.node_ids[0] for i in report.issues
               if i.code == IssueCode.MWE_COMPONENT_ANNOTATED}
    assert flagged == {NodeId(6), NodeId(7)}


def test_validate_accepts_bare_mwe_components():
    report = validate_tree(mwe_sentence(annotate_components=False))
    assert report.ok


def test_validate_dangling_anchor():
    tokens = (
        Token(id=NodeId(1), form="uh", upos="INTJ", head=ROOT, deprel="root",
              spoken_label="filler", spoken_anchor=NodeId(9)),
    )
    report = validate_tree(Sentence("s", tokens))
    assert any(i.code == IssueCode.DANGLING_ANCHOR for i in report.issues)


def test_validate_is_pure_and_idempotent():
    sentence = chain([2, 1, 0])
    first = validate_tree(sentence)
    second = validate_tree(sentence)
    assert first == second


def test_mwe_component_ids_cover_span():
    assert mwe_component_ids(mwe_sentence(False)) == {NodeId(6), NodeId(7)}
    assert [t.id for t in annotatable_tokens(mwe_sentence(False))] == \
        [NodeId(5), NodeId(6, 1)]


def test_token_rejects_self_head():
    with pytest.raises(ValueError):
        Token(id=NodeId(1), form="x", head=NodeId(1))


def test_category_parsing():
    assert Category.from_label("simple-repetition") is Category.SIMPLE_REPETITION
    assert Category.NONE.display_label == "None"
    with pytest.raises(UnknownCategory):
        Category.from_label("foo")
