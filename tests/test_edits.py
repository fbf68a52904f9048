import random
from dataclasses import replace

import pytest

from spokenud.core import NodeId
from spokenud.pipeline import (
    EmptyPart,
    OverlappingMwe,
    SpanTooShort,
    SplitOnDottedNode,
    SplitTargetMissing,
    apply_integer_shift,
    apply_mwe_whitelist,
    build_id_map,
    make_dotted_mwe,
)
from spokenud.pipeline.envelopes import LsrOutput, PipelineToken


def toks(*forms):
    return tuple(PipelineToken(proposed_id=NodeId(i), orig_token_index=i,
                               split_token=form)
                 for i, form in enumerate(forms, start=1))


def test_split_contraction_english():
    tokens, delta = apply_integer_shift(toks("I", "don't", "know"), 2, ["do", "not"])
    assert [t.split_token for t in tokens] == ["I", "do", "not", "know"]
    assert [str(t.proposed_id) for t in tokens] == ["1", "2", "3", "4"]
    assert build_id_map(tokens) == {1: (NodeId(1),), 2: (NodeId(2), NodeId(3)),
                                    3: (NodeId(4),)}
    assert delta == {2: (NodeId(2), NodeId(3)), 3: (NodeId(4),)}


def test_split_contraction_spanish():
    tokens, _ = apply_integer_shift(toks("voy", "del", "cine"), 2, ["de", "el"])
    assert [t.split_token for t in tokens] == ["voy", "de", "el", "cine"]
    assert build_id_map(tokens)[2] == (NodeId(2), NodeId(3))


def test_split_fewer_than_two_parts():
    with pytest.raises(EmptyPart):
        apply_integer_shift(toks("a", "b"), 1, ["x"])
    with pytest.raises(EmptyPart):
        apply_integer_shift(toks("a", "b"), 1, ["x", ""])


def test_split_remaps_anchors():
    tokens = (
        PipelineToken(proposed_id=NodeId(1), orig_token_index=1, split_token="I",
                      spoken_label="reparandum", spoken_anchor=NodeId(3)),
        PipelineToken(proposed_id=NodeId(2), orig_token_index=2, split_token="won't"),
        PipelineToken(proposed_id=NodeId(3), orig_token_index=3, split_token="I"),
    )
    shifted, _ = apply_integer_shift(tokens, 2, ["will", "not"])
    assert shifted[0].spoken_anchor == NodeId(4)


def test_split_shifts_dotted_majors():
    tokens = toks("a", "b", "c", "d")
    tokens, _ = make_dotted_mwe(tokens, [NodeId(3), NodeId(4)])
    tokens, _ = apply_integer_shift(tokens, 1, ["a1", "a2"])
    ids = [str(t.proposed_id) for t in tokens]
    assert ids == ["1", "2", "3", "4", "5", "4.1"]
    dotted = tokens[-1]
    assert dotted.proposed_id == NodeId(4, 1)
    assert dotted.split_token == "c_d"


def test_split_on_dotted_only_index():
    tokens = toks("a", "b", "c")
    tokens, _ = make_dotted_mwe(tokens, [NodeId(1), NodeId(2)])
    dotted_only = tuple(t for t in tokens if t.proposed_id.is_dotted)
    with pytest.raises(SplitOnDottedNode):
        apply_integer_shift(dotted_only, 1, ["x", "y"])


def test_make_dotted_mwe_pitta_bread():
    tokens = toks("want", "some", "pitta", "bread")
    tokens, delta = make_dotted_mwe(tokens, [NodeId(3), NodeId(4)])
    assert [str(t.proposed_id) for t in tokens] == ["1", "2", "3", "4", "3.1"]
    dotted = tokens[-1]
    assert dotted.split_token == "pitta_bread"
    assert dotted.mwe
    assert delta == {3: (NodeId(3), NodeId(3, 1))}


def test_make_dotted_mwe_you_know():
    tokens = toks("you", "know", "right")
    tokens, _ = make_dotted_mwe(tokens, [NodeId(1), NodeId(2)])
    assert tokens[2].proposed_id == NodeId(1, 1)
    assert tokens[2].split_token == "you_know"


def test_mwe_span_too_short():
    with pytest.raises(SpanTooShort):
        make_dotted_mwe(toks("a", "b"), [NodeId(1)])


def test_split_of_an_index_no_token_has():
    with pytest.raises(SplitTargetMissing, match="^no token has original index 3$"):
        apply_integer_shift(toks("a", "b"), 3, ["x", "y"])


@pytest.mark.parametrize("span, error, message", [
    ([(1,), (1, 1)], SpanTooShort, "MWE spans cover integer nodes only"),
    ([(1,), (3,)], SpanTooShort, "MWE span must be contiguous, got [1, 3]"),
    ([(3,), (4,)], SpanTooShort, "MWE span references missing nodes [NodeId(major=4, minor=None)]"),
    ([(1,), (2,)], OverlappingMwe, "dotted node 1.1 already exists"),
], ids=["dotted", "gap", "missing", "existing"])
def test_mwe_span_refusals(span, error, message):
    tokens, _ = make_dotted_mwe(toks("a", "b", "c"), [NodeId(1), NodeId(2)])
    with pytest.raises(error) as err:
        make_dotted_mwe(tokens, [NodeId(*node) for node in span])
    assert str(err.value) == message


def test_a_whitelist_mwe_over_two_languages_is_mixed():
    tokens = tuple(replace(token, lang_tag=lang)
                   for token, lang in zip(toks("you", "know", "pues"), ["eng", "spa", "spa"]))
    lsr = LsrOutput(sentence_id="w", tokens=tokens, id_map=build_id_map(tokens))
    combined, _ = apply_mwe_whitelist(lsr, ["you know"])
    assert [(str(t.proposed_id), t.lang_tag) for t in combined.tokens] == [
        ("1", "eng"), ("2", "spa"), ("1.1", "mixed"), ("3", "spa")]


def test_mwe_overlap_rejected():
    tokens = toks("a", "b", "c")
    tokens, _ = make_dotted_mwe(tokens, [NodeId(1), NodeId(2)])
    with pytest.raises(OverlappingMwe):
        make_dotted_mwe(tokens, [NodeId(2), NodeId(3)])


def test_integer_shift_sequences_keep_ids_contiguous():
    rng = random.Random(1234)
    for _ in range(1000):
        n = rng.randint(2, 8)
        tokens = toks(*[f"w{i}" for i in range(1, n + 1)])
        for _ in range(rng.randint(1, 4)):
            integers = [t for t in tokens if not t.proposed_id.is_dotted]
            target = rng.choice(integers)
            parts = [f"{target.split_token}{j}" for j in range(rng.randint(2, 3))]
            tokens, _ = apply_integer_shift(tokens, target.orig_token_index, parts)
        integers = [t for t in tokens if not t.proposed_id.is_dotted]
        majors = [t.proposed_id.major for t in integers]
        assert majors == list(range(1, len(integers) + 1))
        id_map = build_id_map(tokens)
        mapped = [node for ids in id_map.values() for node in ids]
        assert sorted(str(n) for n in mapped) == \
            sorted(str(t.proposed_id) for t in tokens)
        assert len(mapped) == len(set(mapped))
        assert set(id_map) == set(range(1, n + 1))
