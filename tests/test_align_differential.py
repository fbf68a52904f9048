"""The banded alignment DP against the full-matrix DP it replaced.

Both must choose the same steps, and through them give the same alignment,
component scores, severity report and final score.
"""

import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spokenud import flexud
from spokenud.core import ROOT, NodeId, Sentence, Token
from spokenud.flexud import (
    align_tokens,
    component_scores,
    detect_severity,
    flexud_final,
    normalize_form,
    DEFAULT_WEIGHTS,
)

from align_reference import align_integer_runs as reference_steps

# A small alphabet, so forms repeat and ties are common. "_" and "'"
# normalize to the empty form; "don't"/"do"/"not" and "del"/"de"/"el" split
# and merge through the contraction rules, "ab"/"a"/"b" through plain
# concatenation.
FORMS = ["a", "b", "ab", "ba", "aba", "bab", "A", "a'b", "_", "'",
         "do", "not", "don't", "de", "el", "del"]
UPOS = ["NOUN", "VERB", "AUX", "PRON", None]
DEPRELS = ["dep", "obj", "obl", "reparandum", "root", None]


def norms(sentence):
    return [normalize_form(t.form) for t in sentence.tokens if not t.id.is_dotted]


@st.composite
def sentences(draw, sid, forms):
    """Integer tokens with the given forms, at most one dotted MWE node over
    two or three of them, and random heads, tags and relations (cycles,
    dangling heads and reparanda included)."""
    n = len(forms)
    rows = [(NodeId(i), form) for i, form in enumerate(forms, 1)]
    if n >= 2 and draw(st.booleans()):
        start = draw(st.integers(1, n - 1))
        width = draw(st.integers(2, min(3, n - start + 1)))
        mwe = "_".join(forms[start - 1:start - 1 + width])
        rows.insert(start, (NodeId(start, 1), mwe))
    ids = [node for node, _ in rows]
    tokens = []
    for node, form in rows:
        head = draw(st.sampled_from(
            [ROOT, None, NodeId(n + 3)] + [i for i in ids if i != node]))
        tokens.append(Token(
            id=node, form=form, head=head,
            upos=draw(st.sampled_from(UPOS)),
            deprel=draw(st.sampled_from(DEPRELS)),
            spoken_label=draw(st.sampled_from([None, None, "reparandum"]))))
    return Sentence(sid, tuple(tokens))


EDIT = st.tuples(st.sampled_from(["split", "merge", "drop", "insert"]),
                 st.integers(0, 30), st.sampled_from(FORMS))


def edited(forms, edits):
    forms = list(forms)
    for kind, at, new in edits:
        if kind == "insert":
            forms.insert(at % (len(forms) + 1), new)
            continue
        if not forms:
            continue
        p = at % len(forms)
        if kind == "split" and len(forms[p]) > 1:
            cut = 1 + at % (len(forms[p]) - 1)
            forms[p:p + 1] = [forms[p][:cut], forms[p][cut:]]
        elif kind == "merge" and p + 1 < len(forms):
            forms[p:p + 2] = [forms[p] + forms[p + 1]]
        elif kind == "drop":
            del forms[p]
    return forms


@st.composite
def pairs(draw):
    gold_forms = draw(st.lists(st.sampled_from(FORMS), max_size=14))
    if draw(st.booleans()):
        system_forms = draw(st.lists(st.sampled_from(FORMS), max_size=14))
    else:
        system_forms = edited(gold_forms, draw(st.lists(EDIT, max_size=6)))
    return (draw(sentences("g", gold_forms)),
            draw(sentences("s", system_forms)))


def evaluation(gold, system):
    alignment = align_tokens(gold, system)
    components = component_scores(gold, system, alignment)
    severity = detect_severity(gold, system, alignment)
    final = flexud_final(components, DEFAULT_WEIGHTS, severity).final
    return alignment, components, severity, final


def assert_same_as_reference(gold, system):
    g, s = norms(gold), norms(system)
    assert flexud._align_integer_runs(g, s) == reference_steps(g, s)
    banded = evaluation(gold, system)
    with mock.patch.object(flexud, "_align_integer_runs", reference_steps):
        assert banded == evaluation(gold, system)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(pairs())
def test_banded_alignment_equals_full_matrix_reference(pair):
    assert_same_as_reference(*pair)


def unfiltered_run_lengths(forms):
    """The run table before filtering: every concatenation of 2..MAX_RUN
    consecutive non-empty forms."""
    return [{"".join(forms[p:p + k]): k for k in range(2, flexud.MAX_RUN + 1)
             if p + k <= len(forms) and all(forms[p:p + k])}
            for p in range(len(forms))]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(pairs())
def test_filtered_run_table_answers_every_lookup_of_an_other_side_form(pair):
    gold, system = (norms(sentence) + [None] for sentence in pair)
    for forms, other in ((gold, system), (system, gold)):
        full = unfiltered_run_lengths(forms)
        # Other-side forms rarely equal a long run, so ask for every run too.
        for wanted in (other, other + [run for runs in full for run in runs]):
            lookups = [[runs.get(form) for form in wanted]
                       for runs in flexud._run_lengths(forms, wanted)]
            assert lookups == [[runs.get(form) for form in wanted] for runs in full]


def plain(forms, sid="p"):
    return Sentence(sid, tuple(
        Token(id=NodeId(i), form=form, upos="NOUN",
              head=ROOT if i == 1 else NodeId(1),
              deprel="root" if i == 1 else "dep")
        for i, form in enumerate(forms, 1)))


def test_a_split_may_beat_the_leading_exact_match():
    # Trimming the common prefix would match the two leading "abab" forms.
    gold, system = ["abab", "b"], ["abab", "a", "b", "ab", "b"]
    assert flexud._align_integer_runs(gold, system) == [
        ("skip_system", 0, 1), ("system_split", 1, 3), ("match", 1, 1)]
    assert_same_as_reference(plain(gold, "g"), plain(system, "s"))


def band_passes(gold, system):
    """The steps, and the ((lo, hi), banded cost) of each DP pass."""
    passes, band_pass = [], flexud._band_pass

    def spy(*args):
        result = band_pass(*args)
        passes.append((args[-2:], result[0]))
        return result

    with mock.patch.object(flexud, "_band_pass", spy):
        return flexud._align_integer_runs(gold, system), passes


def test_band_widens_once_when_the_first_pass_cost_exceeds_the_optimum():
    # Equal lengths, but the cheapest path moves a block of forms.
    def moved(n_before, n_moved, n_over):
        before = [f"p{i}" for i in range(n_before)]
        block = [f"a{i}" for i in range(n_moved)]
        over = [f"x{i}" for i in range(n_over)]
        return before + over + block + before, before + block + over + before

    # Within the starting band of 3 diagonals the cheapest path costs 60, so
    # the one further pass is the whole matrix of 30, not 3 * 60 / 2 diagonals.
    gold, system = moved(0, 10, 20)
    steps, passes = band_passes(gold, system)
    assert passes == [((3, 3), 60), ((30, 30), 20)]
    assert steps == reference_steps(gold, system)
    assert_same_as_reference(plain(gold, "g"), plain(system, "s"))
    # Here a path of cost 26 that goes out and comes back to diagonal 0
    # reaches at most 3 * 26 / 2 diagonals either way.
    gold, system = moved(60, 5, 8)
    steps, passes = band_passes(gold, system)
    assert passes == [((3, 3), 26), ((39, 39), 10)]
    assert steps == reference_steps(gold, system)


def out_and_back(out, back, short):
    """A pair whose preferred optimum goes out as far as its cost allows and
    comes back: ``out`` gold forms "aaaa" split into four system "a" each
    (3 diagonals up per unit of cost), then gold "a" runs merge into
    ``back`` system "aaaa" (3 down) and ``short`` system "aaa" (2 down). An
    equally cheap path stays near diagonal 0, so the first pass already
    costs the optimum, yet the optimum the tie rule picks leaves its band."""
    gold = ["aaaa"] * out + ["a"] * (4 * back + 3 * short)
    system = ["a"] * (4 * out) + ["aaaa"] * back + ["aaa"] * short
    return gold, system


def diagonals(steps):
    i = j = 0
    for _, g_run, s_run in steps:
        i, j = i + g_run, j + s_run
        yield j - i


# (out, back, short), then the passes as ((lo, hi), cost): the reach of the
# first pass's cost d is lo = (3d - delta) // 2, hi = (3d + delta) // 2.
BAND_EDGE_CASES = [
    ((2, 2, 0), [((3, 3), 4), ((6, 6), 4)]),        # delta 0
    ((2, 1, 1), [((3, 3), 4), ((5, 6), 4)]),        # delta 1
    ((3, 3, 1), [((6, 6), 7), ((11, 9), 7)]),       # delta -2
    ((4, 3, 0), [((9, 9), 7), ((9, 12), 7)]),       # delta 3
    ((5, 3, 1), [((12, 12), 9), ((11, 15), 9)]),    # delta 4
    ((4, 5, 1), [((15, 15), 10), ((17, 12), 10)]),  # delta -5
]


@pytest.mark.parametrize("shape, passes", BAND_EDGE_CASES)
def test_the_last_pass_reaches_an_optimum_touching_its_upper_edge(shape, passes):
    gold, system = out_and_back(*shape)
    steps, seen = band_passes(gold, system)
    assert steps == reference_steps(gold, system)
    assert seen == passes
    (lo, hi), _ = passes[-1]
    assert max(diagonals(steps)) == hi


@pytest.mark.parametrize("shape, passes", BAND_EDGE_CASES)
def test_the_last_pass_reaches_an_optimum_touching_its_lower_edge(shape, passes):
    system, gold = out_and_back(*shape)
    steps, seen = band_passes(gold, system)
    assert steps == reference_steps(gold, system)
    # Swapping the sides mirrors the diagonals.
    assert seen == [((hi, lo), cost) for (lo, hi), cost in passes]
    (lo, hi), _ = seen[-1]
    assert min(diagonals(steps)) == -lo


def test_400_token_pair_with_20_edits():
    rng = random.Random(4)
    gold = [f"w{rng.randrange(40)}" for _ in range(400)]
    system = list(gold)
    for _ in range(20):
        p = rng.randrange(len(system) - 1)
        kind = rng.choice(["split", "merge", "drop", "insert", "change"])
        if kind == "split":
            system[p:p + 1] = [system[p][:1], system[p][1:]]
        elif kind == "merge":
            system[p:p + 2] = [system[p] + system[p + 1]]
        elif kind == "drop":
            del system[p]
        elif kind == "insert":
            system.insert(p, f"w{rng.randrange(40)}")
        else:
            system[p] += "x"
    assert_same_as_reference(plain(gold, "g"), plain(system, "s"))


def test_aligning_3000_identical_tokens_stays_small():
    sentence = plain([f"word{i}" for i in range(3000)])
    tracemalloc.start()
    try:
        alignment = align_tokens(sentence, sentence)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [l.kind for l in alignment.links] == ["one_one"] * 3000
    assert peak <= 8 * 1024 * 1024, peak
