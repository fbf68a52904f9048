"""The integer-counting scorers against the Fraction-summing ones they
replaced (``eval_reference``).

Over random pairs, non-default tolerance credits, weights and penalty
schedules (``p_max`` at both ends of [0, 1] included), both must give the same
component scores, standard scores, severity report and final score.
Fixed cases pin the half-up boundaries the integer rounding must keep and
the identical-forms shortcut of the alignment.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from spokenud import flexud, metrics
from spokenud.core import ROOT, NodeId, Sentence, Token
from spokenud.flexud import (
    PenaltySchedule,
    ToleranceConfig,
    Weights,
    align_tokens,
    normalize_form,
)

import eval_reference as reference
from align_reference import align_integer_runs as reference_steps
from test_align_differential import EDIT, FORMS, edited, plain, sentences

CREDITS = [0.8, 0.3, 0.35, 0.7, 0.0, 1.0, 0.125]
WEIGHTS = [Weights(), Weights(0.1, 0.2, 0.3, 0.25, 0.15),
           Weights(0.35, 0.3, 0.1, 0.2, 0.05), Weights(0.2, 0.2, 0.2, 0.2, 0.2)]
SCHEDULES = [PenaltySchedule(),
             PenaltySchedule(missing_dotted_mwe=0.35, minor_mismatch=0.03,
                             tolerant_upos_substitution=0.05, p_max=0.7),
             PenaltySchedule(p_max=0.0),
             PenaltySchedule(p_max=1.0),
             PenaltySchedule(p_max=0.03)]


@st.composite
def scored_pairs(draw):
    """A pair whose system forms are unrelated, edited or identical to the
    gold forms (zero edits: the alignment takes the identical-forms path)."""
    gold_forms = draw(st.lists(st.sampled_from(FORMS), max_size=12))
    kind = draw(st.sampled_from(["unrelated", "edited", "identical"]))
    if kind == "unrelated":
        system_forms = draw(st.lists(st.sampled_from(FORMS), max_size=12))
    elif kind == "edited":
        system_forms = edited(gold_forms, draw(st.lists(EDIT, min_size=1, max_size=4)))
    else:
        system_forms = list(gold_forms)
    return draw(sentences("g", gold_forms)), draw(sentences("s", system_forms))


def counts_are_ints(standard):
    return all(type(v) is int for v in standard.counts._astuple())


def assert_same_as_reference(gold, system, tolerance=flexud.DEFAULT_TOLERANCE,
                             weights=flexud.DEFAULT_WEIGHTS,
                             schedule=flexud.DEFAULT_SCHEDULE):
    alignment = align_tokens(gold, system, tolerance)
    components = flexud.component_scores(gold, system, alignment, tolerance)
    assert components == reference.component_scores(gold, system, alignment, tolerance)
    standard = metrics.attachment_scores(gold, system, alignment)
    assert standard == reference.attachment_scores(gold, system, alignment)
    assert counts_are_ints(standard)
    severity = flexud.detect_severity(gold, system, alignment, schedule, tolerance)
    assert severity == reference.detect_severity(gold, system, alignment, schedule,
                                                 tolerance)
    assert flexud.flexud_final(components, weights, severity) == \
        reference.flexud_final(components, weights, severity)
    return components


@settings(derandomize=True, deadline=None, max_examples=400)
@given(scored_pairs(), st.sampled_from(CREDITS), st.sampled_from(CREDITS),
       st.sampled_from(WEIGHTS), st.sampled_from(SCHEDULES))
def test_integer_scorers_equal_fraction_reference(pair, upos_credit, deprel_credit,
                                                  weights, schedule):
    gold, system = pair
    tolerance = ToleranceConfig(upos_credit=upos_credit, deprel_credit=deprel_credit)
    assert_same_as_reference(gold, system, tolerance, weights, schedule)


def rows(*specs):
    """Tokens from (form, upos, head, deprel) specs; head 0 is ROOT."""
    return tuple(Token(id=NodeId(i), form=form, upos=upos,
                       head=ROOT if head == 0 else NodeId(head), deprel=deprel)
                 for i, (form, upos, head, deprel) in enumerate(specs, 1))


def test_one_of_eight_rounds_half_up_to_13():
    gold = plain([f"w{i}" for i in range(8)], "g")
    system = Sentence("s", tuple(
        t if t.id == NodeId(5) else Token(id=t.id, form=t.form, upos="ADV",
                                          head=t.head, deprel=t.deprel)
        for t in gold.tokens))
    components = assert_same_as_reference(gold, system)
    assert components.s_upos == 13  # 12.5, half up; half-even gives 12


def test_one_half_head_credit_over_four_tokens_rounds_half_up_to_13():
    gold = Sentence("g", rows(("a", "NOUN", 0, "root"), ("b", "NOUN", 1, "dep"),
                              ("c", "NOUN", 2, "dep"), ("d", "NOUN", 3, "dep")))
    # Only c earns credit: its system head 1 is its gold grandparent.
    system = Sentence("s", rows(("a", "NOUN", 4, "root"), ("b", "NOUN", 3, "dep"),
                                ("c", "NOUN", 1, "dep"), ("d", "NOUN", 1, "dep")))
    components = assert_same_as_reference(gold, system)
    assert components.s_head == 13  # 0.5 / 4 = 12.5%, half up


def test_partial_upos_and_deprel_credit_with_configured_values():
    gold = Sentence("g", rows(("a", "VERB", 0, "root"), ("b", "NOUN", 1, "obj"),
                              ("c", "DET", 2, "advmod")))
    system = Sentence("s", rows(("a", "AUX", 0, "root"), ("b", "NOUN", 1, "obl"),
                                ("c", "PRON", 2, "discourse")))
    tolerance = ToleranceConfig(upos_credit=0.35, deprel_credit=0.7)
    components = assert_same_as_reference(gold, system, tolerance)
    # upos: 1 + 2 * 0.35 = 1.7 of 3 = 56.67%; deprel: 1 + 2 * 0.7 = 2.4 of 3.
    assert (components.s_upos, components.s_deprel) == (57, 80)


def test_identical_forms_take_the_same_steps_as_the_reference_dp():
    forms = ["a", "_", "a", "don't", "do", "not", "'", "ab", "a", "b", "a"]
    norm = [normalize_form(f) for f in forms]
    assert flexud._align_integer_runs(norm, list(norm)) == \
        reference_steps(norm, list(norm)) == [("match", 1, 1)] * len(forms)
    assert flexud._align_integer_runs([], []) == reference_steps([], []) == []
    gold, system = plain(forms, "g"), plain(forms, "s")
    assert [link.kind for link in align_tokens(gold, system).links] == \
        ["one_one"] * len(forms)
    assert_same_as_reference(gold, system)
