import random

import pytest

from spokenud.core import ROOT, Category, NodeId, Sentence, SpokenUdError, Token
from spokenud.flexud import (
    Alignment,
    AlignmentLink,
    ComponentScores,
    FlexResult,
    align_tokens,
    flexud_report,
)
from spokenud.metrics import (
    STANDARD_TABLE_COLUMNS,
    AlignmentMismatch,
    AttachmentCounts,
    SentenceResult,
    StandardScores,
    aggregate_by_category,
    attachment_scores,
)

from gen import random_sentence


def build(forms, heads, deprels, upos=None):
    upos = upos or ["NOUN"] * len(forms)
    tokens = []
    for i, (form, head, deprel, tag) in enumerate(zip(forms, heads, deprels, upos), 1):
        tokens.append(Token(
            id=NodeId(i), form=form, upos=tag,
            head=ROOT if head == 0 else NodeId(head), deprel=deprel))
    return Sentence("s", tuple(tokens))


def score(gold, system):
    return attachment_scores(gold, system, align_tokens(gold, system))


def test_identity_scores_one():
    gold = build(["yo", "creo", "que", "si"], [2, 0, 4, 2],
                 ["nsubj", "root", "mark", "ccomp"],
                 ["PRON", "VERB", "SCONJ", "INTJ"])
    result = score(gold, gold)
    assert (result.las, result.uas, result.clas, result.upos_acc) == (1, 1, 1, 1)


def test_an_alignment_naming_a_node_the_sentence_lacks_is_refused():
    gold = build(["a", "b"], [0, 1], ["root", "dep"])
    alignment = Alignment((AlignmentLink((NodeId(3),), (NodeId(1),), "one_one"),))
    with pytest.raises(AlignmentMismatch, match="^alignment references unknown node ids: "):
        attachment_scores(gold, gold, alignment)


def test_half_heads_quarter_labels():
    # 4 tokens; system heads right on 2 (ids 1, 2), label right only on id 1.
    gold = build(["a", "b", "c", "d"], [2, 0, 2, 2],
                 ["nsubj", "root", "obj", "obl"])
    system = build(["a", "b", "c", "d"], [2, 0, 1, 1],
                   ["nsubj", "parataxis", "obj", "obl"])
    result = score(gold, system)
    assert result.uas == 0.5
    assert result.las == 0.25


def test_clas_excludes_functional_relations():
    gold = build(["el", "gato", "come", "pescado"], [2, 3, 0, 3],
                 ["det", "nsubj", "root", "obj"],
                 ["DET", "NOUN", "VERB", "NOUN"])
    system = build(["el", "gato", "come", "pescado"], [4, 3, 0, 3],
                   ["det", "nsubj", "root", "obj"],
                   ["DET", "NOUN", "VERB", "NOUN"])
    result = score(gold, system)
    assert result.las == 0.75
    assert result.clas == 1.0


def test_unaligned_gold_counts_against():
    gold = build(["a", "b", "zzz"], [2, 0, 2], ["nsubj", "root", "obj"])
    system = build(["a", "b"], [2, 0], ["nsubj", "root"])
    result = score(gold, system)
    assert result.counts.gold_total == 3
    assert result.uas == pytest.approx(2 / 3)


def test_system_extra_not_in_denominator():
    gold = build(["a", "b"], [2, 0], ["nsubj", "root"])
    system = build(["a", "b", "zzz"], [2, 0, 2], ["nsubj", "root", "obj"])
    result = score(gold, system)
    assert result.counts.gold_total == 2
    assert result.counts.system_extra == 1
    assert result.uas == 1.0


def test_zero_denominator_flagged():
    scores = StandardScores.from_counts(AttachmentCounts())
    assert scores.las == 0.0
    assert "las" in scores.undefined


def test_las_never_exceeds_uas_random():
    rng = random.Random(5)
    for i in range(100):
        gold = random_sentence(rng, f"g{i}")
        system = random_sentence(rng, f"g{i}")
        result = attachment_scores(gold, system, align_tokens(gold, system))
        assert result.las <= result.uas + 1e-12
        assert result.counts.content_labeled_correct <= result.counts.labeled_correct


def test_flip_head_to_correct_never_decreases_uas():
    gold = build(["a", "b", "c"], [2, 0, 2], ["nsubj", "root", "obj"])
    system_wrong = build(["a", "b", "c"], [3, 0, 2], ["nsubj", "root", "obj"])
    system_fixed = build(["a", "b", "c"], [2, 0, 2], ["nsubj", "root", "obj"])
    wrong = score(gold, system_wrong)
    fixed = score(gold, system_fixed)
    assert fixed.uas >= wrong.uas
    assert fixed.upos_acc == wrong.upos_acc


def make_result(sid, category, head_correct, gold_total):
    counts = AttachmentCounts(gold_total=gold_total, aligned=gold_total,
                              head_correct=head_correct,
                              labeled_correct=head_correct,
                              content_gold=gold_total,
                              content_labeled_correct=head_correct,
                              upos_correct=gold_total)
    return SentenceResult(sid, category, StandardScores.from_counts(counts))


def test_category_micro_average_not_mean():
    table = aggregate_by_category([
        make_result("a", Category.SIMPLE_REPETITION, 2, 4),
        make_result("b", Category.SIMPLE_REPETITION, 4, 4),
    ])
    row = next(r for r in table.per_category
               if r[0] is Category.SIMPLE_REPETITION)
    assert row[2].uas == 6 / 8


def test_category_table_layout_and_order():
    table = aggregate_by_category([make_result("a", Category.NONE, 1, 1)])
    rendered = table.to_table()
    assert rendered.columns == STANDARD_TABLE_COLUMNS
    labels = [row[0] for row in rendered.rows]
    assert labels == ["Repetition", "Repetition+", "Contr. (EN)", "Contr. (ES)",
                      "Ellipsis", "Ellipsis+", "Discourse", "Discourse+",
                      "Complex", "None", "Overall"]


def test_aggregate_order_invariance():
    results = [make_result(f"s{i}", list(Category)[i % 3], i % 3 + 1, 4)
               for i in range(9)]
    forward = aggregate_by_category(results)
    rng = random.Random(1)
    shuffled = results[:]
    rng.shuffle(shuffled)
    assert aggregate_by_category(shuffled) == forward


def make_flex_result(sid, category, *_):
    return FlexResult(sid, category, ComponentScores(100, 90, 80, 70, 60), 70)


@pytest.mark.parametrize("tabulate, make", [
    (aggregate_by_category, make_result),
    (flexud_report, make_flex_result),
], ids=["aggregate_by_category", "flexud_report"])
def test_aggregate_rejects_duplicate_ids(tabulate, make):
    # The two results share an id but not a category.
    with pytest.raises(SpokenUdError, match="^duplicate sentence id: x$"):
        tabulate([make("x", Category.NONE, 1, 1), make("y", Category.NONE, 1, 1),
                  make("x", Category.SIMPLE_REPETITION, 1, 1)])


def test_single_sentence_category_row_equals_sentence():
    result = make_result("only", Category.SIMPLE_ELLIPSIS, 3, 4)
    table = aggregate_by_category([result])
    row = next(r for r in table.per_category if r[0] is Category.SIMPLE_ELLIPSIS)
    assert row[2] == result.scores
    assert table.overall == result.scores
