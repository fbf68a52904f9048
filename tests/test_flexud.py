import random
import tracemalloc
from decimal import Decimal, ROUND_HALF_UP, localcontext

import pytest

from spokenud.core import ROOT, Category, NodeId, Sentence, Token, head_cycles
from spokenud.flexud import (
    DEFAULT_SCHEDULE,
    DEFAULT_TOLERANCE,
    DEFAULT_WEIGHTS,
    Alignment,
    AlignmentLink,
    ComponentScores,
    FlexResult,
    FlexScore,
    PenaltySchedule,
    SeverityIssue,
    SeverityReport,
    Weights,
    WeightSumInvalid,
    align_tokens,
    component_scores,
    detect_severity,
    evaluate_sentence,
    flexud_final,
    flexud_report,
    normalize_form,
)
from spokenud import flexud
from spokenud.flexud import _in_gold_subtree

from gen import random_sentence


def simple(forms, heads=None, deprels=None, upos=None, sid="s"):
    n = len(forms)
    heads = heads or ([0] + [1] * (n - 1))
    deprels = deprels or (["root"] + ["dep"] * (n - 1))
    upos = upos or ["NOUN"] * n
    tokens = tuple(
        Token(id=NodeId(i), form=f, upos=u,
              head=ROOT if h == 0 else NodeId(h), deprel=d)
        for i, (f, h, d, u) in enumerate(zip(forms, heads, deprels, upos), 1))
    return Sentence(sid, tokens)


# --- normalization & alignment ------------------------------------------------

def test_normalize_strips_case_apostrophes_underscores():
    assert normalize_form("Pitta_Bread") == "pittabread"
    assert normalize_form("don't") == "donot"
    assert normalize_form("won't") == "willnot"
    assert normalize_form("del") == "deel"


def test_align_identical_all_one_one():
    sentence = simple(["yo", "creo", "que"])
    alignment = align_tokens(sentence, sentence)
    assert all(l.kind == "one_one" for l in alignment.links)
    assert len(alignment.links) == 3


def test_align_contraction_gold_split():
    gold = simple(["I", "do", "not", "know"])
    system = simple(["I", "don't", "know"])
    alignment = align_tokens(gold, system)
    kinds = [l.kind for l in alignment.links]
    assert kinds == ["one_one", "gold_split", "one_one"]
    split = alignment.links[1]
    assert split.gold_ids == (NodeId(2), NodeId(3))
    assert split.system_ids == (NodeId(2),)


def test_align_spanish_contraction():
    gold = simple(["voy", "a", "el", "cine"])
    system = simple(["voy", "al", "cine"])
    alignment = align_tokens(gold, system)
    assert [l.kind for l in alignment.links] == ["one_one", "gold_split", "one_one"]


def test_align_system_split():
    gold = simple(["wasn't", "easy"])
    system = simple(["was", "not", "easy"])
    alignment = align_tokens(gold, system)
    assert [l.kind for l in alignment.links] == ["system_split", "one_one"]


def mwe_gold():
    tokens = (
        Token(id=NodeId(1), form="the", upos="DET", head=NodeId(2, 1), deprel="det"),
        Token(id=NodeId(2), form="pitta"),
        Token(id=NodeId(2, 1), form="pitta_bread", upos="NOUN", head=ROOT,
              deprel="root"),
        Token(id=NodeId(3), form="bread"),
    )
    return Sentence("mwe", tokens)


def test_align_missing_dotted_mwe_becomes_mwe_link():
    system = simple(["the", "pitta", "bread"], [2, 0, 2],
                    ["det", "root", "flat"], ["DET", "NOUN", "NOUN"])
    alignment = align_tokens(mwe_gold(), system)
    mwe_links = [l for l in alignment.links if l.kind == "mwe"]
    assert len(mwe_links) == 1
    assert set(mwe_links[0].gold_ids) == {NodeId(2), NodeId(2, 1), NodeId(3)}
    assert set(mwe_links[0].system_ids) == {NodeId(2), NodeId(3)}


def test_align_matching_dotted_nodes_one_one():
    alignment = align_tokens(mwe_gold(), mwe_gold())
    assert all(l.kind == "one_one" for l in alignment.links)


def test_alignment_totality_random_perturbations():
    rng = random.Random(11)
    for i in range(150):
        gold = random_sentence(rng, f"t{i}")
        system = _perturb(rng, gold)
        alignment = align_tokens(gold, system)
        gold_seen: list[NodeId] = []
        system_seen: list[NodeId] = []
        for link in alignment.links:
            gold_seen.extend(link.gold_ids)
            system_seen.extend(link.system_ids)
        assert sorted(gold_seen, key=lambda x: x._key()) == \
            [t.id for t in sorted(gold.tokens, key=lambda t: t.id._key())]
        assert sorted(system_seen, key=lambda x: x._key()) == \
            [t.id for t in sorted(system.tokens, key=lambda t: t.id._key())]


def _perturb(rng, gold):
    """Random split/merge/drop perturbation of a sentence's integer tokens."""
    tokens = []
    i = 1
    source = [t for t in gold.tokens if not t.id.is_dotted]
    k = 0
    while k < len(source):
        token = source[k]
        roll = rng.random()
        if roll < 0.15 and len(token.form) > 2:
            cut = rng.randint(1, len(token.form) - 1)
            for part in (token.form[:cut], token.form[cut:]):
                tokens.append(Token(id=NodeId(i), form=part, upos="X",
                                    head=None if i > 1 else ROOT,
                                    deprel=None if i > 1 else "root"))
                i += 1
            k += 1
        elif roll < 0.25 and k + 1 < len(source):
            tokens.append(Token(id=NodeId(i), form=token.form + source[k + 1].form,
                                upos="X", head=None if i > 1 else ROOT,
                                deprel=None if i > 1 else "root"))
            i += 1
            k += 2
        elif roll < 0.32:
            k += 1  # drop
        else:
            tokens.append(Token(id=NodeId(i), form=token.form, upos="X",
                                head=None if i > 1 else ROOT,
                                deprel=None if i > 1 else "root"))
            i += 1
            k += 1
    if not tokens:
        tokens = [Token(id=NodeId(1), form="x", upos="X", head=ROOT, deprel="root")]
    return Sentence(gold.sentence_id, tuple(tokens))


# --- component scores -----------------------------------------------------------

def test_components_identity_all_100():
    sentence = simple(["uno", "dos", "tres"])
    alignment = align_tokens(sentence, sentence)
    scores = component_scores(sentence, sentence, alignment)
    assert scores.astuple() == (100, 100, 100, 100, 100)


def ten_token_pair(system_upos_change=None, system_deprel_change=None):
    forms = [f"w{i}" for i in range(1, 11)]
    heads = [0] + [1] * 9
    deprels = ["root"] + ["advmod"] * 9
    upos = ["VERB"] * 10
    gold = simple(forms, heads, deprels, upos)
    s_upos = list(upos)
    s_deprels = list(deprels)
    if system_upos_change:
        index, tag = system_upos_change
        s_upos[index] = tag
    if system_deprel_change:
        index, rel = system_deprel_change
        s_deprels[index] = rel
    system = simple(forms, heads, s_deprels, s_upos)
    return gold, system


def test_tolerant_upos_pair_scores_98():
    gold, system = ten_token_pair(system_upos_change=(3, "AUX"))
    alignment = align_tokens(gold, system)
    scores = component_scores(gold, system, alignment)
    assert scores.s_upos == 98  # round(100 * (9 + 0.8) / 10)
    assert scores.s_head == 100 and scores.s_deprel == 100


def test_near_miss_deprel_scores_95():
    gold = simple(["a", "b", "c", "d"], [0, 1, 1, 1],
                  ["root", "obl", "nsubj", "advmod"])
    system = simple(["a", "b", "c", "d"], [0, 1, 1, 1],
                    ["root", "obj", "nsubj", "advmod"])
    alignment = align_tokens(gold, system)
    scores = component_scores(gold, system, alignment)
    assert scores.s_deprel == 95  # round(100 * (3 + 0.8) / 4)


def test_head_one_level_up_half_credit():
    gold = simple(["a", "b", "c", "d"], [0, 1, 2, 2],
                  ["root", "obj", "nmod", "nmod"])
    # System attaches d to b (= gold head's own head): half credit.
    system = simple(["a", "b", "c", "d"], [0, 1, 2, 1],
                    ["root", "obj", "nmod", "nmod"])
    alignment = align_tokens(gold, system)
    scores = component_scores(gold, system, alignment)
    assert scores.s_head == 88  # round(100 * 3.5 / 4)


def test_component_floor_is_one():
    gold = simple(["a", "b"], [0, 1], ["root", "obj"], ["VERB", "NOUN"])
    system = simple(["zz", "qq"], [0, 1], ["root", "obj"], ["VERB", "NOUN"])
    alignment = align_tokens(gold, system)
    scores = component_scores(gold, system, alignment)
    assert scores.s_split == 1 and scores.s_id == 1


def test_two_empty_sentences_score_at_the_floor():
    gold, system = Sentence("g", ()), Sentence("s", ())
    scores = component_scores(gold, system, align_tokens(gold, system))
    assert scores == ComponentScores(1, 1, 1, 1, 1)


def test_tolerance_credit_monotone():
    gold, exact = ten_token_pair()
    _, tolerant = ten_token_pair(system_upos_change=(3, "AUX"))
    _, outside = ten_token_pair(system_upos_change=(3, "INTJ"))
    a = component_scores(gold, exact, align_tokens(gold, exact)).s_upos
    b = component_scores(gold, tolerant, align_tokens(gold, tolerant)).s_upos
    c = component_scores(gold, outside, align_tokens(gold, outside)).s_upos
    assert a >= b >= c


# --- severity --------------------------------------------------------------------

def test_perfect_parse_no_penalty():
    sentence = simple(["hola", "que", "tal"])
    alignment = align_tokens(sentence, sentence)
    report = detect_severity(sentence, sentence, alignment)
    assert report.P == 0.0 and not report.issues


def test_missing_mwe_plus_invalid_head():
    gold = mwe_gold()
    system = Sentence("mwe", (
        Token(id=NodeId(1), form="the", upos="DET", head=NodeId(9), deprel="det"),
        Token(id=NodeId(2), form="pitta", upos="NOUN", head=NodeId(3), deprel="compound"),
        Token(id=NodeId(3), form="bread", upos="NOUN", head=ROOT, deprel="root"),
    ))
    alignment = align_tokens(gold, system)
    report = detect_severity(gold, system, alignment)
    classes = sorted(i.issue_class for i in report.issues)
    assert "MissingDottedMwe" in classes
    assert "InvalidHeadPersisting" in classes
    assert report.P == 0.70


def test_twelve_minor_mismatches():
    forms = [f"w{i}" for i in range(1, 14)]
    heads = [0] + [1] * 12
    gold = simple(forms, heads, ["root"] + ["advmod"] * 12, ["VERB"] * 13)
    system = simple(forms, heads, ["root"] + ["nmod"] * 12, ["VERB"] * 13)
    alignment = align_tokens(gold, system)
    report = detect_severity(gold, system, alignment)
    assert all(i.issue_class == "MinorMismatch" for i in report.issues)
    assert len(report.issues) == 12
    assert report.P == 0.24


def test_penalty_clipped_at_095():
    gold = simple(["a", "b", "c"], [0, 1, 1], ["root", "obj", "obj"])
    system = Sentence("s", (
        Token(id=NodeId(1), form="a", upos="X", head=NodeId(7), deprel="dep"),
        Token(id=NodeId(2), form="b", upos="X", head=NodeId(8), deprel="dep"),
        Token(id=NodeId(3), form="c", upos="X", head=NodeId(9), deprel="dep"),
    ))
    alignment = align_tokens(gold, system)
    report = detect_severity(gold, system, alignment)
    assert report.P == 0.95


def test_reparandum_misattached():
    gold = Sentence("r", (
        Token(id=NodeId(1), form="I", upos="PRON", head=NodeId(2),
              deprel="reparandum", spoken_label="reparandum"),
        Token(id=NodeId(2), form="I", upos="PRON", head=NodeId(3), deprel="nsubj"),
        Token(id=NodeId(3), form="go", upos="VERB", head=ROOT, deprel="root"),
    ))
    # System hangs the reparandum off the root, outside the subtree of token 2.
    system = Sentence("r", (
        Token(id=NodeId(1), form="I", upos="PRON", head=NodeId(3), deprel="nsubj"),
        Token(id=NodeId(2), form="I", upos="PRON", head=NodeId(3), deprel="nsubj"),
        Token(id=NodeId(3), form="go", upos="VERB", head=ROOT, deprel="root"),
    ))
    alignment = align_tokens(gold, system)
    report = detect_severity(gold, system, alignment)
    assert any(i.issue_class == "ReparandumMisattached" for i in report.issues)


def test_gold_subtrees_built_only_for_a_reparandum_with_a_partner(monkeypatch):
    calls = []

    def counting(node, head, gold_by_id):
        calls.append((node, head))
        return _in_gold_subtree(node, head, gold_by_id)

    monkeypatch.setattr(flexud, "_in_gold_subtree", counting)
    plain = simple(["hola", "que", "tal"])
    detect_severity(plain, plain, align_tokens(plain, plain))
    assert calls == []
    gold = Sentence("r", (
        Token(id=NodeId(1), form="I", upos="PRON", head=NodeId(3),
              deprel="reparandum", spoken_label="reparandum"),
        Token(id=NodeId(2), form="I", upos="PRON", head=NodeId(3),
              deprel="reparandum", spoken_label="reparandum"),
        Token(id=NodeId(3), form="go", upos="VERB", head=ROOT, deprel="root"),
    ))
    # Without a system partner the reparandum is not checked.
    detect_severity(gold, gold, Alignment(()))
    assert calls == []
    detect_severity(gold, gold, align_tokens(gold, gold))
    assert calls == [(NodeId(3), NodeId(3)), (NodeId(3), NodeId(3))]


def test_contribution_bands_enforced():
    with pytest.raises(ValueError):
        PenaltySchedule(missing_dotted_mwe=0.7)
    with pytest.raises(ValueError):
        PenaltySchedule(minor_mismatch=0.2)
    for p_max in (-0.5, 1.01):
        with pytest.raises(ValueError, match="p_max"):
            PenaltySchedule(p_max=p_max)


def _gold_subtrees_recursive(gold):
    """The former recursive implementation, kept as the differential oracle."""
    children = {t.id: [] for t in gold.tokens}
    for token in gold.tokens:
        if isinstance(token.head, NodeId) and token.head in children:
            children[token.head].append(token.id)
    subtree = {}

    def collect(node, seen):
        if node in subtree:
            return subtree[node]
        result = {node}
        for child in children.get(node, ()):
            if child not in seen:
                result |= collect(child, seen | {node})
        subtree[node] = result
        return result

    for token in gold.tokens:
        collect(token.id, frozenset())
    return subtree


def _meets_head_before_revisiting(gold_by_id, node, head):
    """The rule for cyclic gold, stated directly."""
    seen = set()
    while node in gold_by_id and node not in seen:
        if node == head:
            return True
        seen.add(node)
        node = gold_by_id[node].head
    return False


def test_gold_subtrees_match_recursive_reference_on_random_head_graphs():
    rng = random.Random(17)
    cyclic = 0
    for case in range(2000):
        n = rng.randint(1, 12)
        ids = [NodeId(i) for i in range(1, n + 1)]
        if n >= 3 and rng.random() < 0.3:
            ids.append(NodeId(rng.randint(1, n - 1), 1))
        tokens = []
        for node in ids:
            roll = rng.random()
            if roll < 0.1:
                head = ROOT
            elif roll < 0.15:
                head = None
            elif roll < 0.2:
                head = NodeId(n + 5)  # dangling
            else:
                head = rng.choice([i for i in ids if i != node] or [ROOT])
            tokens.append(Token(id=node, form="w", head=head))
        rng.shuffle(tokens)  # walk order must not matter for the comparison
        gold = Sentence(f"g{case}", tuple(tokens))
        gold_by_id = gold.token_index()
        pairs = [(head, node) for head in ids for node in ids]
        if head_cycles(gold.tokens, set(ids)):
            cyclic += 1
            for head, node in pairs:
                assert _in_gold_subtree(node, head, gold_by_id) == \
                    _meets_head_before_revisiting(gold_by_id, node, head), case
        else:
            subtrees = _gold_subtrees_recursive(gold)
            for head, node in pairs:
                assert _in_gold_subtree(node, head, gold_by_id) == \
                    (node in subtrees[head]), case
    assert 200 < cyclic < 1800


def test_in_gold_subtree_on_cyclic_gold():
    # 1 and 2 head each other, 3 hangs below 2, 4 below 3, 5 has a dangling
    # head: each cycle member lies under every other, whatever the order.
    heads = {1: NodeId(2), 2: NodeId(1), 3: NodeId(2), 4: NodeId(3), 5: NodeId(9)}
    gold = Sentence("c", tuple(Token(id=NodeId(i), form="w", head=h)
                               for i, h in heads.items()))
    gold_by_id = gold.token_index()

    def under(node, head):
        return _in_gold_subtree(NodeId(node), NodeId(head), gold_by_id)

    assert under(1, 2) and under(2, 1)
    assert under(1, 1) and under(2, 2)
    assert under(4, 1) and under(4, 2) and under(4, 3) and under(3, 1)
    assert not under(1, 3) and not under(2, 4) and not under(3, 4)
    assert not under(5, 9) and not under(1, 9)
    # A three-cycle reached from a tail, walked from every entry point.
    heads = {1: NodeId(3), 2: NodeId(1), 3: NodeId(2), 4: NodeId(1)}
    gold_by_id = Sentence("t", tuple(Token(id=NodeId(i), form="w", head=h)
                                     for i, h in heads.items())).token_index()
    for node in (1, 2, 3, 4):
        for head in (1, 2, 3):
            assert under(node, head)
    assert not any(under(node, 4) for node in (1, 2, 3))


def test_reparandum_under_its_head_in_cyclic_gold_is_not_misattached():
    gold = Sentence("rc", (
        Token(id=NodeId(1), form="I", upos="PRON", head=NodeId(3),
              deprel="reparandum", spoken_label="reparandum"),
        Token(id=NodeId(2), form="go", upos="VERB", head=NodeId(3), deprel="dep"),
        Token(id=NodeId(3), form="now", upos="ADV", head=NodeId(2), deprel="dep"),
    ))
    # The system attaches the reparandum to 2, which lies under 3 in the gold
    # cycle 2 <-> 3 (a descendant table built from 1, 2, 3 in order left 2
    # outside the subtree of 3).
    system = Sentence("rc", (
        Token(id=NodeId(1), form="I", upos="PRON", head=NodeId(2),
              deprel="reparandum", spoken_label="reparandum"),
        Token(id=NodeId(2), form="go", upos="VERB", head=ROOT, deprel="root"),
        Token(id=NodeId(3), form="now", upos="ADV", head=NodeId(2), deprel="dep"),
    ))
    report = detect_severity(gold, system, align_tokens(gold, system))
    assert not any(i.issue_class == "ReparandumMisattached" for i in report.issues)


def test_detect_severity_survives_a_1200_token_chain():
    n = 1200
    tokens = tuple(
        Token(id=NodeId(i), form=f"w{i}", upos="NOUN",
              head=ROOT if i == 1 else NodeId(i - 1),
              deprel="root" if i == 1 else "dep",
              spoken_label="reparandum" if i == n else None)
        for i in range(1, n + 1))
    gold = Sentence("deep", tokens)
    alignment = Alignment(tuple(AlignmentLink((t.id,), (t.id,), "one_one")
                                for t in tokens))
    tracemalloc.start()
    try:
        report = detect_severity(gold, gold, alignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.issues == () and report.P == 0.0
    # A descendant set per node took 34.5 MB here.
    assert peak < 2 * 1024 * 1024, peak


# --- final aggregation --------------------------------------------------------------

def report_with_p(p):
    return SeverityReport((), p)


def test_final_all_perfect():
    score = flexud_final(ComponentScores(100, 100, 100, 100, 100),
                         DEFAULT_WEIGHTS, report_with_p(0.0))
    assert score.raw == 100.0 and score.final == 100


def test_final_equal_weights_example():
    weights = Weights(0.2, 0.2, 0.2, 0.2, 0.2)
    score = flexud_final(ComponentScores(80, 90, 100, 70, 60),
                         weights, report_with_p(0.3))
    assert score.raw == 80.0
    assert score.final == 56


def test_final_half_up_boundary():
    weights = Weights(0.2, 0.2, 0.2, 0.2, 0.2)
    score = flexud_final(ComponentScores(50, 50, 50, 50, 50),
                         weights, report_with_p(0.95))
    assert score.raw == 50.0
    assert score.final == 3  # round(2.5) half-up


def test_weights_must_sum_to_one():
    with pytest.raises(WeightSumInvalid):
        Weights(0.5, 0.5, 0.5, 0.5, 0.5)


def decimal_oracle(weights, scores, p):
    """Independent half-up oracle over exact decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 80
        raw = sum(Decimal(str(w)) * s for w, s in zip(weights, scores))
        scaled = raw * (1 - Decimal(str(p)))
        return int(scaled.quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def test_aggregation_matches_decimal_oracle_1000_instances():
    rng = random.Random(424242)
    for _ in range(1000):
        parts = [rng.randint(1, 100) for _ in range(5)]
        total = sum(parts)
        weights_raw = [round(p / total, 6) for p in parts[:4]]
        weights_raw.append(round(1.0 - sum(weights_raw), 6))
        if min(weights_raw) < 0:
            continue
        scores = tuple(rng.randint(1, 100) for _ in range(5))
        p = round(rng.random() * 0.95, 4)
        flex = flexud_final(ComponentScores(*scores), Weights(*weights_raw),
                            report_with_p(p))
        assert flex.final == decimal_oracle(weights_raw, scores, p)


def test_monotone_in_penalty():
    weights = DEFAULT_WEIGHTS
    components = ComponentScores(77, 66, 88, 55, 91)
    finals = [flexud_final(components, weights, report_with_p(p)).final
              for p in (0.0, 0.1, 0.3, 0.6, 0.95)]
    assert finals == sorted(finals, reverse=True)


def test_diagnostics_list_issues_and_low_components():
    issue = SeverityIssue("MinorMismatch", "minor", 0.02, (NodeId(1),), "x")
    score = flexud_final(ComponentScores(40, 100, 100, 100, 100),
                         DEFAULT_WEIGHTS, SeverityReport((issue,), 0.02))
    assert any("MinorMismatch" in d for d in score.diagnostics)
    assert any("split" in d for d in score.diagnostics)


def test_bounds_on_random_inputs():
    rng = random.Random(3)
    for i in range(100):
        gold = random_sentence(rng, f"b{i}")
        system = _perturb(rng, gold)
        flex = evaluate_sentence(gold, system)
        assert all(1 <= v <= 100 for v in flex.components.astuple())
        assert 0.0 <= flex.severity.P <= 0.95
        assert 0 <= flex.final <= 100


def test_self_evaluation_random_sentences():
    rng = random.Random(17)
    for i in range(60):
        gold = random_sentence(rng, f"se{i}")
        flex = evaluate_sentence(gold, gold)
        assert flex.components.astuple() == (100, 100, 100, 100, 100)
        assert flex.severity.P == 0.0
        assert flex.final == 100


# --- report ------------------------------------------------------------------------

def flex_result(sid, category, final, components=(100, 90, 80, 70, 60)):
    score = FlexScore(ComponentScores(*components), DEFAULT_WEIGHTS,
                      raw=75.0, severity=report_with_p(0.0),
                      final=final, diagnostics=())
    return FlexResult(sid, category, score)


def test_flex_report_layout():
    table = flexud_report([flex_result("a", Category.NONE, 70)])
    rendered = table.to_table()
    assert rendered.columns == ("Category", "ID", "UPOS", "HEAD", "DEPREL", "Final")
    assert rendered.rows[-1][0] == "Overall"
    assert rendered.rows[-2][0] == "None"


def test_flex_report_mean_of_finals():
    table = flexud_report([
        flex_result("a", Category.SIMPLE_DISCOURSE, 60),
        flex_result("b", Category.SIMPLE_DISCOURSE, 80),
    ])
    row = next(r for r in table.per_category
               if r[0] is Category.SIMPLE_DISCOURSE)
    assert row[2][-1] == 70.0
