"""The eval scorers as they were before credits were counted as integers,
kept verbatim as the reference the fast path is tested against: every
credit is summed one token at a time as a ``Fraction`` and every
percentage is rounded through ``half_up``."""

from decimal import Decimal
from fractions import Fraction
from typing import Sequence

from spokenud.core import NodeId, Sentence, annotatable_tokens, base_deprel, \
    is_content_relation, validate_tree, IssueCode
from spokenud.flexud import (
    CATASTROPHIC_CLASSES,
    DEFAULT_SCHEDULE,
    DEFAULT_TOLERANCE,
    Alignment,
    ComponentScores,
    FlexScore,
    PenaltySchedule,
    SeverityIssue,
    SeverityReport,
    ToleranceConfig,
    Weights,
    _in_gold_subtree,
)
from spokenud.metrics import AlignmentMismatch, AttachmentCounts, StandardScores, \
    head_matches, resolve_head


def _exact(value: float | int | str) -> Fraction:
    """The decimal value a float's shortest repr denotes, as a fraction."""
    return Fraction(Decimal(str(value)))


def half_up(value: Fraction) -> int:
    """Round to the nearest integer, halves away from zero (non-negative)."""
    return int(value + Fraction(1, 2))


def _percentage(numerator: Fraction, denominator: int) -> int:
    if denominator == 0:
        return 1
    return max(1, min(100, half_up(Fraction(100) * numerator / denominator)))


def component_scores(gold: Sentence, system: Sentence, alignment: Alignment,
                     tolerance: ToleranceConfig = DEFAULT_TOLERANCE) -> ComponentScores:
    """Five scorers in [1,100]; graded credit only through the tolerance
    configuration, structural correctness judged over one-one aligned tokens."""
    one_one = alignment.one_one()
    n_gold, n_system = len(gold.tokens), len(system.tokens)

    s_split = _percentage(Fraction(2 * len(one_one)), n_gold + n_system)

    gold_rank = {t.id: i for i, t in enumerate(gold.tokens)}
    system_rank = {t.id: i for i, t in enumerate(system.tokens)}
    position_matches = sum(1 for g, s in one_one.items()
                           if gold_rank[g] == system_rank[s])
    s_id = _percentage(Fraction(position_matches), n_gold)

    system_by_id = system.token_index()
    gold_by_id = gold.token_index()
    annotatable = annotatable_tokens(gold)

    upos_credit = Fraction(0)
    head_credit = Fraction(0)
    deprel_credit = Fraction(0)
    system_to_gold = {s: g for g, s in one_one.items()}
    for token in annotatable:
        partner_id = one_one.get(token.id)
        if partner_id is None:
            continue
        partner = system_by_id[partner_id]

        if partner.upos == token.upos:
            upos_credit += 1
        else:
            pair = tolerance.upos_pair_credit(token.upos, partner.upos)
            if pair is not None:
                upos_credit += pair

        resolved = resolve_head(partner.head, system_to_gold)
        if head_matches(resolved, token.head):
            head_credit += 1
        elif isinstance(token.head, NodeId):
            grand = gold_by_id.get(token.head)
            if grand is not None and head_matches(resolved, grand.head):
                head_credit += Fraction(1, 2)

        if partner.deprel == token.deprel:
            deprel_credit += 1
        else:
            cls = tolerance.deprel_class_credit(token.deprel, partner.deprel)
            if cls is not None:
                deprel_credit += cls

    denominator = len(annotatable)
    return ComponentScores(
        s_split=s_split,
        s_id=s_id,
        s_upos=_percentage(upos_credit, denominator),
        s_head=_percentage(head_credit, denominator),
        s_deprel=_percentage(deprel_credit, denominator),
    )


def detect_severity(gold: Sentence, system: Sentence, alignment: Alignment,
                    schedule: PenaltySchedule = DEFAULT_SCHEDULE,
                    tolerance: ToleranceConfig = DEFAULT_TOLERANCE) -> SeverityReport:
    """Flag catastrophic and minor issues; P = min(p_max, sum(contributions))."""
    issues: list[SeverityIssue] = []

    def add(issue_class: str, node_ids: Sequence[NodeId], note: str):
        severity = "catastrophic" if issue_class in CATASTROPHIC_CLASSES else "minor"
        issues.append(SeverityIssue(issue_class, severity,
                                    schedule.contribution(issue_class),
                                    tuple(node_ids), note))

    for link in alignment.links:
        if link.kind == "mwe" and any(g.is_dotted for g in link.gold_ids):
            dotted = [g for g in link.gold_ids if g.is_dotted]
            add("MissingDottedMwe", dotted,
                "gold requires a dotted MWE node the system does not produce")

    one_one = alignment.one_one()
    system_to_gold = {s: g for g, s in one_one.items()}
    system_by_id = system.token_index()
    system_ids = {t.id for t in system.tokens}

    for token in system.tokens:
        if isinstance(token.head, NodeId) and token.head not in system_ids:
            add("InvalidHeadPersisting", (token.id,),
                f"system head {token.head} of {token.id} does not exist")

    report = validate_tree(system)
    root_problem = [i for i in report.issues
                    if i.code in (IssueCode.MULTIPLE_ROOTS, IssueCode.NO_ROOT)]
    if root_problem:
        add("MultipleRootsOrCycle",
            tuple(n for issue in root_problem for n in issue.node_ids),
            "system parse does not have exactly one root")
    for issue in report.issues:
        if issue.code == IssueCode.CYCLE:
            add("MultipleRootsOrCycle", issue.node_ids, issue.message)

    gold_by_id = gold.token_index()
    for token in annotatable_tokens(gold):
        is_reparandum = (token.spoken_label == "reparandum"
                         or (token.deprel and base_deprel(token.deprel) == "reparandum"))
        if not is_reparandum or not isinstance(token.head, NodeId):
            continue
        partner_id = one_one.get(token.id)
        if partner_id is None:
            continue
        resolved = resolve_head(system_by_id[partner_id].head, system_to_gold)
        if resolved is not None and not _in_gold_subtree(resolved, token.head, gold_by_id):
            add("ReparandumMisattached", (token.id,),
                f"reparandum {token.id} attached outside the subtree of {token.head}")

    for token in annotatable_tokens(gold):
        partner_id = one_one.get(token.id)
        if partner_id is None:
            continue
        partner = system_by_id[partner_id]
        if token.upos is not None and partner.upos != token.upos:
            if tolerance.upos_pair_credit(token.upos, partner.upos) is not None:
                add("TolerantUposSubstitution", (token.id,),
                    f"{token.upos} vs {partner.upos}")
            else:
                add("MinorMismatch", (token.id,),
                    f"UPOS {token.upos} vs {partner.upos}")
        if token.deprel is not None and partner.deprel != token.deprel:
            if tolerance.deprel_class_credit(token.deprel, partner.deprel) is not None:
                add("NearMissDeprel", (token.id,),
                    f"{token.deprel} vs {partner.deprel}")
            else:
                add("MinorMismatch", (token.id,),
                    f"DEPREL {token.deprel} vs {partner.deprel}")

    total = sum((_exact(i.contribution) for i in issues), start=Fraction(0))
    P = min(_exact(schedule.p_max), total)
    return SeverityReport(tuple(issues), float(P))


def attachment_scores(gold: Sentence, system: Sentence, alignment) -> StandardScores:
    """Score a system parse against gold over an existing token alignment.

    A gold token is UAS-correct iff it is one-one aligned and the aligned
    token's head maps one-one onto the gold head (root matches root);
    LAS additionally requires an exact DEPREL string match.
    """
    gold_ids = {t.id for t in gold.tokens}
    system_ids = {t.id for t in system.tokens}
    for link in alignment.links:
        if not set(link.gold_ids) <= gold_ids or not set(link.system_ids) <= system_ids:
            raise AlignmentMismatch(
                f"alignment references unknown node ids: {link}")

    gold_to_system = alignment.one_one()
    system_to_gold = {s: g for g, s in gold_to_system.items()}

    system_by_id = system.token_index()
    counts = AttachmentCounts()
    for token in annotatable_tokens(gold):
        content = bool(token.deprel) and is_content_relation(token.deprel)
        aligned = token.id in gold_to_system
        head_ok = label_ok = upos_ok = False
        if aligned:
            partner = system_by_id[gold_to_system[token.id]]
            upos_ok = partner.upos == token.upos
            head_ok = head_matches(resolve_head(partner.head, system_to_gold),
                                   token.head)
            label_ok = head_ok and partner.deprel == token.deprel
        counts += AttachmentCounts(
            gold_total=1,
            aligned=int(aligned),
            head_correct=int(head_ok),
            labeled_correct=int(label_ok),
            content_gold=int(content),
            content_labeled_correct=int(content and label_ok),
            upos_correct=int(upos_ok),
        )
    extra = sum(1 for t in annotatable_tokens(system) if t.id not in system_to_gold)
    counts += AttachmentCounts(system_extra=extra)
    return StandardScores.from_counts(counts)


def flexud_final(components: ComponentScores, weights: Weights,
                 severity: SeverityReport) -> FlexScore:
    """Aggregate component scores under the severity penalty.

    raw = sum(w_i * s_i); final = round(raw * (1 - P)) with half-up rounding
    computed exactly over the decimal values the inputs denote.
    """
    w = [_exact(value) for value in weights.astuple()]
    s = components.astuple()
    raw_exact = sum((wi * si for wi, si in zip(w, s)), start=Fraction(0))
    p_exact = _exact(severity.P)
    final = half_up(raw_exact * (1 - p_exact))
    diagnostics = [f"{i.issue_class}({i.severity} {i.contribution:g}): {i.note}"
                   for i in severity.issues]
    for name, value in components.asdict().items():
        if value < 50:
            diagnostics.append(f"component {name} below 50: {value}")
    return FlexScore(components=components, weights=weights,
                     raw=float(raw_exact), severity=severity,
                     final=final, diagnostics=tuple(diagnostics))
