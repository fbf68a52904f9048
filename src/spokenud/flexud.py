"""Severity-aware composite evaluation of dependency parses.

The scorer aligns gold and system tokens under splits, merges and dotted MWE
nodes, computes five component scores (tokenization split agreement, id
positions, UPOS, heads, relations) on a 1..100 scale with graded tolerances,
detects catastrophic and minor issues into a bounded penalty P, and
aggregates: final = round(sum(w_i * s_i) * (1 - P)), rounding half-up.

Arithmetic that feeds the final rounding is done exactly over the decimal
values the configuration states (0.95 means 0.95, not its float neighbour),
so borderline cases like round(2.5) behave as documented.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    Category,
    NodeId,
    RootSentinel,
    Sentence,
    SpokenUdError,
    annotatable_tokens,
    base_deprel,
    dotted_span,
    head_cycles,
)
from .metrics import head_matches, resolve_head
from .reporting import CategoryTable, category_table

LINK_KINDS = ("one_one", "gold_split", "system_split", "mwe",
              "unaligned_gold", "unaligned_system")

FLEX_TABLE_COLUMNS = ("Category", "ID", "UPOS", "HEAD", "DEPREL", "Final")

# Longest token run one token on the other side may align against.
MAX_RUN = 4


class WeightSumInvalid(SpokenUdError):
    pass


@functools.lru_cache(maxsize=1024)  # the configured values and each P seen
def _exact(value: float | int | str) -> Fraction:
    """The decimal value a float's shortest repr denotes, as a fraction."""
    return Fraction(Decimal(str(value)))


# --- alignment ---------------------------------------------------------------

@dataclass(frozen=True)
class AlignmentLink:
    gold_ids: tuple[NodeId, ...]
    system_ids: tuple[NodeId, ...]
    kind: str

    def __post_init__(self):
        if self.kind not in LINK_KINDS:
            raise ValueError(f"unknown link kind {self.kind!r}")


@dataclass(frozen=True)
class Alignment:
    links: tuple[AlignmentLink, ...]

    def one_one(self) -> dict[NodeId, NodeId]:
        return {l.gold_ids[0]: l.system_ids[0]
                for l in self.links if l.kind == "one_one"}


# Full-form rewrites applied before the generic n't rule; values are the
# concatenation the split parts normalize to.
DEFAULT_CONTRACTIONS = {
    "won't": "willnot",
    "can't": "cannot",
    "del": "deel",
    "al": "ael",
}


@dataclass(frozen=True)
class ToleranceConfig:
    """Graded tolerances: tag pairs and relation classes with partial credit."""

    upos_pairs: frozenset[frozenset] = frozenset({
        frozenset({"VERB", "AUX"}),
        frozenset({"DET", "PRON"}),
        frozenset({"PROPN", "NOUN"}),
    })
    deprel_classes: tuple[frozenset, ...] = (
        frozenset({"obj", "obl", "iobj"}),
        frozenset({"advmod", "discourse"}),
        frozenset({"ccomp", "xcomp"}),
    )
    upos_credit: float = 0.8
    deprel_credit: float = 0.8
    contraction_table: dict = field(default_factory=lambda: dict(DEFAULT_CONTRACTIONS))

    def upos_pair_credit(self, a: str | None, b: str | None) -> Fraction | None:
        if a is None or b is None:
            return None
        if frozenset({a, b}) in self.upos_pairs:
            return _exact(self.upos_credit)
        return None

    def deprel_class_credit(self, a: str | None, b: str | None) -> Fraction | None:
        if a is None or b is None:
            return None
        a, b = base_deprel(a), base_deprel(b)
        for cls in self.deprel_classes:
            if a in cls and b in cls:
                return _exact(self.deprel_credit)
        return None


DEFAULT_TOLERANCE = ToleranceConfig()


def normalize_form(form: str, contractions: dict | None = None) -> str:
    """Lowercase, expand standard contractions, drop apostrophes/underscores."""
    table = DEFAULT_CONTRACTIONS if contractions is None else contractions
    s = form.lower().replace("_", "")
    if s in table:
        s = table[s]
    elif s.endswith("n't"):
        s = s[:-3] + "not"
    return s.replace("'", "").replace("’", "")


def align_tokens(gold: Sentence, system: Sentence,
                 tolerance: ToleranceConfig = DEFAULT_TOLERANCE) -> Alignment:
    """Align gold and system tokens minimizing edit cost over normalized forms.

    One token may align against a contiguous run on the other side only when
    the concatenated normalized forms match exactly; ties prefer earlier and
    shorter matches. Dotted MWE nodes pair with the partner's dotted node
    when the spans correspond, otherwise the whole gold MWE block links to
    the covering system span as a single ``mwe`` link (and symmetrically).
    """
    table = tolerance.contraction_table
    gold_ints = [t for t in gold.tokens if not t.id.is_dotted]
    system_ints = [t for t in system.tokens if not t.id.is_dotted]
    norm = {f: normalize_form(f, table) for f in {t.form for t in gold_ints + system_ints}}
    gold_ids = tuple(t.id for t in gold_ints)
    system_ids = tuple(t.id for t in system_ints)

    links: list[AlignmentLink] = []
    gi = si = 0
    for action, g_run, s_run in _align_integer_runs(
            [norm[t.form] for t in gold_ints], [norm[t.form] for t in system_ints]):
        links.append(AlignmentLink(gold_ids[gi:gi + g_run], system_ids[si:si + s_run],
                                   _LINK_KIND.get(action, action)))
        gi += g_run
        si += s_run

    links = _attach_dotted_nodes(gold, system, links)
    return Alignment(tuple(_ordered(links, gold, system)))


# The steps the DP chooses between, as (action, gold_run, system_run).
_MATCH, _SKIP_GOLD, _SKIP_SYSTEM = ("match", 1, 1), ("skip_gold", 1, 0), ("skip_system", 0, 1)
_SYSTEM_SPLIT = {k: ("system_split", 1, k) for k in range(2, MAX_RUN + 1)}
_GOLD_SPLIT = {k: ("gold_split", k, 1) for k in range(2, MAX_RUN + 1)}
_LINK_KIND = {"match": "one_one", "skip_gold": "unaligned_gold",
              "skip_system": "unaligned_system"}


def _align_integer_runs(g_norm: list[str], s_norm: list[str]):
    """Minimum-cost steps from one normalized form sequence to the other, as
    (action, gold_run, system_run) triples.

    A match costs 0; a skip, or a split or merge of up to MAX_RUN non-empty
    forms, costs 1. At equal suffix cost the DP prefers an exact match, then
    the shorter split/merge run, then skipping gold, then skipping system.
    Only the cells with -lo <= j - i <= hi are computed and kept. A unit of
    cost moves a path at most MAX_RUN - 1 = 3 diagonals, and a path must come
    back to its end diagonal delta = n - m, so one costing at most d reaches
    no diagonal above (3d + delta) / 2 or below -(3d - delta) / 2. The first
    pass, over |j - i| <= w, costs a real path, so its cost d bounds the
    optimum: if that reach lies inside the band, so does each tied optimum and
    the steps are those of the full matrix; if not, one last pass over it is.
    """
    m, n = len(g_norm), len(s_norm)
    if g_norm == s_norm:
        return [_MATCH] * m  # the only path of cost 0
    # One sentinel ends both sequences: no form matches it, and (m, n)
    # matches it into a virtual row m + 1 at no cost.
    g_norm, s_norm = g_norm + [None], s_norm + [None]
    g_runs, s_runs = _run_lengths(g_norm, s_norm), _run_lengths(s_norm, g_norm)
    w = (MAX_RUN - 1) * max(1, abs(m - n))
    d, choice, offset = _band_pass(g_norm, s_norm, g_runs, s_runs, w, w)
    reach, delta = (MAX_RUN - 1) * d, n - m
    lo, hi = min(m, (reach - delta) // 2), min(n, (reach + delta) // 2)
    if lo > w or hi > w:
        _, choice, offset = _band_pass(g_norm, s_norm, g_runs, s_runs, lo, hi)
    steps, i, j = [], 0, 0
    while i < m or j < n:
        steps.append(choice[i][j - i + offset])
        i += steps[-1][1]
        j += steps[-1][2]
    return steps


def _band_pass(g_norm: list, s_norm: list, g_runs: list, s_runs: list, lo: int, hi: int):
    """The DP over the cells with -lo <= j - i <= hi: the cost of (0, 0), the
    steps chosen, and the offset at which row i keeps cell (i, j), j - i + offset."""
    m, n = len(g_norm) - 1, len(s_norm) - 1
    never = m + n + 1  # more than any path costs; it pads the band
    offset = lo + MAX_RUN - 1
    costs = [[never] * (offset + hi + MAX_RUN) for _ in range(m + 2)]
    costs[m + 1][n - m + offset] = 0
    choice = [[None] * (offset + hi + MAX_RUN) for _ in range(m + 1)]
    for i in range(m, -1, -1):
        row, below, chosen = costs[i], costs[i + 1], choice[i]
        g, g_run = g_norm[i], g_runs[i]
        top = min(n, i + hi)
        x = top - i + offset
        # Cells (i, j + 1) and (i + 1, j + 1), carried from the cell before.
        right, diagonal = never, below[x]
        for j in range(top, max(0, i - lo) - 1, -1):
            s, down = s_norm[j], below[x - 1]
            # From the highest rank down, so the lower rank takes a tie.
            # No form both splits into and merges from the other side.
            best, step = right + 1, _SKIP_SYSTEM
            if down <= right:
                best, step = down + 1, _SKIP_GOLD
            s_run = s_runs[j]
            if s_run:
                k = s_run.get(g)
                if k and below[x + k - 1] + 1 <= best:
                    best, step = below[x + k - 1] + 1, _SYSTEM_SPLIT[k]
            if g_run:
                k = g_run.get(s)
                if k and costs[i + k][x - k + 1] + 1 <= best:
                    best, step = costs[i + k][x - k + 1] + 1, _GOLD_SPLIT[k]
            if g == s and diagonal <= best:
                best, step = diagonal, _MATCH
            row[x] = right = best
            chosen[x] = step
            diagonal, x = down, x - 1
    return costs[0][offset], choice, offset


def _run_lengths(forms: list, wanted: list) -> list[dict[str, int]]:
    """Per position p, the concatenation of forms[p:p + k] for k = 2..MAX_RUN
    mapped to k, over runs of non-empty forms, if it is one of the ``wanted``
    forms. Longer runs make longer strings, so a form equals at most one, and
    a run that does starts with a proper prefix of it."""
    wanted, runs = set(wanted), []
    starts = {form[:i] for form in wanted if form for i in range(1, len(form))}
    for p, joined in enumerate(forms):
        run = {}
        if joined in starts:
            for k, following in enumerate(forms[p + 1:p + MAX_RUN], start=2):
                if not following:
                    break
                joined += following
                if joined in wanted:
                    run[joined] = k
        runs.append(run)
    return runs


def _attach_dotted_nodes(gold: Sentence, system: Sentence,
                         links: list[AlignmentLink]) -> list[AlignmentLink]:
    one_one = Alignment(tuple(links)).one_one()
    gold_dotted = [t for t in gold.tokens if t.id.is_dotted]
    system_dotted = [t for t in system.tokens if t.id.is_dotted]
    gold_present = {t.id for t in gold.tokens}
    system_present = {t.id for t in system.tokens}
    claimed_system_dotted: set[NodeId] = set()

    def span(token, present):
        return [c for c in dotted_span(token.id, token.form) if c in present]

    for token in gold_dotted:
        # Only one-one aligned span components can be folded into an mwe
        # link; components captured by split/merge links stay where they are.
        aligned = [c for c in span(token, gold_present) if c in one_one]
        partners = [one_one[c] for c in aligned]
        matched = None
        for candidate in system_dotted:
            if candidate.id in claimed_system_dotted:
                continue
            if set(span(candidate, system_present)) == set(partners) and partners:
                matched = candidate
                break
        if matched is not None:
            claimed_system_dotted.add(matched.id)
            links.append(AlignmentLink((token.id,), (matched.id,), "one_one"))
        elif partners:
            # System covers the span without a dotted node: fold the gold
            # MWE block and the covering span into one link.
            merged_gold = sorted(aligned + [token.id], key=lambda x: x._key())
            links = [l for l in links
                     if not (l.kind == "one_one" and l.gold_ids[0] in aligned)]
            links.append(AlignmentLink(tuple(merged_gold), tuple(partners), "mwe"))
        else:
            links.append(AlignmentLink((token.id,), (), "unaligned_gold"))

    back = {l.system_ids[0]: l.gold_ids[0]
            for l in links if l.kind == "one_one" and not l.system_ids[0].is_dotted}
    for token in system_dotted:
        if token.id in claimed_system_dotted:
            continue
        aligned = [c for c in span(token, system_present) if c in back]
        partners = [back[c] for c in aligned]
        if partners:
            merged_system = sorted(aligned + [token.id], key=lambda x: x._key())
            links = [l for l in links
                     if not (l.kind == "one_one" and l.system_ids
                             and l.system_ids[0] in aligned)]
            links.append(AlignmentLink(tuple(sorted(partners, key=lambda x: x._key())),
                                       tuple(merged_system), "mwe"))
        else:
            links.append(AlignmentLink((), (token.id,), "unaligned_system"))
    return links


def _ordered(links: list[AlignmentLink], gold: Sentence,
             system: Sentence) -> list[AlignmentLink]:
    gold_pos = {t.id: i for i, t in enumerate(gold.tokens)}
    system_pos = {t.id: i for i, t in enumerate(system.tokens)}

    def key(link: AlignmentLink):
        if link.gold_ids:
            return (0, min(map(gold_pos.__getitem__, link.gold_ids)), 0)
        return (1, 0, min(map(system_pos.__getitem__, link.system_ids)))

    return sorted(links, key=key)


# --- component scores ---------------------------------------------------------

@dataclass(frozen=True)
class ComponentScores:
    s_split: int
    s_id: int
    s_upos: int
    s_head: int
    s_deprel: int

    def __post_init__(self):
        for name, value in self.asdict().items():
            if not 1 <= value <= 100:
                raise ValueError(f"{name}={value} outside [1,100]")

    def asdict(self) -> dict[str, int]:
        return {"split": self.s_split, "id": self.s_id, "upos": self.s_upos,
                "head": self.s_head, "deprel": self.s_deprel}

    def astuple(self) -> tuple[int, ...]:
        return (self.s_split, self.s_id, self.s_upos, self.s_head, self.s_deprel)


@dataclass(frozen=True)
class Weights:
    w_split: float = 0.15
    w_id: float = 0.15
    w_upos: float = 0.20
    w_head: float = 0.25
    w_deprel: float = 0.25

    def __post_init__(self):
        values = self.astuple()
        if any(w < 0 for w in values):
            raise WeightSumInvalid(f"negative weight in {values}")
        if abs(sum(values) - 1.0) > 1e-9:
            raise WeightSumInvalid(f"weights sum to {sum(values)}, expected 1")

    def astuple(self) -> tuple[float, ...]:
        return (self.w_split, self.w_id, self.w_upos, self.w_head, self.w_deprel)


DEFAULT_WEIGHTS = Weights()


def _percentage(full: int, denominator: int, partial: int = 0,
                credit: Fraction = Fraction(0)) -> int:
    """half_up(100 * (full + partial * credit) / denominator) clipped to
    [1, 100], in integers: for a credit sum a / b >= 0 it is
    (200a + bd) // 2bd. A Fraction is formed only for partial credit."""
    if denominator == 0:
        return 1
    numerator = full + partial * credit if partial else full
    d = numerator.denominator * denominator
    return max(1, min(100, (200 * numerator.numerator + d) // (2 * d)))


def component_scores(gold: Sentence, system: Sentence, alignment: Alignment,
                     tolerance: ToleranceConfig = DEFAULT_TOLERANCE) -> ComponentScores:
    """Five scorers in [1,100]; graded credit only through the tolerance
    configuration, structural correctness judged over one-one aligned tokens."""
    one_one = alignment.one_one()
    n_gold, n_system = len(gold.tokens), len(system.tokens)

    s_split = _percentage(2 * len(one_one), n_gold + n_system)

    gold_rank = {t.id: i for i, t in enumerate(gold.tokens)}
    system_rank = {t.id: i for i, t in enumerate(system.tokens)}
    position_matches = sum(1 for g, s in one_one.items()
                           if gold_rank[g] == system_rank[s])
    s_id = _percentage(position_matches, n_gold)

    system_by_id = system.token_index()
    gold_by_id = gold.token_index()
    annotatable = annotatable_tokens(gold)

    # Every partial credit of a component has the same value: count them.
    upos_full = upos_part = head_full = head_half = deprel_full = deprel_part = 0
    system_to_gold = {s: g for g, s in one_one.items()}
    for token in annotatable:
        partner_id = one_one.get(token.id)
        if partner_id is None:
            continue
        partner = system_by_id[partner_id]

        if partner.upos == token.upos:
            upos_full += 1
        elif tolerance.upos_pair_credit(token.upos, partner.upos) is not None:
            upos_part += 1

        resolved = resolve_head(partner.head, system_to_gold)
        if head_matches(resolved, token.head):
            head_full += 1
        elif isinstance(token.head, NodeId):
            grand = gold_by_id.get(token.head)
            if grand is not None and head_matches(resolved, grand.head):
                head_half += 1

        if partner.deprel == token.deprel:
            deprel_full += 1
        elif tolerance.deprel_class_credit(token.deprel, partner.deprel) is not None:
            deprel_part += 1

    denominator = len(annotatable)
    return ComponentScores(
        s_split=s_split,
        s_id=s_id,
        s_upos=_percentage(upos_full, denominator, upos_part,
                           _exact(tolerance.upos_credit)),
        s_head=_percentage(head_full, denominator, head_half, Fraction(1, 2)),
        s_deprel=_percentage(deprel_full, denominator, deprel_part,
                             _exact(tolerance.deprel_credit)),
    )


# --- severity ------------------------------------------------------------------

CATASTROPHIC_CLASSES = ("MissingDottedMwe", "ReparandumMisattached",
                        "InvalidHeadPersisting", "MultipleRootsOrCycle")


@dataclass(frozen=True)
class PenaltySchedule:
    """Per-issue penalty contributions; catastrophic ones sit in [0.25, 0.6],
    minor ones in [0.01, 0.05], and P is clipped at p_max in [0, 1]."""

    missing_dotted_mwe: float = 0.30
    reparandum_misattached: float = 0.25
    invalid_head_persisting: float = 0.40
    multiple_roots_or_cycle: float = 0.50
    tolerant_upos_substitution: float = 0.01
    near_miss_deprel: float = 0.01
    minor_mismatch: float = 0.02
    p_max: float = 0.95

    def __post_init__(self):
        for value in (self.missing_dotted_mwe, self.reparandum_misattached,
                      self.invalid_head_persisting, self.multiple_roots_or_cycle):
            if not 0.25 <= value <= 0.6:
                raise ValueError(f"catastrophic contribution {value} outside [0.25, 0.6]")
        for value in (self.tolerant_upos_substitution, self.near_miss_deprel,
                      self.minor_mismatch):
            if not 0.01 <= value <= 0.05:
                raise ValueError(f"minor contribution {value} outside [0.01, 0.05]")
        if not 0 <= self.p_max <= 1:
            raise ValueError(f"p_max {self.p_max} outside [0, 1]")

    def contribution(self, issue_class: str) -> float:
        return {
            "MissingDottedMwe": self.missing_dotted_mwe,
            "ReparandumMisattached": self.reparandum_misattached,
            "InvalidHeadPersisting": self.invalid_head_persisting,
            "MultipleRootsOrCycle": self.multiple_roots_or_cycle,
            "TolerantUposSubstitution": self.tolerant_upos_substitution,
            "NearMissDeprel": self.near_miss_deprel,
            "MinorMismatch": self.minor_mismatch,
        }[issue_class]


DEFAULT_SCHEDULE = PenaltySchedule()


@dataclass(frozen=True)
class SeverityIssue:
    issue_class: str
    severity: str  # catastrophic | minor
    contribution: float
    node_ids: tuple[NodeId, ...]
    note: str


@dataclass(frozen=True)
class SeverityReport:
    issues: tuple[SeverityIssue, ...]
    P: float


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

    roots = [t.id for t in system.tokens if isinstance(t.head, RootSentinel)]
    if len(roots) != 1:
        add("MultipleRootsOrCycle", roots,
            "system parse does not have exactly one root")
    for cycle in head_cycles(system.tokens, system_ids):
        add("MultipleRootsOrCycle", cycle,
            "head links form a cycle: " + ", ".join(map(str, cycle)))

    gold_by_id = gold.token_index()
    annotatable = annotatable_tokens(gold)
    for token in annotatable:
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

    for token in annotatable:
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


def _in_gold_subtree(node: NodeId, head: NodeId, gold_by_id: dict) -> bool:
    """Whether ``node`` is ``head`` or lies below it: the walk up the gold
    head chain from ``node`` meets ``head`` before it leaves the gold tokens
    (ROOT is never below a node) or revisits a node. A walk that has not
    met ``head`` after one step per gold token is going round a cycle
    without it."""
    for _ in range(len(gold_by_id)):
        if node not in gold_by_id:
            return False
        if node == head:
            return True
        node = gold_by_id[node].head
    return False


# --- aggregation -----------------------------------------------------------------

@dataclass(frozen=True)
class FlexScore:
    components: ComponentScores
    weights: Weights
    raw: float
    severity: SeverityReport
    final: int
    diagnostics: tuple[str, ...]


def flexud_final(components: ComponentScores, weights: Weights,
                 severity: SeverityReport) -> FlexScore:
    """Aggregate component scores under the severity penalty.

    raw = sum(w_i * s_i); final = round(raw * (1 - P)) with half-up rounding
    computed exactly over the decimal values the inputs denote: with integer
    weights over a denominator D and P = pn / pd in [0, 1], in integers.
    """
    scaled, D = _scaled_weights(weights.astuple())
    total = sum(wi * si for wi, si in zip(scaled, components.astuple()))
    pn, pd = _exact(severity.P).as_integer_ratio()
    final = (2 * total * (pd - pn) + D * pd) // (2 * D * pd)
    diagnostics = [f"{i.issue_class}({i.severity} {i.contribution:g}): {i.note}"
                   for i in severity.issues]
    for name, value in components.asdict().items():
        if value < 50:
            diagnostics.append(f"component {name} below 50: {value}")
    return FlexScore(components=components, weights=weights,
                     raw=total / D, severity=severity,
                     final=final, diagnostics=tuple(diagnostics))


@functools.lru_cache(maxsize=64)
def _scaled_weights(weights: tuple[float, ...]) -> tuple[tuple[int, ...], int]:
    """The exact weights as integers over their least common denominator."""
    exact = [_exact(w) for w in weights]
    D = math.lcm(*(w.denominator for w in exact))
    return tuple(int(w * D) for w in exact), D


def evaluate_sentence(gold: Sentence, system: Sentence,
                      weights: Weights = DEFAULT_WEIGHTS,
                      tolerance: ToleranceConfig = DEFAULT_TOLERANCE,
                      schedule: PenaltySchedule = DEFAULT_SCHEDULE) -> FlexScore:
    """Align, score components, detect severity, aggregate: one call."""
    alignment = align_tokens(gold, system, tolerance)
    components = component_scores(gold, system, alignment, tolerance)
    severity = detect_severity(gold, system, alignment, schedule, tolerance)
    return flexud_final(components, weights, severity)


# --- report -------------------------------------------------------------------

@dataclass(frozen=True)
class FlexResult:
    sentence_id: str
    category: Category | None
    score: FlexScore


def _mean_scores(results: list[FlexResult]) -> tuple[float, ...]:
    """The mean (ID, UPOS, HEAD, DEPREL, Final), or zeros for no results."""
    if not results:
        return (0.0,) * 5
    vectors = [r.score.components.astuple()[1:] + (r.score.final,) for r in results]
    return tuple(sum(col) / len(col) for col in zip(*vectors))


def _mean_cells(values: tuple[float, ...]) -> tuple[str, ...]:
    return tuple(f"{v:.1f}" for v in values)


def flexud_report(results: Iterable[FlexResult]) -> CategoryTable:
    """Per-category averages of the component scores and Final, in the
    published layout (ID, UPOS, HEAD, DEPREL, Final)."""
    return category_table(results, FLEX_TABLE_COLUMNS, _mean_scores, _mean_cells)
