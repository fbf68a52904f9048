"""Deterministic merge-validate-repair producing the final parse.

Authority runs Core over LSR over SPH: the merge prefers Core values and
fills gaps from the earlier stages. Structural problems are repaired in a
fixed order (invalid head references, spoken-label enforcement, single root,
cycles). Every counted repair appends exactly one adjudication-log line
tagged ``repair[``; label-policy overrides log with ``override[`` and do not
count, and envelope-level cleanups log with ``merge[``. The induced sentence
of the result always passes validate_tree.

Combined confidence weighs the stages 0.5/0.3/0.2 (missing values count as
0.5); a structurally repaired token's confidence is damped by 0.8 and its
penalty is 0.25 per repair, capped at 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import (
    NodeId,
    ROOT,
    Sentence,
    Token,
    canonical_deprel,
    head_cycles,
    mwe_components,
    validate_tree,
)
from .envelopes import (
    CoreOutput,
    CoreToken,
    FinalParse,
    IrreconcilableEnvelopes,
    LsrOutput,
    SphOutput,
)

CONFIDENCE_WEIGHTS = {"core": 0.5, "lsr": 0.3, "sph": 0.2}
MISSING_CONFIDENCE = 0.5
REPAIR_DAMPING = 0.8
REPAIR_PENALTY_STEP = 0.25


@dataclass
class _Row:
    id: NodeId
    orig_token_index: int | None
    split_token: str
    form: str
    lemma: str
    upos: str
    head: object  # raw text before resolution; ROOT | NodeId | None after
    head_form: str
    deprel: str
    spoken_label: str | None
    spoken_anchor: NodeId | None
    component: bool = False
    sph_conf: float | None = None
    lsr_conf: float | None = None
    core_conf: float | None = None
    repairs: int = 0
    notes: list = field(default_factory=list)


def _combined_confidence(row: _Row) -> float:
    total = 0.0
    for stage, weight in CONFIDENCE_WEIGHTS.items():
        value = getattr(row, f"{stage}_conf")
        total += weight * (MISSING_CONFIDENCE if value is None else value)
    return total


def _repair(row: _Row, log: list, note: str, line: str) -> None:
    row.repairs += 1
    row.notes.append(note)
    log.append("repair[" + line)


def _spoken_rule(label: str | None):
    """Desired (upos, deprel, attachment) for a spoken label; attachment is
    one of "anchor", "anchor_or_root", "root", None."""
    if label == "reparandum":
        return None, "reparandum", "anchor"
    if label in ("discourse", "filler"):
        return "INTJ", "discourse", "anchor_or_root"
    if label == "dep":
        return None, "dep", "root"
    return None, None, None


def finalize(sph: SphOutput, lsr: LsrOutput, core: CoreOutput,
             config=None) -> FinalParse:
    """Merge the three stage envelopes into a validated final parse."""
    if not (sph.sentence_id == lsr.sentence_id == core.sentence_id):
        raise IrreconcilableEnvelopes(
            f"stage envelopes disagree on sentence id: "
            f"{sph.sentence_id!r}/{lsr.sentence_id!r}/{core.sentence_id!r}")
    log: list[str] = list(lsr.enforcements)

    rows = _build_rows(sph, lsr, core, log)
    _strip_component_annotations(rows, log)
    dotted_of = mwe_components((row.id, row.split_token) for row in rows)
    pending = _resolve_heads(rows, dotted_of, log)
    _enforce_spoken_labels(rows, pending, dotted_of, log)
    root = enforce_single_root_rows(rows, pending, log)
    _attach_pending(rows, pending, root)
    _enforce_root_attachments(rows, root, dotted_of, log)
    repair_cycles_rows(rows, root, log)

    rows.sort(key=lambda r: r.id._key())
    parse = FinalParse(
        sentence_id=sph.sentence_id,
        tokens=tuple(_final_token(row) for row in rows),
        adjudication_log=tuple(log),
        final_summary=(f"{len(rows)} nodes, "
                       f"{sum(r.repairs for r in rows)} structural repairs"),
    )
    report = validate_tree(induced_sentence(parse))
    if not report.ok:
        raise AssertionError(
            f"internal error: finalized parse fails validation: {report.issues}")
    return parse


def _build_rows(sph: SphOutput, lsr: LsrOutput, core: CoreOutput,
                log: list) -> list[_Row]:
    sph_conf = {t.proposed_id: t.sph_confidence for t in sph.tokens}
    core_by_id: dict[NodeId, CoreToken] = {}
    for token in core.tokens:
        if token.proposed_id in core_by_id:
            log.append(f"merge[duplicate]: dropped duplicate Core row "
                       f"{token.proposed_id}")
            continue
        core_by_id[token.proposed_id] = token

    rows: list[_Row] = []
    seen: set[NodeId] = set()
    for token in lsr.tokens:
        if token.proposed_id in seen:
            log.append(f"merge[duplicate]: dropped duplicate node "
                       f"{token.proposed_id}")
            continue
        seen.add(token.proposed_id)
        annotated = core_by_id.get(token.proposed_id)
        rows.append(_Row(
            id=token.proposed_id,
            orig_token_index=token.orig_token_index or None,
            split_token=token.split_token,
            form=(annotated.form if annotated and annotated.form
                  else token.split_token),
            lemma=(annotated.lemma if annotated and annotated.lemma
                   else (token.lemma or "")),
            upos=annotated.upos if annotated else "",
            head=annotated.head_id if annotated else "",
            head_form=annotated.head_form if annotated else "",
            deprel=(canonical_deprel(annotated.deprel)
                    if annotated and annotated.deprel else ""),
            spoken_label=token.spoken_label,
            spoken_anchor=token.spoken_anchor,
            sph_conf=sph_conf.get(token.proposed_id),
            lsr_conf=token.lsr_confidence,
            core_conf=annotated.confidence if annotated else None,
        ))
    for node in sorted(set(core_by_id) - seen, key=lambda n: n._key()):
        log.append(f"merge[unknown-id]: ignored Core row {node} absent from "
                   f"the resolved token list")
    components = mwe_components((t.proposed_id, t.split_token)
                                for t in lsr.tokens)
    for row in rows:
        row.component = row.id in components
    return rows


def _strip_component_annotations(rows: list[_Row], log: list) -> None:
    for row in rows:
        if not row.component:
            continue
        if row.upos or row.deprel or row.head:
            _repair(row, log,
                    "annotations stripped from MWE component row",
                    f"mwe-component]: stripped annotations from component "
                    f"row {row.id}")
            row.upos = ""
            row.deprel = ""
            row.head = ""


def _resolve_heads(rows: list[_Row], dotted_of: dict, log: list) -> set:
    """Turn textual head references into ROOT/NodeId/pending, repairing
    invalid ones by unique HEAD_FORM match, then spoken anchor, else root
    attachment (collected as pending)."""
    present = {row.id for row in rows}
    pending: set[NodeId] = set()
    by_form: dict[str, list[_Row]] = {}
    for row in rows:
        if not row.component and row.form:
            by_form.setdefault(row.form, []).append(row)

    for row in rows:
        if row.component:
            row.head = None
            continue
        raw = row.head
        if raw == "0":
            row.head = ROOT
            continue
        if raw in ("", None):
            if not row.deprel:
                row.deprel = "dep"
            row.head = None
            pending.add(row.id)
            _repair(row, log, "attached to root (no head assigned)",
                    f"head]: {row.id} had no head; attached to root")
            continue
        try:
            node = NodeId.parse(str(raw))
        except ValueError:
            node = None
        if node is not None and node in dotted_of:
            redirect = dotted_of[node]
            if redirect != row.id:
                row.head = redirect
                _repair(row, log, f"head redirected to dotted node {redirect}",
                        f"head]: head of {row.id} pointed at MWE component "
                        f"{node}; redirected to {redirect}")
                continue
            node = None
        if node is not None and node in present and node != row.id:
            row.head = node
            continue
        _repair_invalid_head(row, raw, by_form, present, pending, log)
    return pending


def _repair_invalid_head(row: _Row, raw, by_form: dict, present: set,
                         pending: set, log: list) -> None:
    matches = [m for m in by_form.get(row.head_form, []) if m.id != row.id]
    if row.head_form and len(matches) == 1:
        row.head = matches[0].id
        _repair(row, log, f"head {raw!r} resolved by HEAD_FORM match",
                f"head]: invalid head {raw!r} of {row.id} resolved to "
                f"{matches[0].id} by unique HEAD_FORM {row.head_form!r}")
        return
    anchor = row.spoken_anchor
    if anchor is not None and anchor in present and anchor != row.id:
        row.head = anchor
        _repair(row, log, f"head {raw!r} resolved to spoken anchor",
                f"head]: invalid head {raw!r} of {row.id} resolved to spoken "
                f"anchor {anchor}")
        return
    row.head = None
    pending.add(row.id)
    _repair(row, log, f"head {raw!r} unresolvable; attached to root",
            f"head]: invalid head {raw!r} of {row.id} could not be resolved; "
            f"attached to root")


def _effective_anchor(row: _Row, present: set, dotted_of: dict) -> NodeId | None:
    anchor = row.spoken_anchor
    if anchor is None:
        return None
    anchor = dotted_of.get(anchor, anchor)
    if anchor not in present or anchor == row.id:
        return None
    return anchor


def _enforce_spoken_labels(rows: list[_Row], pending: set, dotted_of: dict,
                           log: list) -> None:
    """Label and anchor policy over the merged rows (pre root selection).
    Overrides log but do not count as repairs."""
    present = {row.id for row in rows}
    for row in rows:
        if row.component:
            continue
        upos, deprel, attachment = _spoken_rule(row.spoken_label)
        if deprel is not None and row.deprel != deprel:
            log.append(f"override[{row.spoken_label}]: DEPREL of {row.id} "
                       f"{row.deprel!r} -> {deprel!r}")
            row.deprel = deprel
        if upos is not None and row.upos != upos:
            log.append(f"override[{row.spoken_label}]: UPOS of {row.id} "
                       f"{row.upos!r} -> {upos!r}")
            row.upos = upos
        if attachment not in ("anchor", "anchor_or_root") or row.head is ROOT:
            continue
        anchor = _effective_anchor(row, present, dotted_of)
        if anchor is not None and row.head != anchor:
            log.append(f"override[{row.spoken_label}]: HEAD of {row.id} "
                       f"forced to spoken anchor {anchor}")
            row.head = anchor
            pending.discard(row.id)


def _enforce_root_attachments(rows: list[_Row], root: _Row, dotted_of: dict,
                              log: list) -> None:
    """Unanchored discourse/filler and dep tokens attach to the root (post
    root selection); only actual changes log."""
    present = {row.id for row in rows}
    for row in rows:
        if row.component or row is root:
            continue
        _, _, attachment = _spoken_rule(row.spoken_label)
        if attachment == "root" or (
                attachment == "anchor_or_root"
                and _effective_anchor(row, present, dotted_of) is None):
            if row.head != root.id:
                log.append(f"override[{row.spoken_label}]: HEAD of {row.id} "
                           f"{row.head} -> root {root.id}")
                row.head = root.id


def _root_priority_key(row: _Row, dependents: int):
    if row.upos == "VERB":
        rank = 0
    elif row.upos == "AUX":
        rank = 1
    elif row.upos in ("NOUN", "PRON"):
        rank = 2
    else:
        rank = 3
    return (rank, -(dependents if rank == 2 else 0),
            -_combined_confidence(row), row.id._key())


def enforce_single_root_rows(rows: list[_Row], pending: set, log: list) -> _Row:
    """Keep the highest-priority root (verb, then aux, then the noun/pronoun
    with the most dependents, then highest combined confidence, ties to the
    lower id); demote the others, or promote a candidate when no root exists."""
    roots = [row for row in rows if row.head is ROOT]
    dependents: dict[NodeId, int] = {}
    for row in rows:
        if isinstance(row.head, NodeId):
            dependents[row.head] = dependents.get(row.head, 0) + 1

    if len(roots) == 1:
        return roots[0]
    if roots:
        keeper = min(roots, key=lambda r: _root_priority_key(
            r, dependents.get(r.id, 0)))
        for row in roots:
            if row is keeper:
                continue
            row.head = keeper.id
            if row.deprel in ("", "root"):
                row.deprel = "dep"
            _repair(row, log, f"demoted from root under {keeper.id}",
                    f"root]: multiple roots; kept {keeper.id} "
                    f"({keeper.upos or '?'}, conf "
                    f"{_combined_confidence(keeper):.3f}), reattached {row.id} "
                    f"({row.upos or '?'}, conf {_combined_confidence(row):.3f})")
        return keeper
    candidates = [row for row in rows if not row.component]
    keeper = min(candidates, key=lambda r: _root_priority_key(
        r, dependents.get(r.id, 0)))
    keeper.head = ROOT
    keeper.deprel = "root"
    pending.discard(keeper.id)
    _repair(keeper, log, "promoted to root",
            f"root]: no root; promoted {keeper.id} ({keeper.upos or '?'}, "
            f"conf {_combined_confidence(keeper):.3f})")
    return keeper


def _attach_pending(rows: list[_Row], pending: set, root: _Row) -> None:
    for row in rows:
        if row.id in pending and row is not root:
            row.head = root.id
            if not row.deprel:
                row.deprel = "dep"


def repair_cycles_rows(rows: list[_Row], root: _Row, log: list) -> None:
    """Reattach the lowest-confidence member of each head-link cycle to the
    root with DEPREL "dep" until the graph is acyclic. Terminates within one
    pass per node."""
    present = {row.id for row in rows}
    for _ in range(len(rows) + 1):
        cycles = head_cycles(rows, present)
        if not cycles:
            return
        members = [row for row in rows if row.id in cycles[0]]
        victim = min(members,
                     key=lambda r: (_combined_confidence(r), r.id._key()))
        confidences = ", ".join(
            f"{r.id}={_combined_confidence(r):.3f}" for r in members)
        victim.head = root.id
        victim.deprel = "dep"
        _repair(victim, log, "cycle broken: reattached to root",
                f"cycle]: cycle {{{confidences}}}; reattached "
                f"lowest-confidence node {victim.id} to root {root.id}")
    raise AssertionError("cycle repair did not terminate within the node budget")


def _final_token(row: _Row) -> Token:
    confidence = _combined_confidence(row)
    if row.repairs:
        confidence *= REPAIR_DAMPING
    return Token(
        id=row.id,
        form=row.split_token,
        orig_token_index=row.orig_token_index,
        lemma=row.lemma or None,
        upos=row.upos or None,
        head=row.head,
        deprel=row.deprel or None,
        confidences={"final": round(confidence, 3)},
        penalty=min(1.0, REPAIR_PENALTY_STEP * row.repairs),
        notes="; ".join(row.notes),
    )


def induced_sentence(parse: FinalParse) -> Sentence:
    """The core-model sentence a final parse denotes, for validation and IO."""
    return Sentence(parse.sentence_id, parse.tokens)
