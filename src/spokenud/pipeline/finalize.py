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

from collections import Counter
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


@dataclass(slots=True)
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


def finalize(sph: SphOutput, lsr: LsrOutput, core: CoreOutput) -> FinalParse:
    """Merge the three stage envelopes into a validated final parse."""
    if not (sph.sentence_id == lsr.sentence_id == core.sentence_id):
        raise IrreconcilableEnvelopes(
            f"stage envelopes disagree on sentence id: "
            f"{sph.sentence_id!r}/{lsr.sentence_id!r}/{core.sentence_id!r}")
    log: list[str] = list(lsr.enforcements)

    rows = _build_rows(sph, lsr, core, log)
    dotted_of = mwe_components((row.id, row.split_token) for row in rows)
    present = {row.id for row in rows}
    _strip_component_annotations(rows, dotted_of, log)
    _resolve_heads(rows, present, dotted_of, log)
    _enforce_spoken_labels(rows, present, dotted_of, log)
    root = enforce_single_root_rows(rows, log)
    _enforce_root_attachments(rows, root, present, dotted_of, log)
    repair_cycles_rows(rows, root, log)

    rows.sort(key=lambda r: r.id)
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
    for stage, tokens in (("LSR", lsr.tokens), ("Core", core.tokens)):
        counts = Counter(t.proposed_id for t in tokens)
        if len(counts) < len(tokens):  # the stage validators refuse this first
            raise IrreconcilableEnvelopes(f"{stage} envelope repeats node ids: " + ", ".join(
                str(node) for node, count in counts.items() if count > 1))
    sph_conf = {t.proposed_id: t.sph_confidence for t in sph.tokens}
    core_by_id: dict[NodeId, CoreToken] = {t.proposed_id: t for t in core.tokens}
    rows: list[_Row] = []
    for token in lsr.tokens:
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
    for node in sorted(set(core_by_id) - {row.id for row in rows}):
        log.append(f"merge[unknown-id]: ignored Core row {node} absent from "
                   f"the resolved token list")
    return rows


def _strip_component_annotations(rows: list[_Row], dotted_of: dict,
                                 log: list) -> None:
    """Mark MWE component rows; they carry no annotations and no head."""
    for row in rows:
        if row.id not in dotted_of:
            continue
        row.component = True
        if row.upos or row.deprel or row.head:
            _repair(row, log,
                    "annotations stripped from MWE component row",
                    f"mwe-component]: stripped annotations from component "
                    f"row {row.id}")
            row.upos = ""
            row.deprel = ""
        row.head = None


def _target(row: _Row, node: NodeId | None, present: set,
            dotted_of: dict) -> NodeId | None:
    """Where ``row`` may attach naming ``node``: a component means its dotted node."""
    node = dotted_of.get(node, node)
    if node not in present or node == row.id:
        return None
    return node


def _resolve_heads(rows: list[_Row], present: set, dotted_of: dict,
                   log: list) -> None:
    """Turn textual heads into ROOT/NodeId, repairing invalid ones by unique
    HEAD_FORM match, then spoken anchor, else None (attached to the root)."""
    by_form: dict[str, list[_Row]] = {}
    for row in rows:
        if not row.component and row.form:
            by_form.setdefault(row.form, []).append(row)

    for row in rows:
        if row.component:
            continue
        raw = row.head
        if raw == "0":
            row.head = ROOT
            continue
        if raw in ("", None):
            if not row.deprel:
                row.deprel = "dep"
            row.head = None
            _repair(row, log, "attached to root (no head assigned)",
                    f"head]: {row.id} had no head; attached to root")
            continue
        try:
            node = NodeId.parse(str(raw))
        except ValueError:
            node = None
        target = _target(row, node, present, dotted_of)
        if target is None:
            _repair_invalid_head(row, raw, by_form, present, dotted_of, log)
            continue
        row.head = target
        if target != node:
            _repair(row, log, f"head redirected to dotted node {target}",
                    f"head]: head of {row.id} pointed at MWE component "
                    f"{node}; redirected to {target}")


def _repair_invalid_head(row: _Row, raw, by_form: dict, present: set,
                         dotted_of: dict, log: list) -> None:
    matches = [m for m in by_form.get(row.head_form, []) if m.id != row.id]
    if row.head_form and len(matches) == 1:
        row.head = matches[0].id
        _repair(row, log, f"head {raw!r} resolved by HEAD_FORM match",
                f"head]: invalid head {raw!r} of {row.id} resolved to "
                f"{matches[0].id} by unique HEAD_FORM {row.head_form!r}")
        return
    row.head = _target(row, row.spoken_anchor, present, dotted_of)
    if row.head is not None:
        _repair(row, log, f"head {raw!r} resolved to spoken anchor",
                f"head]: invalid head {raw!r} of {row.id} resolved to spoken "
                f"anchor {row.head}")
        return
    _repair(row, log, f"head {raw!r} unresolvable; attached to root",
            f"head]: invalid head {raw!r} of {row.id} could not be resolved; "
            f"attached to root")


def _enforce_spoken_labels(rows: list[_Row], present: set, dotted_of: dict,
                           log: list) -> None:
    """Label and anchor policy over the merged rows (pre root selection).
    Overrides log but do not count as repairs."""
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
        anchor = _target(row, row.spoken_anchor, present, dotted_of)
        if anchor is not None and row.head != anchor:
            log.append(f"override[{row.spoken_label}]: HEAD of {row.id} "
                       f"forced to spoken anchor {anchor}")
            row.head = anchor


def _enforce_root_attachments(rows: list[_Row], root: _Row, present: set,
                              dotted_of: dict, log: list) -> None:
    """Headless rows, unanchored discourse/filler and dep tokens attach to the
    root (post root selection); only label-driven changes log."""
    for row in rows:
        if row.component or row is root:
            continue
        if row.head is None:
            row.head = root.id
            if not row.deprel:
                row.deprel = "dep"
        _, _, attachment = _spoken_rule(row.spoken_label)
        if attachment == "root" or (
                attachment == "anchor_or_root"
                and _target(row, row.spoken_anchor, present, dotted_of) is None):
            if row.head != root.id:
                log.append(f"override[{row.spoken_label}]: HEAD of {row.id} "
                           f"{row.head} -> root {root.id}")
                row.head = root.id


_ROOT_RANK = {"VERB": 0, "AUX": 1, "NOUN": 2, "PRON": 2}


def _root_priority_key(row: _Row, dependents: int):
    rank = _ROOT_RANK.get(row.upos, 3)
    return (rank, -(dependents if rank == 2 else 0),
            -_combined_confidence(row), row.id)


def enforce_single_root_rows(rows: list[_Row], log: list) -> _Row:
    """Keep the highest-priority root (verb, then aux, then the noun/pronoun
    with the most dependents, then highest combined confidence, ties to the
    lower id); demote the others, or promote a candidate when no root exists."""
    roots = [row for row in rows if row.head is ROOT]
    if len(roots) == 1:
        return roots[0]
    dependents = Counter(row.head for row in rows if isinstance(row.head, NodeId))
    keeper = min(roots or [row for row in rows if not row.component],
                 key=lambda r: _root_priority_key(r, dependents[r.id]))
    if roots:
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
    keeper.head = ROOT
    keeper.deprel = "root"
    _repair(keeper, log, "promoted to root",
            f"root]: no root; promoted {keeper.id} ({keeper.upos or '?'}, "
            f"conf {_combined_confidence(keeper):.3f})")
    return keeper


def repair_cycles_rows(rows: list[_Row], root: _Row, log: list) -> None:
    """Reattach the lowest-confidence member of each head-link cycle to the
    root with DEPREL "dep" until the graph is acyclic. Each pass breaks one
    cycle and makes none, since the root heads to ROOT and so is in no cycle."""
    present = {row.id for row in rows}
    while cycles := head_cycles(rows, present):
        members = [row for row in rows if row.id in cycles[0]]
        victim = min(members, key=lambda r: (_combined_confidence(r), r.id))
        confidences = ", ".join(
            f"{r.id}={_combined_confidence(r):.3f}" for r in members)
        victim.head = root.id
        victim.deprel = "dep"
        _repair(victim, log, "cycle broken: reattached to root",
                f"cycle]: cycle {{{confidences}}}; reattached "
                f"lowest-confidence node {victim.id} to root {root.id}")


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
