"""Builders for stage envelopes used by the merge/repair and fuzz tests."""

from __future__ import annotations

from spokenud.core import NodeId, Sentence, Token
from spokenud.ioformats import sheet_rows_for_sentence
from spokenud.pipeline import induced_sentence
from spokenud.pipeline.envelopes import (
    CoreOutput,
    CoreToken,
    LsrOutput,
    PipelineToken,
    SphOutput,
    build_id_map,
)


def sheet_rows(parse):
    """The sheet rows a final parse writes."""
    return sheet_rows_for_sentence(induced_sentence(parse))


def input_sentence(sid, forms, langs=None):
    langs = langs or ["unknown"] * len(forms)
    tokens = tuple(Token(id=NodeId(i), form=f, lang_tag=lang, orig_token_index=i)
                   for i, (f, lang) in enumerate(zip(forms, langs), start=1))
    return Sentence(sentence_id=sid, tokens=tokens)


def stage_tokens(forms, labels=None, anchors=None, sph_conf=None, lsr_conf=None):
    labels = labels or {}
    anchors = anchors or {}
    out = []
    for i, form in enumerate(forms, start=1):
        out.append(PipelineToken(
            proposed_id=NodeId(i),
            orig_token_index=i,
            split_token=form,
            spoken_label=labels.get(i),
            spoken_anchor=NodeId(anchors[i]) if i in anchors else None,
            sph_confidence=(sph_conf or {}).get(i),
            lsr_confidence=(lsr_conf or {}).get(i),
        ))
    return tuple(out)


def sph_lsr(sid, forms, labels=None, anchors=None, sph_conf=None, lsr_conf=None):
    tokens = stage_tokens(forms, labels, anchors, sph_conf, lsr_conf)
    id_map = build_id_map(tokens)
    sph = SphOutput(sentence_id=sid, tokens=tokens, id_map=id_map)
    lsr = LsrOutput(sentence_id=sid, tokens=tokens, id_map=id_map)
    return sph, lsr


def adversarial_envelopes(rng, sid):
    """Random stage triple with hostile Core output: random/dangling/self
    heads, zero or many roots, cycles, annotated MWE components, missing
    dotted nodes, unknown ids, junk labels."""
    import random as _random

    from spokenud.pipeline.edits import apply_integer_shift, make_dotted_mwe

    n = rng.randint(1, 9)
    forms = [f"w{i}" for i in range(1, n + 1)]
    labels = {}
    anchors = {}
    for i in range(1, n + 1):
        if rng.random() < 0.25:
            labels[i] = rng.choice(["reparandum", "discourse", "filler", "dep"])
            if rng.random() < 0.6:
                anchors[i] = rng.randint(1, n)
    sph_conf = {i: round(rng.random(), 2) for i in range(1, n + 1)
                if rng.random() < 0.7}
    tokens = stage_tokens(forms, labels, anchors, sph_conf)

    if n >= 3 and rng.random() < 0.3:
        target = rng.randint(1, n)
        tokens, _ = apply_integer_shift(tokens, target, ["p1", "p2"])
    integers = [t for t in tokens if not t.proposed_id.is_dotted]
    if len(integers) >= 4 and rng.random() < 0.35:
        start = rng.randint(0, len(integers) - 2)
        span = [integers[start].proposed_id, integers[start + 1].proposed_id]
        tokens, _ = make_dotted_mwe(tokens, span)

    id_map = build_id_map(tokens)
    sph = SphOutput(sentence_id=sid, tokens=tokens, id_map=id_map)
    lsr = LsrOutput(sentence_id=sid, tokens=tokens, id_map=id_map)

    ids = [str(t.proposed_id) for t in tokens]
    upos_pool = ["VERB", "AUX", "NOUN", "PRON", "INTJ", "ADV", "DET", ""]
    deprel_pool = ["root", "nsubj", "obj", "advmod", "discourse", "dep",
                   "reparandum", "rep", ""]
    core_tokens = []
    for t in tokens:
        roll = rng.random()
        if roll < 0.12:
            head_id = str(rng.randint(20, 40))  # dangling
        elif roll < 0.2:
            head_id = "0"
        elif roll < 0.26:
            head_id = str(t.proposed_id)  # self head
        elif roll < 0.32:
            head_id = ""
        else:
            head_id = rng.choice(ids)
        core_tokens.append(CoreToken(
            proposed_id=t.proposed_id,
            form=t.split_token,
            lemma="",
            upos=rng.choice(upos_pool),
            head_id=head_id,
            head_form=rng.choice(["", "w1", "w2", "zzz", "root"]),
            deprel=rng.choice(deprel_pool),
            confidence=round(rng.random(), 2) if rng.random() < 0.8 else None,
        ))
    if core_tokens and rng.random() < 0.1:
        core_tokens.append(CoreToken(
            proposed_id=NodeId(rng.randint(30, 50)), form="ghost", lemma="",
            upos="NOUN", head_id="1", head_form="", deprel="obj"))
    core = CoreOutput(sentence_id=sid, tokens=tuple(core_tokens))
    return sph, lsr, core


def pitta_bread_anchor_case():
    """Token 1 has a dangling Core head and a spoken anchor on component 3 of
    the dotted node 2.1 pitta_bread, which Core makes the root."""
    from spokenud.pipeline.edits import make_dotted_mwe

    sph, lsr = sph_lsr("sa", ["eat", "pitta", "bread"], anchors={1: 3})
    tokens, _ = make_dotted_mwe(lsr.tokens, [NodeId(2), NodeId(3)])
    id_map = build_id_map(tokens)
    sph = SphOutput(sentence_id="sa", tokens=tokens, id_map=id_map)
    lsr = LsrOutput(sentence_id="sa", tokens=tokens, id_map=id_map)
    core = core_from("sa", [
        ("1", "VERB", "99", "acl"),
        ("2", "", "", ""),
        ("3", "", "", ""),
        ("2.1", "NOUN", "0", "root"),
    ], forms=["eat", "", "", "pitta_bread"])
    return sph, lsr, core


def core_payload(core):
    """The Core stage JSON object a backend would answer with for ``core``."""
    return {
        "sentence_id": core.sentence_id,
        "annotated_tokens": [
            {"proposed_ID": str(t.proposed_id), "FORM": t.form, "LEMMA": t.lemma,
             "UPOS": t.upos, "HEAD_ID": t.head_id, "HEAD_FORM": t.head_form,
             "DEPREL": t.deprel, "core_confidence": t.confidence,
             "core_notes": t.notes}
            for t in core.tokens
        ],
        "summary_notes": core.summary,
    }


def core_from(sid, annotations, forms=None, confidences=None):
    """annotations: list of (id_text, upos, head_id_text, deprel)."""
    confidences = confidences or {}
    tokens = []
    for i, (id_text, upos, head_id, deprel) in enumerate(annotations, start=1):
        form = forms[i - 1] if forms else f"w{i}"
        head_form = ""
        if head_id == "0":
            head_form = "root"
        tokens.append(CoreToken(
            proposed_id=NodeId.parse(id_text),
            form=form,
            lemma="",
            upos=upos,
            head_id=head_id,
            head_form=head_form,
            deprel=deprel,
            confidence=confidences.get(i),
        ))
    return CoreOutput(sentence_id=sid, tokens=tuple(tokens))
