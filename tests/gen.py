"""Seeded random generators for model-shaped sentences used across tests."""

from __future__ import annotations

import random
import string

from spokenud.core import ROOT, NodeId, Sentence, Token

UPOS_POOL = ["NOUN", "VERB", "AUX", "PRON", "DET", "ADV", "INTJ", "ADP", "PART"]
DEPREL_POOL = ["nsubj", "obj", "obl", "advmod", "det", "aux", "discourse",
               "dep", "case", "reparandum", "compound"]
LANGS = ["eng", "spa", "mixed", "unknown"]


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(2, 7)))


def _score(rng: random.Random) -> float:
    return round(rng.random(), 3)


def random_sentence(rng: random.Random, sid: str, *,
                    sheet_compatible: bool = False,
                    valid_tree: bool = True) -> Sentence:
    """A random sentence exercising every field the data model stores.

    With sheet_compatible=True only fields representable in the sheet table
    are populated. With valid_tree=True the head links form a single-rooted
    tree over the annotatable rows.
    """
    n = rng.randint(2, 10)
    ids = [NodeId(i) for i in range(1, n + 1)]

    components: set[NodeId] = set()
    if n >= 4 and rng.random() < 0.4:
        start = rng.randint(1, n - 1)
        components = {NodeId(start), NodeId(start + 1)}
        ids.insert(start, NodeId(start, 1))  # canonical slot inside the span

    annotatable = [i for i in ids if i not in components]
    root = rng.choice(annotatable)
    heads: dict[NodeId, NodeId | None] = {}
    for node in annotatable:
        if node == root:
            continue
        if valid_tree:
            earlier = [c for c in annotatable if c < node]
            heads[node] = rng.choice(earlier) if earlier else root
            if heads[node] == node:
                heads[node] = root
        else:
            heads[node] = rng.choice([c for c in annotatable if c != node] or [root])

    forms: dict[NodeId, str] = {i: _word(rng) for i in ids}
    if components:
        base = sorted(components)
        dotted = next(i for i in ids if i.is_dotted)
        forms[dotted] = "_".join(forms[c] for c in base)

    tokens: list[Token] = []
    for position, node in enumerate(ids, start=1):
        if node in components:
            tokens.append(Token(id=node, form=forms[node],
                                orig_token_index=position if rng.random() < 0.8 else None))
            continue
        head = ROOT if node == root else heads[node]
        deprel = "root" if node == root else rng.choice(DEPREL_POOL)
        kwargs: dict = {}
        if sheet_compatible:
            if rng.random() < 0.8:
                kwargs["confidences"] = {"final": _score(rng)}
        else:
            kwargs["lang_tag"] = rng.choice(LANGS)
            if rng.random() < 0.3:
                kwargs["spoken_label"] = rng.choice(
                    ["reparandum", "discourse", "filler", "dep"])
                if rng.random() < 0.5:
                    kwargs["spoken_anchor"] = rng.choice(ids)
            stages = rng.sample(["sph", "lsr", "core", "final"], rng.randint(0, 3))
            if stages:
                kwargs["confidences"] = {s: _score(rng) for s in stages}
        tokens.append(Token(
            id=node,
            form=forms[node],
            orig_token_index=position if rng.random() < 0.8 else None,
            lemma=_word(rng) if rng.random() < 0.7 else None,
            upos=rng.choice(UPOS_POOL),
            head=head,
            deprel=deprel,
            penalty=round(rng.choice([0.0, 0.0, 0.25, 0.5]), 3),
            notes=_word(rng) if rng.random() < 0.3 else "",
            **kwargs,
        ))
    metadata = {} if sheet_compatible else (
        {"speaker": _word(rng)} if rng.random() < 0.3 else {})
    return Sentence(sentence_id=sid, tokens=tuple(tokens),
                    category=None, metadata=metadata)
