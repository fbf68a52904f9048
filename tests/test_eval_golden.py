"""Byte-level golden for ``spokenud eval`` over ~300 seeded hostile pairs.

Gold sentences come from ``gen.random_sentence`` (dotted MWE nodes, valid
trees and cyclic ones); each system sentence perturbs its gold with
tolerated and untolerated tag and relation swaps, grandparent heads (half
head credit), extra roots, dangling heads, a dropped dotted node, and token
splits, merges, drops, insertions and substitutions. The pairs run through
the command line twice, once with the shipped configuration and once with
non-default credits, weights and penalties, and the digest pins the bytes
of both ``per_sentence.jsonl`` files. The digest was recorded before the
scoring fast path (integer credit counting, tuple node ids, the identical
sequence shortcut) replaced the per-token ``Fraction`` arithmetic.
"""

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

from spokenud.cli import main
from spokenud.core import ROOT, Category, NodeId, Sentence, annotatable_tokens
from spokenud.ioformats import emit_conllu

from gen import UPOS_POOL, random_sentence

GOLDEN = Path(__file__).parent / "data" / "golden" / "eval_pairs300.sha256"

PAIRS = 300
UPOS_PARTNER = {"VERB": "AUX", "AUX": "VERB", "DET": "PRON", "PRON": "DET",
                "PROPN": "NOUN", "NOUN": "PROPN"}
DEPREL_SIBLING = {"obj": "obl", "obl": "iobj", "iobj": "obj",
                  "advmod": "discourse", "discourse": "advmod"}
CONFIG = """\
evaluation:
  weights: {split: 0.1, id: 0.2, upos: 0.3, head: 0.25, deprel: 0.15}
  tolerance: {upos_credit: 0.3, deprel_credit: 0.35}
  penalties: {tolerant_upos_substitution: 0.03, minor_mismatch: 0.05,
              reparandum_misattached: 0.35, p_max: 0.7}
"""


def relabel(rng, token, gold_by_id, n):
    """Tag, relation and head changes of one annotatable token."""
    changes = {}
    r = rng.random()
    if r < 0.2 and token.upos in UPOS_PARTNER:
        changes["upos"] = UPOS_PARTNER[token.upos]
    elif r < 0.3:
        changes["upos"] = rng.choice(UPOS_POOL)
    r = rng.random()
    if r < 0.2 and token.deprel in DEPREL_SIBLING:
        changes["deprel"] = DEPREL_SIBLING[token.deprel]
    elif r < 0.3:
        changes["deprel"] = rng.choice(["dep", "nsubj", "reparandum", "obj"])
    r = rng.random()
    parent = gold_by_id.get(token.head) if isinstance(token.head, NodeId) else None
    if r < 0.15 and parent is not None and parent.head != token.id:
        changes["head"] = parent.head
    elif r < 0.2:
        changes["head"] = ROOT
    elif r < 0.25:
        changes["head"] = NodeId(n + 5)
    return replace(token, **changes)


def renumbered(tokens):
    """Integer-only tokens renumbered 1..k, heads following their token;
    a head whose token is gone keeps its old number."""
    new_id = {t.id: NodeId(i) for i, t in enumerate(tokens, 1)
              if t.id is not None}
    out = []
    for i, token in enumerate(tokens, 1):
        head = new_id.get(token.head, token.head)
        if head == NodeId(i):
            head = ROOT
        out.append(replace(token, id=NodeId(i), head=head))
    return tuple(out)


def perturb(rng, gold, sid):
    gold_by_id = gold.token_index()
    n = len(gold.tokens)
    annotatable = {t.id for t in annotatable_tokens(gold)}
    tokens = [relabel(rng, t, gold_by_id, n) if t.id in annotatable else t
              for t in gold.tokens]
    dotted = [t for t in tokens if t.id.is_dotted]
    edit = rng.random()
    if dotted and edit < 0.3:
        tokens.remove(dotted[0])
    elif not dotted and edit < 0.6:
        p = rng.randrange(len(tokens))
        kind = rng.choice(["split", "merge", "drop", "insert", "change"])
        token = tokens[p]
        if kind == "split" and len(token.form) > 1:
            cut = rng.randrange(1, len(token.form))
            tokens[p:p + 1] = [replace(token, form=token.form[:cut]),
                               replace(token, id=None, form=token.form[cut:],
                                       head=token.id, deprel="dep")]
        elif kind == "merge" and p + 1 < len(tokens):
            tokens[p:p + 2] = [replace(token, form=token.form + tokens[p + 1].form)]
        elif kind == "drop" and len(tokens) > 1:
            del tokens[p]
        elif kind == "insert":
            tokens.insert(p, replace(token, id=None, form="uh", upos="INTJ",
                                     head=token.id, deprel="discourse"))
        elif kind == "change":
            tokens[p] = replace(token, form=token.form + "x")
        tokens = renumbered(tokens)
    return Sentence(sid, tuple(tokens), category=gold.category)


def corpus(seed=10):
    rng = random.Random(seed)
    categories = list(Category) + [None]
    golds, systems = [], []
    for i in range(PAIRS):
        sid = f"p{i:03d}"
        gold = random_sentence(rng, sid, valid_tree=rng.random() < 0.8)
        gold = replace(gold, category=rng.choice(categories))
        golds.append(gold)
        systems.append(perturb(rng, gold, sid))
    return golds, systems


def eval_records(tmp_path) -> bytes:
    golds, systems = corpus()
    gold_path, system_path = tmp_path / "gold.conllu", tmp_path / "system.conllu"
    gold_path.write_text(emit_conllu(golds), encoding="utf-8")
    system_path.write_text(emit_conllu(systems), encoding="utf-8")
    config = tmp_path / "config.yaml"
    config.write_text(CONFIG, encoding="utf-8")
    records = b""
    for name, extra in (("default", []), ("tuned", ["--config", str(config)])):
        out = tmp_path / name
        assert main(extra + ["eval", "--gold", str(gold_path), "--system",
                             str(system_path), "--out", str(out)]) == 0
        records += (out / "per_sentence.jsonl").read_bytes()
    return records


def test_eval_records_match_golden_digest(tmp_path):
    digest = hashlib.sha256(eval_records(tmp_path)).hexdigest()
    assert digest == GOLDEN.read_text("utf-8").strip()


def test_golden_corpus_covers_the_hostile_cases(tmp_path):
    records = [json.loads(line) for line in
               eval_records(tmp_path).decode("utf-8").splitlines()]
    classes = {i["class"] for r in records for i in r["flexud"]["issues"]}
    assert classes == {"MissingDottedMwe", "ReparandumMisattached",
                       "InvalidHeadPersisting", "MultipleRootsOrCycle",
                       "TolerantUposSubstitution", "NearMissDeprel",
                       "MinorMismatch"}
    assert any(r["flexud"]["split"] < 100 for r in records)
    golds, systems = corpus()
    grandparent_heads = 0
    for gold, system in zip(golds, systems):
        gold_by_id = gold.token_index()
        for token in system.tokens:
            twin = gold_by_id.get(token.id)
            parent = gold_by_id.get(twin.head) if twin else None
            grandparent_heads += (parent is not None and token.head is not None
                                  and token.head == parent.head)
    assert grandparent_heads > 20
