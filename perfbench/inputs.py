"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives
byte-identical inputs. The program under test only ever sees the generated
files, never this module.

Parse corpora tile the three recorded fixtures (``del1`` contraction,
``disc1`` dotted MWE, ``fig2`` repairs and filler) into sentences with unique
ids; a fixed share of them answers one stage with an invalid first response.
Eval corpora pair generated gold sentences (repairs, fillers, dotted MWEs,
contractions) with system sentences that carry seeded perturbations.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from spokenud.core import ROOT, Category, NodeId, Sentence, Token

# --- parse corpora -----------------------------------------------------------

FIXTURES = ("del1", "disc1", "fig2")
STAGES = ("sph", "lsr", "core")
RETRY_KINDS = ("not_json", "schema", "semantic")
PARSE_SIZE = 60


@dataclass(frozen=True)
class ParseCorpus:
    fixture_of: dict      # sentence id -> fixture name, in id order
    retries: dict         # sentence id -> (stage, kind) of its invalid response

    def counts(self) -> dict:
        out = {f"fixture.{name}": 0 for name in FIXTURES}
        for name in self.fixture_of.values():
            out[f"fixture.{name}"] += 1
        for stage, kind in self.retries.values():
            out[f"retry.{stage}"] = out.get(f"retry.{stage}", 0) + 1
            out[f"retry.{kind}"] = out.get(f"retry.{kind}", 0) + 1
        return out


def parse_corpus(seed: int) -> ParseCorpus:
    """Tile the fixtures evenly and pick the sentences that need a retry.

    Every fixture gets three retry sentences, one per stage and one per kind
    of invalid response, so the work per corpus does not depend on the seed.
    That share (9 of 60) is set for coverage of every stage and kind on every
    fixture; it is not a retry rate measured on a live model.
    """
    rng = random.Random(f"parse:{seed}")
    names = [name for name in FIXTURES for _ in range(PARSE_SIZE // len(FIXTURES))]
    rng.shuffle(names)
    fixture_of = {f"s{i:05d}": name for i, name in enumerate(names, start=1)}
    retries = {}
    for row, fixture in enumerate(FIXTURES):
        candidates = sorted(s for s, f in fixture_of.items() if f == fixture)
        chosen = rng.sample(candidates, len(RETRY_KINDS))
        for j, sid in zip(rng.sample(range(len(RETRY_KINDS)), len(RETRY_KINDS)), chosen):
            retries[sid] = (STAGES[(row + j) % len(STAGES)], RETRY_KINDS[j])
    return ParseCorpus(fixture_of, dict(sorted(retries.items())))


def _invalid_response(kind: str, obj: dict) -> str:
    if kind == "not_json":
        return "Sorry, here is my analysis of the sentence."
    if kind == "schema":
        return json.dumps({k: v for k, v in obj.items() if k != "sentence_id"},
                          ensure_ascii=False)
    return json.dumps(dict(obj, sentence_id=obj["sentence_id"] + "x"),
                      ensure_ascii=False)


def stage_responses(corpus: ParseCorpus, fixture_raw: dict) -> dict:
    """Request key -> raw model response for every stage call of the corpus.

    ``fixture_raw`` maps (fixture, stage) to the recorded response text. A
    retry sentence answers its stage first with an invalid response and then,
    under the ``.retry1`` key, with the valid one.
    """
    table = {}
    for sid, fixture in corpus.fixture_of.items():
        for stage in STAGES:
            obj = json.loads(fixture_raw[fixture, stage])
            obj["sentence_id"] = sid
            valid = json.dumps(obj, ensure_ascii=False)
            if corpus.retries.get(sid, (None,))[0] == stage:
                table[f"{sid}.{stage}"] = _invalid_response(corpus.retries[sid][1], obj)
                table[f"{sid}.{stage}.retry1"] = valid
            else:
                table[f"{sid}.{stage}"] = valid
    return table


# --- eval corpora ------------------------------------------------------------

PRONOUNS = (("I", "eng"), ("you", "eng"), ("she", "eng"), ("we", "eng"),
            ("yo", "spa"), ("ella", "spa"))
VERBS = (("buy", "eng"), ("want", "eng"), ("need", "eng"),
         ("compro", "spa"), ("quiero", "spa"), ("vengo", "spa"))
NOUNS = (("bread", "eng"), ("market", "eng"), ("house", "eng"),
         ("mercado", "spa"), ("casa", "spa"), ("escuela", "spa"))
DETS = (("the", "eng"), ("a", "eng"), ("la", "spa"), ("el", "spa"))
ADPS = (("to", "eng"), ("in", "eng"), ("en", "spa"), ("con", "spa"))
ADVS = (("then", "eng"), ("now", "eng"), ("really", "eng"),
        ("entonces", "spa"), ("ahora", "spa"))
FILLERS = ("uh", "um", "eh")
EXTRAS = ("like", "so", "well")
# Dotted MWEs from the shipped whitelist: parts, UPOS, DEPREL.
MWES = ((("you", "know"), "INTJ", "discourse"), (("a", "lot"), "ADV", "advmod"),
        (("pitta", "bread"), "NOUN", "obj"), (("swimming", "pool"), "NOUN", "obl"))
CONTRACTIONS_ES = (("del", ("de", "el")), ("al", ("a", "el")))
CONTRACTIONS_EN = (("won't", ("will", "not")), ("can't", ("can", "not")))

# Chunk kind -> integer rows it adds; features mark the spoken phenomena.
CHUNK_ROWS = {"subj": 1, "obj": 2, "pp": 2, "adv": 1, "filler": 1, "mwe": 2,
              "contr_es": 3, "contr_en": 2, "repair": 2, "repair_obj": 3}
FEATURE_CHUNKS = ("filler", "mwe", "contr_es", "contr_en", "repair", "repair_obj")
PLAIN_CHUNKS = ("subj", "obj", "pp", "adv")

PERTURBATIONS = ("split", "merge", "drop", "extra", "drop_mwe",
                 "upos_tolerant", "upos_intolerant", "deprel_tolerant",
                 "deprel_intolerant", "reparandum_misattach", "extra_root",
                 "cycle")
STRUCTURAL = PERTURBATIONS[:5]
UPOS_SWAP = {"VERB": "AUX", "AUX": "VERB", "DET": "PRON", "PRON": "DET",
             "PROPN": "NOUN", "NOUN": "PROPN"}
DEPREL_SWAP = {"obj": "obl", "obl": "obj", "advmod": "discourse",
               "discourse": "advmod"}

# Profile -> sentence lengths in integer rows (dealt evenly, then shuffled)
# and number of pairs.
EVAL_PROFILES = {
    "eval-short": {"lengths": tuple(range(4, 13)), "pairs": 810},
    "eval-long": {"lengths": (60,) * 12 + (200,) * 4, "pairs": 16},
}


class Node:
    """A row under construction; ``head`` and ``anchor`` point at nodes.

    ``role`` is plain, part (of a split contraction), comp (MWE component)
    or dotted; ``cont`` marks a row sharing the previous row's input token.
    """

    __slots__ = ("form", "lang", "upos", "deprel", "head", "role", "label",
                 "anchor", "cont", "orig")

    def __init__(self, form, lang, upos=None, deprel=None, head=None,
                 role="plain", label=None, anchor=None, cont=False):
        self.form, self.lang, self.upos, self.deprel = form, lang, upos, deprel
        self.head, self.role, self.label, self.anchor = head, role, label, anchor
        self.cont = cont
        self.orig = None


def _chunk(kind: str, rng: random.Random, root: Node) -> list[Node]:
    if kind == "subj":
        return [Node(*rng.choice(PRONOUNS), "PRON", "nsubj", root)]
    if kind in ("obj", "pp"):
        noun = Node(*rng.choice(NOUNS), "NOUN", "obj" if kind == "obj" else "obl", root)
        if kind == "obj":
            return [Node(*rng.choice(DETS), "DET", "det", noun), noun]
        return [Node(*rng.choice(ADPS), "ADP", "case", noun), noun]
    if kind == "adv":
        return [Node(*rng.choice(ADVS), "ADV", "advmod", root)]
    if kind == "filler":
        return [Node(rng.choice(FILLERS), "eng", "INTJ", "discourse", root,
                     label="filler")]
    if kind == "mwe":
        parts, upos, deprel = rng.choice(MWES)
        return [Node(parts[0], "eng", role="comp"),
                Node("_".join(parts), "eng", upos, deprel, root, role="dotted",
                     cont=True),
                Node(parts[1], "eng", role="comp")]
    if kind == "contr_es":
        _, (a, b) = rng.choice(CONTRACTIONS_ES)
        noun = Node(rng.choice([n for n, lang in NOUNS if lang == "spa"]), "spa",
                    "NOUN", "obl", root)
        return [Node(a, "spa", "ADP", "case", noun, role="part"),
                Node(b, "spa", "DET", "det", noun, role="part", cont=True), noun]
    if kind == "contr_en":
        _, (a, b) = rng.choice(CONTRACTIONS_EN)
        return [Node(a, "eng", "AUX", "aux", root, role="part"),
                Node(b, "eng", "PART", "advmod", root, role="part", cont=True)]
    if kind == "repair":
        form, lang = rng.choice(PRONOUNS)
        kept = Node(form, lang, "PRON", "nsubj", root)
        return [Node(form, lang, "PRON", "reparandum", kept, label="reparandum",
                     anchor=kept), kept]
    form, lang = rng.choice(NOUNS)
    kept = Node(form, lang, "NOUN", "obj", root)
    return [Node(*rng.choice(DETS), "DET", "det", kept),
            Node(form, lang, "NOUN", "reparandum", kept, label="reparandum",
                 anchor=kept), kept]


def _category(kinds: list[str]) -> Category:
    repairs = sum(k in ("repair", "repair_obj") for k in kinds)
    discourse = sum(k in ("filler", "mwe") for k in kinds)
    present = [name for name, hit in (
        ("repair", repairs), ("contr_es", "contr_es" in kinds),
        ("contr_en", "contr_en" in kinds), ("discourse", discourse)) if hit]
    if len(present) >= 3:
        return Category.HIGHLY_COMPLEX
    if not present:
        return Category.NONE
    first = present[0]
    if first == "repair":
        return Category.SIMPLE_REPETITION if repairs == 1 else Category.COMPLEX_REPETITION
    if first == "contr_es":
        return Category.CONTRACTION_ES
    if first == "contr_en":
        return Category.CONTRACTION_EN
    return Category.SIMPLE_DISCOURSE if discourse == 1 else Category.COMPLEX_DISCOURSE


def _gold_nodes(rng: random.Random, length: int) -> tuple[list[Node], Node, Category]:
    """A single-rooted tree with exactly ``length`` integer rows."""
    root = Node(*rng.choice(VERBS), "VERB", "root", ROOT)
    chunks, kinds = [], []
    remaining = length - 1
    while remaining:
        pool = FEATURE_CHUNKS if rng.random() < 0.5 else PLAIN_CHUNKS
        fits = [k for k in pool if CHUNK_ROWS[k] <= remaining] or ["adv"]
        kind = rng.choice(fits)
        chunks.append(_chunk(kind, rng, root))
        kinds.append(kind)
        remaining -= CHUNK_ROWS[kind]
    rng.shuffle(chunks)
    chunks.insert(rng.randint(0, len(chunks)), [root])
    nodes = [node for chunk in chunks for node in chunk]
    index = 0
    for node in nodes:
        if not node.cont:
            index += 1
        node.orig = index
    return nodes, root, _category(kinds)


def _copy(nodes: list[Node], root: Node) -> tuple[list[Node], Node]:
    twin = {}
    for node in nodes:
        new = Node(node.form, node.lang, node.upos, node.deprel, node.head,
                   node.role, node.label, node.anchor, node.cont)
        new.orig = node.orig
        twin[node] = new
    for new in twin.values():
        new.head = twin.get(new.head, new.head)
        new.anchor = twin.get(new.anchor, new.anchor)
    return [twin[n] for n in nodes], twin[root]


def _redirect(nodes: list[Node], old: Node, new: Node | None) -> None:
    for node in nodes:
        if node.head is old:
            node.head = new
        if node.anchor is old:
            node.anchor = None if new is None else new


def _perturb(kind: str, rng: random.Random, nodes: list[Node], root: Node) -> bool:
    """Apply one perturbation in place; False when the sentence has no site."""
    annotated = [n for n in nodes if n.upos is not None]
    if kind == "split":
        sites = [n for n in nodes if n.role == "plain" and len(n.form) >= 4]
        if not sites:
            return False
        node = rng.choice(sites)
        cut = rng.randint(2, len(node.form) - 2)
        tail = Node(node.form[cut:], node.lang, node.upos, "goeswith", node)
        tail.orig, node.form = node.orig, node.form[:cut]
        nodes.insert(nodes.index(node) + 1, tail)
        return True
    if kind == "merge":
        sites = [i for i in range(len(nodes) - 1)
                 if {nodes[i].role, nodes[i + 1].role} <= {"plain", "part"}]
        if not sites:
            return False
        i = rng.choice(sites)
        a, b = nodes[i], nodes[i + 1]
        keep = root if root in (a, b) else (b if a.head is b else a)
        other = b if keep is a else a
        if a.role == b.role == "part" and b.cont:
            pair = CONTRACTIONS_ES + CONTRACTIONS_EN
            keep.form = next(s for s, parts in pair if parts == (a.form, b.form))
        else:
            keep.form = a.form + b.form
        keep.role, keep.cont, keep.orig = "plain", False, a.orig
        nodes.remove(other)
        _redirect(nodes, other, keep)
        if keep.head is keep:
            keep.head = ROOT
        return True
    if kind == "drop":
        heads = {id(n.head) for n in nodes}
        sites = [n for n in annotated if n.role == "plain" and n is not root
                 and id(n) not in heads]
        if not sites:
            return False
        node = rng.choice(sites)
        nodes.remove(node)
        _redirect(nodes, node, None)
        return True
    if kind == "extra":
        sites = [p for p in range(len(nodes) + 1)
                 if p == len(nodes) or not (nodes[p].cont or nodes[p].role == "comp"
                                             and p > 0 and nodes[p - 1].role == "dotted")]
        nodes.insert(rng.choice(sites),
                     Node(rng.choice(EXTRAS), "eng", "INTJ", "discourse", root))
        return True
    if kind == "drop_mwe":
        sites = [i for i, n in enumerate(nodes) if n.role == "dotted"]
        if not sites:
            return False
        i = rng.choice(sites)
        first, dotted, second = nodes[i - 1], nodes[i], nodes[i + 1]
        first.upos, first.deprel, first.head = dotted.upos, dotted.deprel, dotted.head
        second.upos, second.deprel, second.head = "PART", "fixed", first
        first.role = second.role = "plain"
        nodes.remove(dotted)
        _redirect(nodes, dotted, first)
        return True
    if kind == "upos_tolerant":
        sites = [n for n in annotated if n.upos in UPOS_SWAP]
        if sites:
            node = rng.choice(sites)
            node.upos = UPOS_SWAP[node.upos]
        return bool(sites)
    if kind == "upos_intolerant":
        sites = [n for n in annotated if n.upos != "X"]
        if sites:
            rng.choice(sites).upos = "X"
        return bool(sites)
    if kind == "deprel_tolerant":
        sites = [n for n in annotated if n.deprel in DEPREL_SWAP]
        if sites:
            node = rng.choice(sites)
            node.deprel = DEPREL_SWAP[node.deprel]
        return bool(sites)
    if kind == "deprel_intolerant":
        sites = [n for n in annotated if n.deprel not in ("root", "dep")]
        if sites:
            rng.choice(sites).deprel = "dep"
        return bool(sites)
    if kind == "reparandum_misattach":
        sites = [n for n in annotated if n.deprel == "reparandum"
                 and isinstance(n.head, Node) and n.head is not root]
        if sites:
            rng.choice(sites).head = root
        return bool(sites)
    if kind == "extra_root":
        sites = [n for n in annotated if isinstance(n.head, Node)]
        if sites:
            rng.choice(sites).head = ROOT
        return bool(sites)
    # cycle: a -> h -> a, where h was attached below the root
    sites = [n for n in annotated if isinstance(n.head, Node)
             and isinstance(n.head.head, Node) and n.head.head is not n]
    if sites:
        node = rng.choice(sites)
        node.head.head = node
    return bool(sites)


def _sentence(nodes: list[Node], sid: str, category: Category | None) -> Sentence:
    ids, major = {}, 0
    for node in nodes:
        if node.role == "dotted":
            ids[node] = NodeId(major, 1)
        else:
            major += 1
            ids[node] = NodeId(major)
    tokens = []
    for node in nodes:
        head = node.head if node.head is ROOT or node.head is None else ids[node.head]
        tokens.append(Token(
            id=ids[node], form=node.form, orig_token_index=node.orig,
            lemma=None if node.upos is None else node.form.lower(),
            upos=node.upos, head=head, deprel=node.deprel, lang_tag=node.lang,
            spoken_label=node.label,
            spoken_anchor=ids.get(node.anchor) if node.anchor else None))
    return Sentence(sentence_id=sid, tokens=tuple(tokens), category=category)


class _Deck:
    """Perturbation kinds dealt in shuffled rounds, so counts stay balanced."""

    def __init__(self, rng: random.Random, kinds: tuple[str, ...]):
        self.rng, self.kinds, self.cards = rng, kinds, []

    def deal(self) -> str:
        if not self.cards:
            self.cards = list(self.kinds)
            self.rng.shuffle(self.cards)
        return self.cards.pop()


@dataclass(frozen=True)
class EvalCorpus:
    gold: list
    system: list
    perturbations: dict   # kind -> times applied

    def sizes(self) -> dict:
        return {"pairs": len(self.gold),
                "gold_rows": sum(len(s.tokens) for s in self.gold),
                "system_rows": sum(len(s.tokens) for s in self.system)}


def eval_corpus(profile: str, seed: int) -> EvalCorpus:
    """Gold/system pairs for an eval workload.

    eval-short: 0, 1 or 2 perturbations per pair, in turn. eval-long: one
    perturbation per 20 rows, every other one structural (changing the
    token sequence), so no pair is wholly identical.
    """
    spec = EVAL_PROFILES[profile]
    rng = random.Random(f"{profile}:{seed}")
    lengths = [spec["lengths"][i % len(spec["lengths"])] for i in range(spec["pairs"])]
    rng.shuffle(lengths)
    any_deck = _Deck(rng, PERTURBATIONS)
    structural_deck = _Deck(rng, STRUCTURAL)
    counts = dict.fromkeys(PERTURBATIONS, 0)
    gold, system = [], []
    for i, length in enumerate(lengths):
        sid = f"u{i + 1:05d}"
        nodes, root, category = _gold_nodes(rng, length)
        gold.append(_sentence(nodes, sid, category))
        nodes, root = _copy(nodes, root)
        slots = i % 3 if profile == "eval-short" else length // 20
        for slot in range(slots):
            deck = structural_deck if profile == "eval-long" and slot % 2 == 0 else any_deck
            for _ in range(len(deck.kinds)):
                kind = deck.deal()
                if _perturb(kind, rng, nodes, root):
                    counts[kind] += 1
                    break
        system.append(_sentence(nodes, sid, None))
    return EvalCorpus(gold, system, counts)
