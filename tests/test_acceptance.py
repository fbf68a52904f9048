"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import json
import random
import re
import time
from decimal import Decimal, ROUND_HALF_UP, localcontext
from pathlib import Path

from spokenud.cli import main as cli_main
from spokenud.core import validate_tree
from spokenud.flexud import (
    CATASTROPHIC_CLASSES,
    ComponentScores,
    PenaltySchedule,
    SeverityReport,
    Weights,
    align_tokens,
    component_scores,
    detect_severity,
    evaluate_sentence,
    flexud_final,
)
from spokenud.ioformats import emit_conllu, emit_sheet, load_manifest, parse_conllu, parse_sheet
from spokenud.metrics import attachment_scores
from spokenud.pipeline import (
    apply_integer_shift,
    build_id_map,
    finalize,
    induced_sentence,
)

from gen import random_sentence
from pipeline_helpers import adversarial_envelopes, sheet_rows
from test_flexud import _perturb, simple, ten_token_pair

DATA = Path(__file__).parent / "data"
GOLD = DATA / "gold" / "fixture_corpus.conllu"


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:2d} PASS: {text}")


def test_criterion_1_aggregation_law_matches_independent_oracle():
    def oracle(weights, scores, p):
        with localcontext() as ctx:
            ctx.prec = 80
            raw = sum(Decimal(str(w)) * s for w, s in zip(weights, scores))
            scaled = raw * (1 - Decimal(str(p)))
            return int(scaled.quantize(Decimal("1"), rounding=ROUND_HALF_UP))

    rng = random.Random(20250101)
    start = time.monotonic()
    checked = 0
    while checked < 1000:
        parts = [rng.randint(1, 1000) for _ in range(5)]
        total = sum(parts)
        weights = [round(p / total, 6) for p in parts[:4]]
        weights.append(round(1.0 - sum(weights), 6))
        if min(weights) < 0:
            continue
        scores = tuple(rng.randint(1, 100) for _ in range(5))
        p = round(rng.random() * 0.95, 4)
        flex = flexud_final(ComponentScores(*scores), Weights(*weights),
                            SeverityReport((), p))
        assert flex.final == oracle(weights, scores, p), \
            f"final mismatch for weights={weights} scores={scores} P={p}"
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"aggregation check took {elapsed:.2f}s (limit 1s)"
    report(1, f"final == round(sum(w*s) * (1-P)) on 1000 randomized instances "
              f"per the independent decimal oracle ({elapsed:.2f}s)")


def test_criterion_2_penalty_contributions_within_published_ranges():
    rng = random.Random(4242)
    issues_seen = 0
    for i in range(400):
        gold = random_sentence(rng, f"p{i}")
        system = _perturb(rng, gold)
        severity = detect_severity(gold, system, align_tokens(gold, system))
        assert 0.0 <= severity.P <= 0.95
        for issue in severity.issues:
            issues_seen += 1
            if issue.issue_class in CATASTROPHIC_CLASSES:
                assert 0.25 <= issue.contribution <= 0.6, issue
            else:
                assert 0.01 <= issue.contribution <= 0.05, issue
    assert issues_seen > 500, "fuzz corpus produced too few issues to be meaningful"
    for bad in (dict(missing_dotted_mwe=0.61), dict(reparandum_misattached=0.24),
                dict(minor_mismatch=0.06), dict(near_miss_deprel=0.001)):
        try:
            PenaltySchedule(**bad)
            raise AssertionError(f"schedule accepted out-of-band value {bad}")
        except ValueError:
            pass
    report(2, f"catastrophic contributions in [0.25,0.6], minor in [0.01,0.05], "
              f"P <= 0.95 over {issues_seen} flagged issues")


def test_criterion_3_self_evaluation_identity_on_fixture_corpus():
    sentences = parse_conllu(GOLD.read_text("utf-8"))
    assert len(sentences) >= 30
    for sentence in sentences:
        scores = attachment_scores(sentence, sentence,
                                   align_tokens(sentence, sentence))
        assert (scores.las, scores.uas, scores.clas, scores.upos_acc) == \
            (1.0, 1.0, 1.0, 1.0), sentence.sentence_id
        flex = evaluate_sentence(sentence, sentence)
        assert flex.final == 100 and flex.severity.P == 0.0, sentence.sentence_id
    report(3, f"gold vs itself gives LAS=UAS=CLAS=UPOS-acc=1.0 and final=100 "
              f"on all {len(sentences)} fixture sentences")


def test_criterion_4_tolerance_fixtures_reproduce_hand_computed_scores():
    gold, system = ten_token_pair(system_upos_change=(3, "AUX"))
    scores = component_scores(gold, system, align_tokens(gold, system))
    assert scores.s_upos == 98  # round(100 * (9 + 0.8) / 10)

    gold = simple(["a", "b", "c", "d"], [0, 1, 1, 1],
                  ["root", "obl", "nsubj", "advmod"])
    system = simple(["a", "b", "c", "d"], [0, 1, 1, 1],
                    ["root", "obj", "nsubj", "advmod"])
    scores = component_scores(gold, system, align_tokens(gold, system))
    assert scores.s_deprel == 95  # round(100 * (3 + 0.8) / 4)
    report(4, "VERB<->AUX fixture scores 98 and obj<->obl fixture scores 95")


def test_criterion_5_structural_guarantee_under_adversarial_fuzz():
    rng = random.Random(987654321)
    start = time.monotonic()
    total_repairs = 0
    for i in range(10_000):
        sph, lsr, core = adversarial_envelopes(rng, f"fz{i}")
        parse = finalize(sph, lsr, core)  # must never raise
        ok = validate_tree(induced_sentence(parse)).ok
        assert ok, f"case {i}: finalized parse fails validation"
        repair_lines = [l for l in parse.adjudication_log
                        if l.startswith("repair[")]
        declared = int(re.search(r"(\d+) structural repairs",
                                 parse.final_summary).group(1))
        assert len(repair_lines) == declared, \
            f"case {i}: {declared} repairs but {len(repair_lines)} log entries"
        total_repairs += declared
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"fuzz took {elapsed:.1f}s (limit 30s)"
    report(5, f"10,000 adversarial cases all valid with one log entry per "
              f"repair ({total_repairs} repairs, {elapsed:.1f}s)")


def test_criterion_6_integer_shift_contiguity_and_fixtures():
    from spokenud.core import NodeId
    from spokenud.pipeline.envelopes import PipelineToken

    def toks(*forms):
        return tuple(PipelineToken(proposed_id=NodeId(i), orig_token_index=i,
                                   split_token=form)
                     for i, form in enumerate(forms, start=1))

    rng = random.Random(31337)
    for _ in range(1000):
        n = rng.randint(2, 8)
        tokens = toks(*[f"w{i}" for i in range(1, n + 1)])
        for _ in range(rng.randint(1, 4)):
            integers = [t for t in tokens if not t.proposed_id.is_dotted]
            target = rng.choice(integers)
            parts = [f"{target.split_token}{j}" for j in range(rng.randint(2, 3))]
            tokens, _ = apply_integer_shift(tokens, target.orig_token_index, parts)
        majors = [t.proposed_id.major for t in tokens]
        assert majors == list(range(1, len(tokens) + 1))
        id_map = build_id_map(tokens)
        mapped = [node for ids in id_map.values() for node in ids]
        assert len(mapped) == len(set(mapped)) == len(tokens)
        assert set(id_map) == set(range(1, n + 1))

    tokens, id_map = apply_integer_shift(toks("I", "don't", "know"), 2,
                                         ["do", "not"])
    assert [t.split_token for t in tokens] == ["I", "do", "not", "know"]
    assert id_map[2] == (NodeId(2), NodeId(3))
    tokens, id_map = apply_integer_shift(toks("vengo", "del", "hoy"), 2,
                                         ["de", "el"])
    assert [t.split_token for t in tokens] == ["vengo", "de", "el", "hoy"]
    assert id_map[2] == (NodeId(2), NodeId(3))
    report(6, "1000 random split sequences keep integer ids contiguous with a "
              "bijective id map; don't/del fixtures match")


def test_criterion_7_replay_determinism_across_runs_and_workers(
        tmp_path, replay_dir, pipeline_manifest_path):
    manifest = load_manifest(pipeline_manifest_path)
    gold_file = tmp_path / "gold.conllu"
    gold_file.write_text(emit_conllu([e.gold for e in manifest.entries]),
                         encoding="utf-8")
    blobs = []
    for run_index in (1, 2):
        for workers in (1, 4):
            out = tmp_path / f"p{run_index}w{workers}"
            code = cli_main(["parse", "--manifest", str(pipeline_manifest_path),
                             "--out", str(out), "--backend-mode", "replay",
                             "--replay-dir", str(replay_dir),
                             "--workers", str(workers)])
            assert code == 0
            eval_out = tmp_path / f"e{run_index}w{workers}"
            code = cli_main(["eval", "--gold", str(gold_file),
                             "--system", str(out / "parses.conllu"),
                             "--out", str(eval_out)])
            assert code == 0
            blob = b""
            for name in ("parses.conllu", "parses.sheet.tsv", "failures.jsonl",
                         "adjudication.log"):
                blob += (out / name).read_bytes()
            for name in ("per_sentence.jsonl", "standard_by_category.md",
                         "standard_by_category.csv", "flexud_by_category.md",
                         "flexud_by_category.csv"):
                blob += (eval_out / name).read_bytes()
            blobs.append(blob)
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
    report(7, "two replay-mode parse+eval runs are byte-identical and "
              "independent of worker count in {1, 4}")


def test_criterion_8_round_trip_500_random_sentences_both_formats():
    rng = random.Random(20240817)
    for i in range(500):
        sentence = random_sentence(rng, f"rt{i}")
        [back] = parse_conllu(emit_conllu([sentence]))
        assert back == sentence, f"conllu round-trip failed on {i}"
    rng = random.Random(91)
    for i in range(500):
        sentence = random_sentence(rng, f"st{i}", sheet_compatible=True)
        [back] = parse_sheet(emit_sheet([sentence]))
        assert back == sentence, f"sheet round-trip failed on {i}"
    report(8, "parse(emit(x)) == x for 500 random sentences in each format")


def test_criterion_9_report_shape_matches_golden_files(tmp_path):
    out = tmp_path / "eval"
    code = cli_main(["eval", "--gold", str(GOLD), "--system", str(GOLD),
                     "--by-category", "--out", str(out)])
    assert code == 0
    for name in ("standard_by_category.md", "standard_by_category.csv",
                 "flexud_by_category.md", "flexud_by_category.csv"):
        produced = (out / name).read_text("utf-8")
        golden = (DATA / "golden" / name).read_text("utf-8")
        assert produced == golden, f"{name} deviates from the golden file"
    standard = (out / "standard_by_category.md").read_text("utf-8").splitlines()
    assert standard[0] == "| Category | LAS | UAS | CLAS | U-LAS |"
    labels = [line.split("|")[1].strip() for line in standard[2:]]
    assert labels[-2:] == ["None", "Overall"]
    flex = (out / "flexud_by_category.md").read_text("utf-8").splitlines()
    assert flex[0] == "| Category | ID | UPOS | HEAD | DEPREL | Final |"
    report(9, "rendered tables match the golden files: LAS/UAS/CLAS/U-LAS and "
              "ID/UPOS/HEAD/DEPREL/Final with categories ending None, Overall")


def test_criterion_10_end_to_end_replay_of_the_walkthrough_sentence(
        replay_dir, pipeline_manifest_path):
    from spokenud.backends import make_backend
    from spokenud.config import load_config
    from spokenud.ioformats import manifest_entry_to_input_sentence
    from spokenud.pipeline import SentenceFailure, parse_sentence

    config = load_config().with_backend(mode="replay",
                                        replay_dir=str(replay_dir))
    backend = make_backend(config.backend)
    manifest = load_manifest(pipeline_manifest_path)
    entry = next(e for e in manifest.entries if e.sentence_id == "fig2")
    parse = parse_sentence(manifest_entry_to_input_sentence(entry),
                           backend, config)
    assert not isinstance(parse, SentenceFailure)
    reparanda = [row.split_token for row in sheet_rows(parse)
                 if row.deprel == "reparandum"]
    assert reparanda == ["I", "will", "not"]  # the repeated segment
    fillers = [row for row in sheet_rows(parse) if row.split_token == "uh"]
    assert fillers[0].deprel == "discourse" and fillers[0].upos == "INTJ"
    roots = [row for row in sheet_rows(parse) if row.head_id == "0"]
    assert len(roots) == 1 and roots[0].split_token == "buy"
    assert validate_tree(induced_sentence(parse)).ok
    report(10, "walkthrough sentence replays to reparandum on the repeated "
               "segment, discourse on the filler, and a single root")
