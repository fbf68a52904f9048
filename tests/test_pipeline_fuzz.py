import random
import re

from spokenud.core import mwe_component_ids, validate_tree
from spokenud.pipeline import finalize, induced_sentence

from pipeline_helpers import (adversarial_envelopes, core_from, pitta_bread_anchor_case,
                              sheet_rows, sph_lsr)


def test_fuzz_smoke_500_cases():
    rng = random.Random(8)
    for i in range(500):
        sph, lsr, core = adversarial_envelopes(rng, f"fz{i}")
        parse = finalize(sph, lsr, core)
        report = validate_tree(induced_sentence(parse))
        assert report.ok, f"case {i}: {report.issues}"
        repair_lines = [l for l in parse.adjudication_log
                        if l.startswith("repair[")]
        total_repairs = int(re.search(r"(\d+) structural repairs",
                                      parse.final_summary).group(1))
        assert len(repair_lines) == total_repairs
        for row in sheet_rows(parse):
            if row.penalty > 0:
                assert row.adjudication_note, f"case {i}: repaired row lacks note"


def test_no_final_head_is_an_mwe_component_row():
    rng = random.Random(8)
    cases = [adversarial_envelopes(rng, f"fz{i}") for i in range(500)]
    for case in cases + [pitta_bread_anchor_case()]:
        sentence = induced_sentence(finalize(*case))
        components = mwe_component_ids(sentence)
        heads = {t.head for t in sentence.tokens}
        assert not heads & components, f"{sentence.sentence_id}: {heads & components}"


def test_authority_core_values_survive_merge_unless_overridden():
    rng = random.Random(21)
    for i in range(300):
        sph, lsr, core = adversarial_envelopes(rng, f"au{i}")
        parse = finalize(sph, lsr, core)
        core_by_id = {t.proposed_id: t for t in core.tokens}
        overridden = set()
        for line in parse.adjudication_log:
            match = re.search(r"(?:override|repair)\[[^\]]*\]:.*?of (\S+)", line)
            if match:
                overridden.add(match.group(1))
            match = re.search(r"(?:UPOS|DEPREL|HEAD) of (\S+)", line)
            if match:
                overridden.add(match.group(1))
        from spokenud.core import canonical_deprel
        for row in sheet_rows(parse):
            token = core_by_id.get(row.id)
            if token is None or row.form == "":
                continue
            if token.upos and str(row.id) not in overridden:
                assert row.upos == token.upos, f"case {i} row {row.id}"
            if (token.deprel and str(row.id) not in overridden
                    and row.deprel not in ("dep", "root")):
                assert row.deprel == canonical_deprel(token.deprel), \
                    f"case {i} row {row.id}"


def test_determinism_of_finalize():
    rng = random.Random(99)
    cases = [adversarial_envelopes(rng, f"d{i}") for i in range(50)]
    first = [finalize(*case) for case in cases]
    second = [finalize(*case) for case in cases]
    assert first == second
