"""Byte-level golden for finalize over the adversarial fuzz corpus.

The fuzz tests only check that every result is a valid tree; this one pins
the exact sheet rows, adjudication log and summary of 500 hostile cases, so
any change to the merge, span, cycle or redirect rules that alters a single
byte shows up. The digest was recorded before those rules were refactored.
"""

import hashlib
import random
from pathlib import Path

from spokenud.ioformats import format_sheet_row
from spokenud.pipeline import finalize

from pipeline_helpers import adversarial_envelopes, sheet_rows

GOLDEN = Path(__file__).parent / "data" / "golden" / "finalize_fuzz500.sha256"


def serialize_fuzz_corpus(cases: int = 500, seed: int = 8) -> str:
    rng = random.Random(seed)
    lines = []
    for i in range(cases):
        parse = finalize(*adversarial_envelopes(rng, f"fz{i}"))
        lines.extend(format_sheet_row(row) for row in sheet_rows(parse))
        lines.extend(f"log\t{line}" for line in parse.adjudication_log)
        lines.append(f"summary\t{parse.final_summary}")
    return "\n".join(lines) + "\n"


def test_finalize_fuzz_output_matches_golden_digest():
    digest = hashlib.sha256(serialize_fuzz_corpus().encode("utf-8")).hexdigest()
    assert digest == GOLDEN.read_text("utf-8").strip()
