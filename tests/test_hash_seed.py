"""Outputs do not depend on the hash seed.

Two fresh interpreters, started with ``PYTHONHASHSEED=0`` and ``=1``, build
the same set of node ids, hash ``NodeId(3)``, replay-parse the fixture
manifest and evaluate both the fixture corpus against itself and the
manifest's gold against those parses. Every result and every output byte
must be the same in both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from spokenud.ioformats import emit_conllu, load_manifest

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).parent / "data"
GOLD = DATA / "gold" / "fixture_corpus.conllu"
MANIFEST = DATA / "manifest" / "pipeline_fixtures.jsonl"

CHILD = """\
import json, sys
from spokenud.cli import main
from spokenud.core import NodeId
out, replay_dir, gold, manifest_gold, manifest = sys.argv[1:]
ids = {NodeId(major, minor) for major in range(1, 40) for minor in (None, 1, 2)}
assert main(["parse", "--manifest", manifest, "--out", f"{out}/parse",
             "--backend-mode", "replay", "--replay-dir", replay_dir]) == 0
assert main(["eval", "--gold", manifest_gold, "--system", f"{out}/parse/parses.conllu",
             "--out", f"{out}/eval-parse"]) == 0
assert main(["eval", "--gold", gold, "--system", gold, "--by-category",
             "--out", f"{out}/eval-fixture"]) == 0
print(json.dumps([[str(node) for node in ids], hash(NodeId(3))]))
"""


def outputs(directory: Path) -> dict:
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def test_two_hash_seeds_give_the_same_set_order_hash_and_output_bytes(tmp_path, replay_dir):
    manifest_gold = tmp_path / "manifest_gold.conllu"
    manifest_gold.write_text(emit_conllu([e.gold for e in load_manifest(MANIFEST).entries]),
                             encoding="utf-8")
    children = {}
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
        args = [str(out), str(replay_dir), str(GOLD), str(manifest_gold), str(MANIFEST)]
        children[seed] = (out, subprocess.Popen(
            [sys.executable, "-c", CHILD, *args], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    results = {}
    for seed, (out, child) in children.items():
        stdout, stderr = child.communicate(timeout=60)
        assert child.returncode == 0, stderr
        results[seed] = (json.loads(stdout.splitlines()[-1]), outputs(out))
    (ids0, files0), (ids1, files1) = results["0"], results["1"]
    assert ids0 == ids1
    assert {"parse/parses.conllu", "eval-parse/per_sentence.jsonl",
            "eval-fixture/flexud_by_category.md"} <= set(files0)
    assert files0 == files1
