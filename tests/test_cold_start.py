"""What the program loads at start-up, each check in a fresh interpreter.

``eval``, ``validate`` and ``report`` never check a stage schema, hash a
request, start a worker pool, open an HTTP connection or read a config
file, so importing the command line and running them loads neither
``jsonschema``'s code, nor ``hashlib``, nor the thread pool, nor the HTTP
client, nor PyYAML. ``parse`` checks stage schemas and words their refusals
without loading ``jsonschema``'s code either, and its first check is safe
when several worker threads make it at once.

Beyond that deny-list, each case pins the exact set of non-stdlib top-level
modules it adds over the interpreter's own start-up set (which may already
hold modules that a ``.pth`` file imports): ``spokenud`` and the lazy
``jsonschema`` binding, whose code never runs; with ``--config``, PyYAML's.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spokenud.backends import ReplayStore, StubBackend, request_fingerprint
from spokenud.config import load_config
from spokenud.ioformats import load_manifest, manifest_entry_to_input_sentence
from spokenud.pipeline import agents, parse_sentence
from spokenud.pipeline.prompts import STAGES

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).parent / "data"
SHIPPED_CONFIG = SRC / "spokenud" / "data" / "default_config.yaml"
NOT_LOADED = ("jsonschema.validators", "jsonschema.exceptions", "hashlib", "_hashlib",
              "concurrent.futures", "http.client", "urllib.request", "yaml")
OWN = ["jsonschema", "spokenud"]
GOLD = """\
# sent_id = s1
# category = simple-repetition
1\tI\tI\tPRON\t_\t_\t2\treparandum\t_\tLang=eng
2\tI\tI\tPRON\t_\t_\t3\tnsubj\t_\tLang=eng
3\tlike\tlike\tVERB\t_\t_\t0\troot\t_\tLang=eng
4\tit\tit\tPRON\t_\t_\t3\tobj\t_\tLang=eng

"""


def run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports spokenud from this
    checkout; ``code`` leaves a JSON-serialisable ``result``, returned here.
    ``START`` holds the top-level modules loaded before ``code`` runs."""
    script = ("import json, sys\nSTART = {name.partition('.')[0] for name in sys.modules}\n"
              f"sys.path.insert(0, {str(SRC)!r})\n{code}\nprint(json.dumps(result))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = f"[name for name in {NOT_LOADED!r} if name in sys.modules]"
# The non-stdlib top-level modules loaded since start-up.
ADDED = ("sorted({name.partition('.')[0] for name in sys.modules} - START"
         " - set(sys.stdlib_module_names))")


def test_importing_the_command_line_loads_none_of_them():
    result = run_fresh(f"""
import spokenud.cli
from spokenud.config import load_config
load_config()
result = [{LOADED}, {ADDED}]
""")
    assert result == [[], OWN]


def test_a_config_file_adds_only_pyyaml(tmp_path):
    """``--config`` with the shipped document loads PyYAML's modules (as
    importing ``yaml`` alone loads them here) and no others, and gives the
    default configuration."""
    (tmp_path / "gold.conllu").write_text(GOLD, encoding="utf-8")
    pyyaml = run_fresh(f"import yaml\nresult = {ADDED}")
    assert "yaml" in pyyaml
    result = run_fresh(f"""
import contextlib, io, os
os.chdir({str(tmp_path)!r})
from spokenud import cli
from spokenud.config import ToolkitConfig, load_config
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["--config", {str(SHIPPED_CONFIG)!r}, "validate", "gold.conllu"])
result = [code, {ADDED}, load_config({str(SHIPPED_CONFIG)!r}) == ToolkitConfig()]
""")
    assert result == [0, sorted({*OWN, *pyyaml}), True]


def test_eval_validate_and_report_load_none_of_them(tmp_path):
    (tmp_path / "gold.conllu").write_text(GOLD, encoding="utf-8")
    commands = [
        ["eval", "--gold", "gold.conllu", "--system", "gold.conllu", "--by-category",
         "--out", "eval"],
        ["validate", "gold.conllu"],
        ["report", "--results", "eval/per_sentence.jsonl", "--out", "report"],
    ]
    result = run_fresh(f"""
import contextlib, io, os
os.chdir({str(tmp_path)!r})
from spokenud import cli
result = []
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    result.append([argv[0], code, {LOADED}, {ADDED}])
""")
    assert result == [["eval", 0, [], OWN], ["validate", 0, [], OWN], ["report", 0, [], OWN]]
    assert (tmp_path / "report" / "flexud_by_category.md").is_file()


def test_a_replay_parse_still_checks_the_stage_schemas(
        tmp_path, replay_dir, pipeline_manifest_path):
    """del1's first SPH answer lacks ``sentence_id``: the schema check refuses
    it, the retry prompt carries the violation worded in-house, and the
    replayed retry answer is found under that prompt's fingerprint, all
    without loading jsonschema's code."""
    entry = next(e for e in load_manifest(pipeline_manifest_path).entries
                 if e.sentence_id == "del1")
    directory = tmp_path / "replay"
    shutil.copytree(replay_dir, directory)
    store, config = ReplayStore(directory), load_config()

    def answer(system, user, key):
        raw = (DATA / "replay_scripts" / f"{key.removesuffix('.retry1')}.json").read_text("utf-8")
        if key == "del1.sph":
            raw = json.dumps({k: v for k, v in json.loads(raw).items() if k != "sentence_id"})
        store.save(key, request_fingerprint(system, user, config.backend.model_name), raw)
        return raw

    parse_sentence(manifest_entry_to_input_sentence(entry), StubBackend(script=answer), config)
    assert (directory / "del1.sph.retry1.json").is_file()
    line = pipeline_manifest_path.read_text(encoding="utf-8").splitlines()[1]
    assert json.loads(line)["sentence_id"] == "del1"
    (tmp_path / "one.jsonl").write_text(
        json.dumps({"category_counts": {json.loads(line)["category"]: 1}}) + "\n"
        + line + "\n", encoding="utf-8")
    argv = ["parse", "--manifest", str(tmp_path / "one.jsonl"), "--out",
            str(tmp_path / "out"), "--backend-mode", "replay", "--replay-dir",
            str(directory)]
    result = run_fresh(f"""
import contextlib, io
from spokenud import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
result = [code, {LOADED}, {ADDED}]
""")
    assert result == [0, ["hashlib", "_hashlib"], OWN]
    assert (tmp_path / "out" / "parses.conllu").read_text(encoding="utf-8").strip()


def test_first_schema_check_from_eight_threads_at_once():
    """Eight threads released together each make their process's first
    schema check, on a response each stage's schema refuses; every one
    returns the violation list a single thread gets."""
    invalid = {"sentence_id": "t1"}
    expected = {stage: agents._schema_violations(stage, invalid) for stage in STAGES}
    assert all(expected.values())
    result = run_fresh(f"""
import threading
from spokenud.pipeline import agents
assert "jsonschema.validators" not in sys.modules
sys.setswitchinterval(1e-6)
stages = [{list(STAGES)!r}[i % 3] for i in range(8)]
barrier = threading.Barrier(8)
result = [None] * 8

def check(i):
    barrier.wait()
    try:
        result[i] = agents._schema_violations(stages[i], {invalid!r})
    except Exception as err:
        result[i] = repr(err)

threads = [threading.Thread(target=check, args=(i,)) for i in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
    assert not thread.is_alive()
result = list(zip(stages, result))
""")
    assert result == [[stage, expected[stage]] for stage, _ in result]


def test_importing_without_jsonschema_fails_naming_it():
    result = run_fresh("""
sys.modules["jsonschema"] = None
try:
    import spokenud
except ModuleNotFoundError as err:
    result = err.name
""")
    assert result == "jsonschema"


def test_the_lazy_module_is_the_installed_jsonschema():
    import jsonschema

    assert agents.jsonschema is jsonschema is sys.modules["jsonschema"]
    assert agents.jsonschema.validators.validator_for is jsonschema.validators.validator_for
