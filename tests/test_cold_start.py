"""What the program loads at start-up, each check in a fresh interpreter.

``eval``, ``validate`` and ``report`` never check a stage schema, hash a
request or start a worker pool, so importing the command line and running
them loads neither ``jsonschema``'s code, nor ``hashlib``, nor the thread
pool. ``parse`` still loads ``jsonschema`` on its first schema check, and
that first load is safe when several worker threads make it at once.
"""

import json
import subprocess
import sys
from pathlib import Path

from spokenud.pipeline import agents
from spokenud.pipeline.prompts import STAGES

SRC = Path(__file__).resolve().parents[1] / "src"
NOT_LOADED = ("jsonschema.validators", "jsonschema.exceptions", "hashlib", "_hashlib",
              "concurrent.futures")
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
    checkout; ``code`` leaves a JSON-serialisable ``result``, returned here."""
    script = (f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
              "print(json.dumps(result))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = f"[name for name in {NOT_LOADED!r} if name in sys.modules]"


def test_importing_the_command_line_loads_none_of_them():
    assert run_fresh(f"import spokenud.cli\nresult = {LOADED}") == []


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
    result.append([argv[0], code, {LOADED}])
""")
    assert result == [["eval", 0, []], ["validate", 0, []], ["report", 0, []]]
    assert (tmp_path / "report" / "flexud_by_category.md").is_file()


def test_a_replay_parse_still_checks_the_stage_schemas(
        tmp_path, replay_dir, pipeline_manifest_path):
    entry = pipeline_manifest_path.read_text(encoding="utf-8").splitlines()[1]
    category = json.loads(entry)["category"]
    (tmp_path / "one.jsonl").write_text(
        json.dumps({"category_counts": {category: 1}}) + "\n" + entry + "\n",
        encoding="utf-8")
    argv = ["parse", "--manifest", str(tmp_path / "one.jsonl"), "--out",
            str(tmp_path / "out"), "--backend-mode", "replay", "--replay-dir",
            str(replay_dir)]
    result = run_fresh(f"""
import contextlib, io
from spokenud import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
result = [code, "jsonschema.validators" in sys.modules]
""")
    assert result == [0, True]
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
