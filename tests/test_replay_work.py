"""Work budgets for a replay ``spokenud parse`` that no clock can blur.

Spies count, per sentence, the stage calls (``ReplayBackend.complete``), the
replay files opened, the prompts rendered (``render_prompt``) and the
``finalize`` calls while ``cli.main(["parse", ...])`` replays the fixture
manifest, one of whose stages was recorded with one invalid first response.
A change that does less work lowers its budget in the same change.
"""

import builtins
import io
import shutil
from pathlib import Path

import pytest

from spokenud import cli
from spokenud.backends import ReplayBackend, ReplayStore, StubBackend, request_fingerprint
from spokenud.config import load_config
from spokenud.ioformats import load_manifest, manifest_entry_to_input_sentence
from spokenud.pipeline import agents, driver, parse_sentence

SCRIPTS = Path(__file__).parent / "data" / "replay_scripts"
RETRY = "fig2.lsr"  # answered "not JSON" first, then validly under fig2.lsr.retry1

# Per sentence; each bound is the count measured when it was set.
BUDGETS = {
    # measured 3, 3, 4: one call per stage, plus one for the retry
    "stage_calls": {"del1": 3, "disc1": 3, "fig2": 4},
    # measured 3, 3, 4: one record file per stage call
    "replay_opens": {"del1": 3, "disc1": 3, "fig2": 4},
    # measured 3 each: one per stage; a retry appends to the rendered prompt
    "prompt_renders": {"del1": 3, "disc1": 3, "fig2": 3},
    # measured 1 each
    "finalize": {"del1": 1, "disc1": 1, "fig2": 1},
}


@pytest.fixture
def retry_replay_dir(replay_dir, pipeline_manifest_path, tmp_path):
    """The seeded replay store plus the recorded retry of ``RETRY``."""
    directory = shutil.copytree(replay_dir, tmp_path / "replay")
    store, config = ReplayStore(directory), load_config()
    sentence_id = RETRY.split(".")[0]

    def record(system_prompt, user_prompt, key):
        sid, stage = key.split(".")[:2]
        raw = ("Sorry, here is my analysis." if key == RETRY else
               (SCRIPTS / f"{sid}.{stage}.json").read_text("utf-8"))
        fingerprint = request_fingerprint(system_prompt, user_prompt,
                                          config.backend.model_name)
        store.save(key, fingerprint, raw)
        return raw

    entry = next(e for e in load_manifest(pipeline_manifest_path).entries
                 if e.sentence_id == sentence_id)
    parse_sentence(manifest_entry_to_input_sentence(entry), StubBackend(record), config)
    assert (directory / f"{RETRY}.retry1.json").exists()
    return directory


@pytest.fixture
def counts(monkeypatch, retry_replay_dir):
    """Counts per sentence, each spy charging the sentence being parsed."""
    counted = {name: {} for name in BUDGETS}
    current = [None]

    def charge(name):
        counted[name][current[0]] = counted[name].get(current[0], 0) + 1

    def spy(name, original):
        def wrapper(*args, **kwargs):
            charge(name)
            return original(*args, **kwargs)
        return wrapper

    def parse_one(sentence, *args, **kwargs):
        current[0] = sentence.sentence_id
        try:
            return parse_sentence(sentence, *args, **kwargs)
        finally:
            current[0] = None

    def opener(original):
        def wrapper(file, *args, **kwargs):
            if Path(str(file)).parent == retry_replay_dir:
                charge("replay_opens")
            return original(file, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(driver, "parse_sentence", parse_one)
    monkeypatch.setattr(ReplayBackend, "complete",
                        spy("stage_calls", ReplayBackend.complete))
    monkeypatch.setattr(agents, "render_prompt", spy("prompt_renders", agents.render_prompt))
    monkeypatch.setattr(driver, "finalize", spy("finalize", driver.finalize))
    monkeypatch.setattr(builtins, "open", opener(builtins.open))
    monkeypatch.setattr(io, "open", opener(io.open))
    return counted


def test_no_sentence_of_a_replay_parse_does_more_work_than_its_budget(
        pipeline_manifest_path, retry_replay_dir, counts, tmp_path, capsys):
    assert cli.main(["parse", "--manifest", str(pipeline_manifest_path),
                     "--backend-mode", "replay", "--replay-dir", str(retry_replay_dir),
                     "--workers", "1", "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("parsed 3 sentences, 0 failures")
    assert (tmp_path / "out" / "failures.jsonl").read_text() == ""
    # Every spy fired for every sentence, so each count measures something.
    assert {name: set(by_sentence) for name, by_sentence in counts.items()} == \
        {name: set(budget) for name, budget in BUDGETS.items()}
    over = {(name, sid): count for name, by_sentence in counts.items()
            for sid, count in by_sentence.items() if count > BUDGETS[name][sid]}
    assert not over, over
