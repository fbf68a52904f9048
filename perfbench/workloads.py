"""The four benchmark workloads: set-up, one timed round, and its check.

Each workload builds its inputs from the seed in ``setup``, runs one round
over the whole corpus through the program's command line in ``run`` and
checks that round's output files in ``check``. The names the tracer rebinds
here (``cli_main``, ``make_stub_backend``, ``sleep``) are looked up at call
time, so the traced run sees every call made from here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import sleep

import spokenud.cli
from spokenud.backends import BackendError, ReplayStore, StubBackend, request_fingerprint
from spokenud.cli import main as cli_main
from spokenud.config import load_config
from spokenud.ioformats import emit_conllu, load_manifest, manifest_entry_to_input_sentence
from spokenud.pipeline import SentenceFailure, parse_sentence, seed_replay_store

from perfbench import inputs

DATA = Path(__file__).resolve().parent / "data"
# Jitter-free simulated backend latency per stage call for parse-latency.
# An assumed value, not measured on a live backend (whose waits are seconds):
# long enough that the waits, not CPU noise, set the round time, and short
# enough for many rounds per run. The run record gives the measured CPU share
# of each stage call (``stub_cpu_share``).
STUB_DELAY_S = 0.05
# parse-latency runs one worker thread per core, at most four.
LATENCY_WORKERS = min(len(os.sched_getaffinity(0)), 4)
PARSE_FILES = ("parses.conllu", "parses.sheet.tsv", "adjudication.log",
               "failures.jsonl")
EVAL_FILES = ("per_sentence.jsonl", "standard_by_category.md",
              "standard_by_category.csv", "flexud_by_category.md",
              "flexud_by_category.csv")


def digest(directory: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        path = directory / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


def _quiet_cli(argv: list[str]) -> int:
    """Run the command line with its summary line captured, not printed."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli_main(argv)
    if code != 0:
        sys.stderr.write(captured.getvalue())
    return code


# --- parse workloads ---------------------------------------------------------

def _blocks(text: str) -> dict:
    """CoNLL-U text -> {sentence id: block without its trailing blank line}."""
    out = {}
    for i, block in enumerate(b for b in text.split("\n\n") if b.strip("\n")):
        block = block.strip("\n")
        first = block.split("\n", 1)[0]
        sid = first[len("# sent_id = "):] if first.startswith("# sent_id = ") \
            else f"<block {i}>"
        out[sid] = block
    return out


def _lines_by_id(lines) -> dict:
    """Tab-separated lines -> {first cell: lines with that first cell}."""
    out: dict = {}
    for line in lines:
        if line:
            out.setdefault(line.split("\t", 1)[0], []).append(line)
    return out


class Expected:
    """The seed's outputs for the fixtures, tiled onto a corpus's ids."""

    def __init__(self, corpus: inputs.ParseCorpus):
        golden = DATA / "golden"
        blocks = _blocks((golden / "parses.conllu").read_text("utf-8"))
        sheet = (golden / "parses.sheet.tsv").read_text("utf-8").split("\n")
        rows = _lines_by_id(sheet[1:])
        log = _lines_by_id((golden / "adjudication.log").read_text("utf-8").split("\n"))
        self.pieces = {}
        for sid, fixture in corpus.fixture_of.items():
            block = blocks[fixture].replace(f"# sent_id = {fixture}\n",
                                            f"# sent_id = {sid}\n", 1)
            self.pieces[sid] = (
                block,
                [sid + row[len(fixture):] for row in rows[fixture]],
                [sid + line[len(fixture):] for line in log.get(fixture, [])],
            )
        all_rows = [row for _, sheet_rows, _ in self.pieces.values() for row in sheet_rows]
        all_log = [line for _, _, lines in self.pieces.values() for line in lines]
        self.files = {
            "parses.conllu": "".join(block + "\n\n" for block, _, _ in self.pieces.values()),
            "parses.sheet.tsv": "\n".join([sheet[0]] + all_rows) + "\n",
            "adjudication.log": "\n".join(all_log) + ("\n" if all_log else ""),
            "failures.jsonl": "",
        }

    def failed_ids(self, out: Path) -> set:
        """Ids whose output differs from the seed's, byte for byte."""
        actual = {name: (out / name).read_text("utf-8") if (out / name).exists()
                  else None for name in PARSE_FILES}
        if actual == self.files:
            return set()
        blocks = _blocks(actual["parses.conllu"] or "")
        rows = _lines_by_id((actual["parses.sheet.tsv"] or "").split("\n")[1:])
        log = _lines_by_id((actual["adjudication.log"] or "").split("\n"))
        failed = {sid for sid, (block, sheet_rows, lines) in self.pieces.items()
                  if blocks.get(sid) != block or rows.get(sid) != sheet_rows
                  or log.get(sid, []) != lines}
        for line in (actual["failures.jsonl"] or "").splitlines():
            failed.add(json.loads(line)["sentence_id"])
        return failed or set(self.pieces)


@dataclass
class ParseState:
    corpus: inputs.ParseCorpus
    table: dict            # request key -> canned response
    manifest: Path
    replay_dir: Path
    sentences: list
    ids: set
    expected: Expected


def _fixture_raw() -> dict:
    return {(fixture, stage): (DATA / "replay" / f"{fixture}.{stage}.json").read_text("utf-8")
            for fixture in inputs.FIXTURES for stage in inputs.STAGES}


def _write_manifest(corpus: inputs.ParseCorpus, path: Path) -> None:
    entries = {}
    for line in (DATA / "fixtures.jsonl").read_text("utf-8").splitlines():
        entry = json.loads(line)
        entries[entry["sentence_id"]] = entry
    counts: dict = {}
    lines = []
    for sid, fixture in corpus.fixture_of.items():
        entry = dict(entries[fixture], sentence_id=sid)
        counts[entry["category"]] = counts.get(entry["category"], 0) + 1
        lines.append(json.dumps(entry, ensure_ascii=False))
    header = json.dumps({"category_counts": counts})
    path.write_text("\n".join([header] + lines) + "\n", encoding="utf-8")


class _Recorder:
    """Stage script that answers from the canned table and records each
    answer in a replay store under the request the program actually made."""

    def __init__(self, store: ReplayStore, table: dict, model: str):
        self.store, self.table, self.model = store, table, model

    def __call__(self, system_prompt: str, user_prompt: str, key: str) -> str:
        raw = self.table[key]
        self.store.save(key, request_fingerprint(system_prompt, user_prompt, self.model), raw)
        return raw


def make_stub_backend(table: dict) -> StubBackend:
    """Backend that sleeps a fixed delay, then answers by request key."""

    def script(system_prompt: str, user_prompt: str, key: str) -> str:
        sleep(STUB_DELAY_S)
        if key not in table:
            raise BackendError(f"no canned response for key {key!r}")
        return table[key]

    return StubBackend(script=script)


class ParseWorkload:
    def __init__(self, name: str):
        self.name = name
        self.replay = name == "parse-replay"
        self.workers = 1 if self.replay else LATENCY_WORKERS

    def setup(self, seed: int, directory: Path) -> ParseState:
        directory.mkdir(parents=True, exist_ok=True)
        config = load_config()
        corpus = inputs.parse_corpus(seed)
        table = inputs.stage_responses(corpus, _fixture_raw())
        manifest = directory / "manifest.jsonl"
        _write_manifest(corpus, manifest)
        entries = load_manifest(manifest).entries
        sentences = [manifest_entry_to_input_sentence(e) for e in entries]
        replay_dir = directory / "replay"
        if self.replay:
            store = ReplayStore(replay_dir)
            model = config.backend.model_name
            for sentence in sentences:
                sid = sentence.sentence_id
                if sid in corpus.retries:
                    # The retry prompt embeds the program's own violation
                    # text, so record it from a real run of the sentence.
                    backend = StubBackend(script=_Recorder(store, table, model))
                    result = parse_sentence(sentence, backend, config)
                    if isinstance(result, SentenceFailure):
                        raise RuntimeError(f"recording {sid} failed: {result.error}")
                else:
                    seed_replay_store(store, sentence,
                                      {s: table[f"{sid}.{s}"] for s in inputs.STAGES},
                                      model, mwe_whitelist=config.mwe_whitelist)
        return ParseState(corpus, table, manifest, replay_dir, sentences,
                          set(corpus.fixture_of), Expected(corpus))

    def run(self, state: ParseState, out: Path) -> int:
        """One round of ``spokenud parse``; returns its exit code."""
        argv = ["parse", "--manifest", str(state.manifest), "--out", str(out),
                "--workers", str(self.workers)]
        if self.replay:
            return _quiet_cli(argv + ["--backend-mode", "replay",
                                      "--replay-dir", str(state.replay_dir)])
        # The command's own backend factory is swapped for the round only.
        saved = spokenud.cli.make_backend
        spokenud.cli.make_backend = lambda config: make_stub_backend(state.table)
        try:
            return _quiet_cli(argv + ["--backend-mode", "stub"])
        finally:
            spokenud.cli.make_backend = saved

    def check(self, state: ParseState, out: Path) -> tuple[set, str]:
        return state.expected.failed_ids(out), digest(out, PARSE_FILES)

    def describe(self, state: ParseState) -> dict:
        info = {"sentences": len(state.sentences),
                "input_tokens": sum(len(s.tokens) for s in state.sentences),
                "stage_responses": len(state.table),
                "composition": state.corpus.counts()}
        if not self.replay:
            info.update(workers=self.workers, stub_delay_s=STUB_DELAY_S)
        return info


# --- eval workloads ----------------------------------------------------------

# Digest of the eval outputs for DEFAULT_SEED, recorded at the seed commit.
DEFAULT_SEED = 0
EVAL_DIGESTS = DATA / "eval_digests.json"


@dataclass
class EvalState:
    corpus: inputs.EvalCorpus
    gold: Path
    system: Path
    ids: set


class EvalWorkload:
    workers = 1

    def __init__(self, name: str):
        self.name = name

    def setup(self, seed: int, directory: Path) -> EvalState:
        directory.mkdir(parents=True, exist_ok=True)
        corpus = inputs.eval_corpus(self.name, seed)
        gold, system = directory / "gold.conllu", directory / "system.conllu"
        gold.write_text(emit_conllu(corpus.gold), encoding="utf-8")
        system.write_text(emit_conllu(corpus.system), encoding="utf-8")
        return EvalState(corpus, gold, system, {s.sentence_id for s in corpus.gold})

    def run(self, state: EvalState, out: Path) -> int:
        """One round of ``spokenud eval``; returns its exit code."""
        return _quiet_cli(["eval", "--gold", str(state.gold), "--system", str(state.system),
                           "--out", str(out)])

    def check(self, state: EvalState, out: Path) -> tuple[set, str]:
        """One record per pair, every final in [0, 100], LAS <= UAS."""
        path = out / "per_sentence.jsonl"
        records = [json.loads(line) for line in path.read_text("utf-8").splitlines()] \
            if path.exists() else []
        seen = Counter(r["sentence_id"] for r in records)
        failed = (state.ids ^ set(seen)) | {sid for sid, n in seen.items() if n > 1}
        for record in records:
            standard = record["standard"]
            if not 0 <= record["flexud"]["final"] <= 100 or standard["las"] > standard["uas"]:
                failed.add(record["sentence_id"])
        return failed, digest(out, EVAL_FILES)

    def recorded_digest(self) -> str:
        return json.loads(EVAL_DIGESTS.read_text("utf-8"))[self.name]

    def describe(self, state: EvalState) -> dict:
        return dict(state.corpus.sizes(), perturbations=state.corpus.perturbations)


WORKLOADS = {
    "parse-replay": ParseWorkload("parse-replay"),
    "parse-latency": ParseWorkload("parse-latency"),
    "eval-short": EvalWorkload("eval-short"),
    "eval-long": EvalWorkload("eval-long"),
}
