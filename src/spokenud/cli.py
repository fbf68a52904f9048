"""Command-line entry point: parse, eval, validate, report.

Exit codes: 0 success, 1 validation/evaluation failure, 2 usage error,
3 backend error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .backends import BackendError, make_backend
from .config import ToolkitConfig, load_config
from .core import Category, Sentence, SpokenUdError, validate_tree
from .flexud import (
    ComponentScores,
    FlexResult,
    FlexScore,
    SeverityReport,
    align_tokens,
    component_scores,
    detect_severity,
    flexud_final,
    flexud_report,
)
from .ioformats import (
    DuplicateSentenceId,
    emit_conllu,
    emit_sheet,
    load_manifest,
    manifest_entry_to_input_sentence,
    parse_conllu,
    parse_sheet,
)
from .metrics import (
    AttachmentCounts,
    SentenceResult,
    StandardScores,
    aggregate_by_category,
    attachment_scores,
)
from .pipeline import SentenceFailure, induced_sentence, run_batch


class SentenceIdMismatch(SpokenUdError):
    def __init__(self, only_gold, only_system):
        self.only_gold = sorted(only_gold)
        self.only_system = sorted(only_system)
        super().__init__(
            f"sentence ids do not match: only in gold {self.only_gold}, "
            f"only in system {self.only_system}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spokenud",
        description="Parse and evaluate spoken code-switched utterances.")
    parser.add_argument("--config", help="toolkit config file (YAML)")
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("parse", help="run the agent pipeline over a manifest")
    cmd.add_argument("--manifest", required=True)
    cmd.add_argument("--out", required=True, help="output directory")
    cmd.add_argument("--backend-mode", choices=["live", "record", "replay", "stub"])
    cmd.add_argument("--replay-dir")
    cmd.add_argument("--model")
    cmd.add_argument("--base-url")
    cmd.add_argument("--workers", type=worker_count)
    cmd.add_argument("--allow-failures", action="store_true",
                     help="exit 0 even when some sentences fail")

    cmd = commands.add_parser("eval", help="score a system file against gold")
    cmd.add_argument("--gold", required=True)
    cmd.add_argument("--system", required=True)
    cmd.add_argument("--metric", choices=["standard", "flexud", "both"],
                     default="both")
    cmd.add_argument("--by-category", action="store_true",
                     help="category-stratified tables (always emitted; flag "
                          "kept for interface stability)")
    cmd.add_argument("--out", required=True, help="output directory")

    cmd = commands.add_parser("validate", help="check structural well-formedness")
    cmd.add_argument("path")

    cmd = commands.add_parser("report", help="re-render tables from per-sentence results")
    cmd.add_argument("--results", required=True, help="per_sentence.jsonl from eval")
    cmd.add_argument("--metric", choices=["standard", "flexud", "both"],
                     default="both")
    cmd.add_argument("--out", required=True, help="output directory")
    return parser


def worker_count(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "parse":
            return cmd_parse(args, config)
        if args.command == "eval":
            return cmd_eval(args, config)
        if args.command == "validate":
            return cmd_validate(args)
        return cmd_report(args)
    except BackendError as err:
        print(f"backend error: {err}", file=sys.stderr)
        return 3
    except SpokenUdError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err.filename}: {err.strerror}", file=sys.stderr)
        return 1


def _apply_backend_flags(config: ToolkitConfig, args) -> ToolkitConfig:
    overrides = {}
    if args.backend_mode:
        overrides["mode"] = args.backend_mode
    if args.replay_dir:
        overrides["replay_dir"] = args.replay_dir
    if args.model:
        overrides["model_name"] = args.model
    if args.base_url:
        overrides["base_url"] = args.base_url
    return config.with_backend(**overrides) if overrides else config


def cmd_parse(args, config: ToolkitConfig) -> int:
    config = _apply_backend_flags(config, args)
    workers = args.workers if args.workers else config.workers
    manifest = load_manifest(args.manifest)
    sentences = [manifest_entry_to_input_sentence(e) for e in manifest.entries]
    categories = {e.sentence_id: e.category for e in manifest.entries}
    backend = make_backend(config.backend)
    results = run_batch(sentences, backend, config, workers=workers)

    parses = []
    failures = []
    out_sentences = []
    for result in results:
        if isinstance(result, SentenceFailure):
            failures.append(result)
            continue
        parses.append(result)
        sentence = induced_sentence(result)
        out_sentences.append(replace(
            sentence, category=categories.get(sentence.sentence_id)))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "parses.conllu").write_text(emit_conllu(out_sentences), encoding="utf-8")
    (out / "parses.sheet.tsv").write_text(emit_sheet(out_sentences), encoding="utf-8")
    _write_lines(out / "failures.jsonl", [json.dumps(
        {key: getattr(f, key) for key in
         ("sentence_id", "stage", "error", "attempts", "violations")},
        ensure_ascii=False, sort_keys=True) for f in failures])
    _write_lines(out / "adjudication.log", [
        f"{parse.sentence_id}\t{line}"
        for parse in parses for line in parse.adjudication_log])

    print(f"parsed {len(parses)} sentences, {len(failures)} failures")
    for failure in failures:
        print(f"  FAILED {failure.sentence_id} at {failure.stage}: "
              f"{failure.error}")
    if failures and not args.allow_failures:
        return 1
    return 0


def _pair_sentences(gold_path: str, system_path: str):
    gold = _sentences_by_id(parse_conllu(_read(gold_path)), gold_path)
    system = _sentences_by_id(parse_conllu(_read(system_path)), system_path)
    if set(gold) != set(system):
        raise SentenceIdMismatch(set(gold) - set(system), set(system) - set(gold))
    return [(gold[sid], system[sid]) for sid in sorted(gold)]


def _sentences_by_id(sentences: list[Sentence], path: str) -> dict[str, Sentence]:
    """The file-level checks ``eval`` and ``validate`` share: no repeated
    sentence id, no block without token rows, no repeated node id."""
    by_id: dict[str, Sentence] = {}
    for sentence in sentences:
        name = sentence.sentence_id or '<unnamed>'
        if sentence.sentence_id in by_id:
            raise DuplicateSentenceId(f"{name} in {path}")
        if not sentence.tokens:
            raise SpokenUdError(f"sentence {name} in {path} has no token rows")
        index = sentence.token_index()
        if len(index) < len(sentence.tokens):
            repeated = next(t.id for t in sentence.tokens if index[t.id] is not t)
            raise SpokenUdError(f"sentence {name} in {path} repeats node id {repeated}")
        by_id[sentence.sentence_id] = sentence
    return by_id


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def evaluate_pair(gold: Sentence, system: Sentence, config: ToolkitConfig):
    alignment = align_tokens(gold, system, config.tolerance)
    standard = attachment_scores(gold, system, alignment)
    components = component_scores(gold, system, alignment, config.tolerance)
    severity = detect_severity(gold, system, alignment, config.penalties,
                               config.tolerance)
    flex = flexud_final(components, config.weights, severity)
    return standard, flex


def sentence_record(sid: str, category: Category | None,
                    standard: StandardScores, flex: FlexScore) -> dict:
    return {
        "sentence_id": sid,
        "category": category.value if category else None,
        "standard": {
            "las": standard.las,
            "uas": standard.uas,
            "clas": standard.clas,
            "upos_acc": standard.upos_acc,
            "counts": dict(vars(standard.counts)),
        },
        "flexud": {
            **flex.components.asdict(),
            "raw": flex.raw,
            "P": flex.severity.P,
            "final": flex.final,
            "issues": [
                {"class": i.issue_class, "severity": i.severity,
                 "contribution": i.contribution,
                 "nodes": [str(n) for n in i.node_ids], "note": i.note}
                for i in flex.severity.issues
            ],
            "diagnostics": list(flex.diagnostics),
        },
    }


def cmd_eval(args, config: ToolkitConfig) -> int:
    pairs = _pair_sentences(args.gold, args.system)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    records = []
    standard_results = []
    flex_results = []
    for gold, system in pairs:
        standard, flex = evaluate_pair(gold, system, config)
        records.append(sentence_record(gold.sentence_id, gold.category,
                                       standard, flex))
        standard_results.append(SentenceResult(gold.sentence_id, gold.category,
                                               standard))
        flex_results.append(FlexResult(gold.sentence_id, gold.category, flex))

    _write_lines(out / "per_sentence.jsonl", [
        json.dumps(r, ensure_ascii=False, sort_keys=True) for r in records])
    _write_tables(out, args.metric, standard_results, flex_results)
    print(f"evaluated {len(records)} sentences "
          f"(metric={args.metric}, tables in {out})")
    return 0


def _write_tables(out: Path, metric: str, standard_results, flex_results) -> None:
    for name, tabulate, results in (
            ("standard", aggregate_by_category, standard_results),
            ("flexud", flexud_report, flex_results)):
        if metric in (name, "both"):
            table = tabulate(results)
            (out / f"{name}_by_category.md").write_text(table.to_markdown(),
                                                        encoding="utf-8")
            (out / f"{name}_by_category.csv").write_text(table.to_csv(),
                                                         encoding="utf-8")


def cmd_validate(args) -> int:
    text = _read(args.path)
    if args.path.endswith((".tsv", ".sheet")):
        sentences = parse_sheet(text)
    else:
        sentences = parse_conllu(text)
    failures = 0
    for sentence in sentences:
        report = validate_tree(sentence)
        if not report.ok:
            failures += 1
            for issue in report.issues:
                ids = ", ".join(str(n) for n in issue.node_ids)
                print(f"{sentence.sentence_id or '<unnamed>'}: "
                      f"{issue.code.value} [{ids}] {issue.message}")
    _sentences_by_id(sentences, args.path)  # after the tree issues; refuses as eval does
    print(f"validated {len(sentences)} sentences, {failures} with issues")
    return 1 if failures else 0


def cmd_report(args) -> int:
    standard_results = []
    flex_results = []
    for number, line in enumerate(_read(args.results).splitlines(), 1):
        if not line.strip():
            continue
        try:
            standard, flex = _report_results(json.loads(line))
        except (SpokenUdError, ValueError, LookupError, TypeError, AttributeError) as err:
            raise SpokenUdError(f"{args.results} line {number}: not an eval "
                                f"record: {err!r}") from None
        standard_results.append(standard)
        flex_results.append(flex)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_tables(out, args.metric, standard_results, flex_results)
    print(f"rendered tables for {len(flex_results)} sentences into {out}")
    return 0


def _report_results(record: dict) -> tuple[SentenceResult, FlexResult]:
    """The results a per_sentence.jsonl record holds; the tables sum its ints."""
    sid, counts, flex = record["sentence_id"], record["standard"]["counts"], record["flexud"]
    scores = [flex[key] for key in ("split", "id", "upos", "head", "deprel", "final")]
    if not isinstance(sid, str) or any(type(n) is not int
                                       for n in (*counts.values(), *scores)):
        raise ValueError("sentence_id must be a string, counts and scores integers")
    category = (Category.from_label(record["category"])
                if record.get("category") else None)
    standard = StandardScores.from_counts(AttachmentCounts(**counts))
    score = FlexScore(components=ComponentScores(*scores[:5]), weights=None,
                      raw=flex["raw"], severity=SeverityReport((), flex["P"]),
                      final=scores[5], diagnostics=tuple(flex.get("diagnostics", ())))
    return SentenceResult(sid, category, standard), FlexResult(sid, category, score)


if __name__ == "__main__":
    sys.exit(main())
