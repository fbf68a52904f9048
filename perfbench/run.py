"""Offline benchmark for spokenud: four workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload parse-replay --seed 1 --seconds 25 --trace 0

Run from a source checkout; the program is imported from ``src/``. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run. Every round's output is checked, and the command exits
non-zero when any output differs from what the seed commit produced. See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("parse-replay", "parse-latency", "eval-short", "eval-long")
SETUP_REPEATS = 3
MIN_ROUNDS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# Times the program's import in a fresh interpreter.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = [sys.argv[1]]; "
                "t = time.perf_counter(); import spokenud.cli; "
                "print(time.perf_counter() - t)")


def _import_program() -> None:
    """Import the program from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "spokenud" / "__init__.py").is_file():
        raise SystemExit(f"error: no spokenud sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    module = importlib.import_module("spokenud.cli")
    if not Path(module.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: spokenud imported from {module.__file__}, not {src}")


def _import_seconds() -> list[float]:
    """Import time of the program, measured in SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                               capture_output=True, text=True, check=True, timeout=120)
        times.append(float(probe.stdout))
    return times


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split(" ", 1)[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    package = ROOT / "src" / "spokenud"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Tally:
    """Sentences attempted and failed over every checked round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, attempted: int, failed: set) -> None:
        self.attempted += attempted
        self.failed += min(len(failed), attempted)
        if failed:
            shown = ", ".join(sorted(failed)[:5])
            self.problems.append(f"{label}: {len(failed)} sentences wrong ({shown})")


def _round(workload, state, out: Path, tally: Tally, label: str,
           digest: str | None) -> tuple[float, str]:
    """One checked round into an emptied ``out``; returns sentences per
    second, process CPU seconds and the output digest. A non-zero exit code
    fails every sentence of the round."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    cpu = time.process_time()
    start = time.perf_counter()
    code = workload.run(state, out)
    rate = len(state.ids) / (time.perf_counter() - start)
    cpu = time.process_time() - cpu
    failed, round_digest = workload.check(state, out)
    if code != 0:
        failed = set(failed) | set(state.ids)
        tally.problems.append(f"{label}: exit code {code}")
    if digest is not None and round_digest != digest:
        failed = set(failed) | {f"<{label}: output differs from the first round>"}
    tally.add(label, len(state.ids), failed)
    return rate, cpu, round_digest


def _rounds(workload, state, out, seconds, tally, label, digest):
    """Rounds for at most ``seconds``: no round starts that would overrun,
    judged by the previous round, but at least MIN_ROUNDS run. Returns the
    rates and the CPU seconds of the rounds."""
    rates, cpus = [], []
    start = time.perf_counter()
    round_s = 0.0
    while len(rates) < MIN_ROUNDS or time.perf_counter() - start + round_s <= seconds:
        begin = time.perf_counter()
        rate, cpu, _ = _round(workload, state, out, tally,
                              f"{label} {len(rates) + 1}", digest)
        rates.append(rate)
        cpus.append(cpu)
        round_s = time.perf_counter() - begin
    return rates, cpus


def _batch_rate(rates: list[float]) -> float:
    """Sentences per second over all rounds together. Every round runs the
    same corpus, so this is the harmonic mean of the round rates; unlike the
    median round, it averages over the slow and fast spells of a machine
    whose speed changes during a run."""
    return statistics.harmonic_mean(rates)


def _check_default_seed(workload, args, state, first_digest, work, tally, record):
    """Eval outputs for the default seed must match the recorded digest."""
    from perfbench.workloads import DEFAULT_SEED

    if args.seed == DEFAULT_SEED:
        got = first_digest
    else:
        default_state = workload.setup(DEFAULT_SEED, work / "default-seed")
        _, _, got = _round(workload, default_state, work / "default-out", tally,
                           "default-seed round", None)
    expected = workload.recorded_digest()
    record["default_seed_digest"] = got
    if got != expected:
        tally.problems.append(f"default-seed eval digest {got} != recorded {expected}")
        tally.failed = max(tally.failed, 1)


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    bench_dir = ROOT / ".perfbench"
    work = bench_dir / f"work-{os.getpid()}"
    results = bench_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        import_runs = [] if args.trace else _import_seconds()
        setup_runs = []
        for k in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            state = workload.setup(args.seed, work / f"setup-{k}")
            setup_runs.append(time.perf_counter() - start)
        out = work / "out"
        _, _, first_digest = _round(workload, state, out, tally, "warm-up round", None)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": _commit(), "source_sha256": _source_digest(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "jsonschema": importlib.metadata.version("jsonschema"),
            "pyyaml": importlib.metadata.version("PyYAML"),
            "inputs": workload.describe(state),
            "import_runs_s": import_runs, "setup_runs_s": setup_runs,
        }
        if args.trace:
            untraced, _ = _rounds(workload, state, out, args.seconds / 2, tally,
                                  "untraced round", first_digest)
            tracer = Tracer()
            tracer.install()
            attempted_before = tally.attempted
            try:
                traced, _ = _rounds(workload, state, out, args.seconds / 2, tally,
                                    "traced round", first_digest)
            finally:
                tracer.uninstall()
            overhead = 1 - _batch_rate(traced) / _batch_rate(untraced)
            metrics = tracer.metrics(tally.attempted - attempted_before,
                                     workload.workers, overhead)
            record.update(untraced_rates=untraced, traced_rates=traced,
                          absent_hooks=tracer.absent_points,
                          align_samples=tracer.align_samples())
            spans_path = results / f"{args.workload}-seed{args.seed}.spans.jsonl"
            tracer.write_spans(spans_path)
            record["spans"] = str(spans_path.relative_to(ROOT))
        else:
            rates, cpus = _rounds(workload, state, out, args.seconds, tally,
                                  "timed round", first_digest)
            metrics = {
                "sent_per_s": {"value": _batch_rate(rates), "unit": "sent/s"},
                "setup_s": {"value": statistics.median(import_runs)
                            + statistics.median(setup_runs), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            }
            record.update(round_rates=rates, round_cpu_s=cpus)
            delay = record["inputs"].get("stub_delay_s")
            if delay:
                # CPU share of one stage call's wall time: CPU per call over
                # CPU per call plus the fixed wait.
                per_call = statistics.median(cpus) / record["inputs"]["stage_responses"]
                record["stub_cpu_share"] = per_call / (per_call + delay)
        if hasattr(workload, "recorded_digest"):
            _check_default_seed(workload, args, state, first_digest, work, tally, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = tally.failed == 0
    record.update(attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems, metrics=metrics)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for problem in tally.problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    print("record: " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(f"failed_frac = {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} sentences)")
    for metric, entry in metrics.items():
        value = "absent" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{metric} = {value} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
