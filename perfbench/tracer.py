"""Spans around the calls into each layer, for the traced benchmark run.

Hooks rebind names in the *calling* modules (``spokenud.cli.align_tokens``,
``spokenud.pipeline.driver.run_agent``, ...) for the duration of the traced
rounds and restore them afterwards; no program file is changed, and with
tracing off nothing is installed. A hook point that a later version of the
program no longer has is reported as absent, never as zero.

A span records its name, start, end, parent span and sentence id. Self time
is a span's duration minus the durations of its direct children on the same
thread. Spans stay in memory until ``write_spans`` at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

# Layer -> hook points (module, attribute, kind). The layer is absent when
# none of its points exists; points that are missing are listed in the run
# record either way.
HOOKS = {
    "cli.main": [("perfbench.workloads", "cli_main", "call")],
    "ioformats.load_manifest": [("spokenud.cli", "load_manifest", "call")],
    "ioformats.emit_conllu": [("spokenud.cli", "emit_conllu", "call")],
    "ioformats.emit_sheet": [("spokenud.cli", "emit_sheet", "call")],
    "ioformats.parse_conllu": [("spokenud.cli", "parse_conllu", "call")],
    "pipeline.driver.run_batch": [("spokenud.cli", "run_batch", "call")],
    "pipeline.driver.parse_sentence": [
        ("spokenud.pipeline.driver", "parse_sentence", "call")],
    "backends.complete": [("spokenud.cli", "make_backend", "factory"),
                          ("perfbench.workloads", "make_stub_backend", "factory")],
    "backends.stub.wait": [("perfbench.workloads", "sleep", "call")],
    "backends.request_fingerprint": [
        ("spokenud.backends", "request_fingerprint", "call")],
    "backends.ReplayStore.load": [("spokenud.backends", "ReplayStore.load", "replay")],
    "pipeline.prompts.render_prompt": [
        ("spokenud.pipeline.agents", "render_prompt", "call")],
    "pipeline.prompts.repair_prompt": [
        ("spokenud.pipeline.agents", "repair_prompt", "call")],
    "pipeline.agents.run_agent": [("spokenud.pipeline.driver", "run_agent", "agent")],
    "pipeline.agents.schema_check": [
        ("spokenud.pipeline.agents", "jsonschema", "jsonschema")],
    "pipeline.envelopes.parse_stage": [
        ("spokenud.pipeline.agents", f"parse_{stage}", "call")
        for stage in ("sph", "lsr", "core")],
    "pipeline.envelopes.validate_stage": [
        ("spokenud.pipeline.agents", f"validate_{stage}", "call")
        for stage in ("sph", "lsr", "core")],
    "pipeline.envelopes.apply_mwe_whitelist": [
        ("spokenud.pipeline.agents", "apply_mwe_whitelist", "call")],
    "pipeline.envelopes.envelope_to_json_text": [
        ("spokenud.pipeline.agents", "envelope_to_json_text", "call")],
    "pipeline.finalize.finalize": [("spokenud.pipeline.driver", "finalize", "finalize")],
    "pipeline.finalize.induced_sentence": [
        ("spokenud.pipeline.finalize", "induced_sentence", "call"),
        ("spokenud.cli", "induced_sentence", "call")],
    "core.validate_tree": [("spokenud.flexud", "validate_tree", "call"),
                           ("spokenud.pipeline.finalize", "validate_tree", "call")],
    "flexud.align_tokens": [("spokenud.cli", "align_tokens", "call")],
    "flexud.component_scores": [("spokenud.cli", "component_scores", "call")],
    "flexud.detect_severity": [("spokenud.cli", "detect_severity", "call")],
    "flexud.flexud_final": [("spokenud.cli", "flexud_final", "call")],
    "flexud.flexud_report": [("spokenud.cli", "flexud_report", "call")],
    "metrics.attachment_scores": [("spokenud.cli", "attachment_scores", "call")],
    "metrics.aggregate_by_category": [
        ("spokenud.cli", "aggregate_by_category", "call")],
}

# Per-layer metric -> (unit, layers it needs). Times and counts are per
# sentence (per gold/system pair for eval) processed in the traced rounds.
METRICS = {
    "cli.main.self_ms": ("ms/sent", ["cli.main"]),
    "ioformats.load_manifest.self_ms": ("ms/sent", ["ioformats.load_manifest"]),
    "ioformats.emit_conllu.self_ms": ("ms/sent", ["ioformats.emit_conllu"]),
    "ioformats.emit_sheet.self_ms": ("ms/sent", ["ioformats.emit_sheet"]),
    "ioformats.parse_conllu.self_ms": ("ms/sent", ["ioformats.parse_conllu"]),
    "pipeline.driver.parse_sentence.calls": (
        "count/sent", ["pipeline.driver.parse_sentence"]),
    "pipeline.driver.busy_frac": (
        "ratio", ["pipeline.driver.parse_sentence", "pipeline.driver.run_batch"]),
    "backends.complete.calls": ("count/sent", ["backends.complete"]),
    "backends.complete.self_ms": ("ms/sent", ["backends.complete"]),
    "backends.request_fingerprint.self_ms": (
        "ms/sent", ["backends.request_fingerprint"]),
    "backends.ReplayStore.load.self_ms": ("ms/sent", ["backends.ReplayStore.load"]),
    "backends.replay.hit_frac": ("ratio", ["backends.ReplayStore.load"]),
    "backends.stub.wait_ms": ("ms/sent", ["backends.stub.wait"]),
    "pipeline.prompts.render_prompt.self_ms": (
        "ms/sent", ["pipeline.prompts.render_prompt"]),
    "pipeline.prompts.repair_prompt.calls": (
        "count/sent", ["pipeline.prompts.repair_prompt"]),
    "pipeline.agents.run_agent.calls": ("count/sent", ["pipeline.agents.run_agent"]),
    "pipeline.agents.run_agent.self_ms": ("ms/sent", ["pipeline.agents.run_agent"]),
    "pipeline.agents.schema_check.self_ms": (
        "ms/sent", ["pipeline.agents.schema_check"]),
    "pipeline.agents.useful_frac": (
        "ratio", ["pipeline.agents.run_agent", "backends.complete"]),
    "pipeline.envelopes.parse_stage.self_ms": (
        "ms/sent", ["pipeline.envelopes.parse_stage"]),
    "pipeline.envelopes.validate_stage.self_ms": (
        "ms/sent", ["pipeline.envelopes.validate_stage"]),
    "pipeline.envelopes.apply_mwe_whitelist.self_ms": (
        "ms/sent", ["pipeline.envelopes.apply_mwe_whitelist"]),
    "pipeline.envelopes.envelope_to_json_text.self_ms": (
        "ms/sent", ["pipeline.envelopes.envelope_to_json_text"]),
    "pipeline.finalize.finalize.self_ms": ("ms/sent", ["pipeline.finalize.finalize"]),
    "pipeline.finalize.induced_sentence.self_ms": (
        "ms/sent", ["pipeline.finalize.induced_sentence"]),
    "pipeline.finalize.repairs": ("count/sent", ["pipeline.finalize.finalize"]),
    "core.validate_tree.calls": ("count/sent", ["core.validate_tree"]),
    "core.validate_tree.self_ms": ("ms/sent", ["core.validate_tree"]),
    "flexud.align_tokens.self_ms": ("ms/sent", ["flexud.align_tokens"]),
    "flexud.align_tokens.p50_us": ("us", ["flexud.align_tokens"]),
    "flexud.align_tokens.p99_us": ("us", ["flexud.align_tokens"]),
    "flexud.component_scores.self_ms": ("ms/sent", ["flexud.component_scores"]),
    "flexud.detect_severity.self_ms": ("ms/sent", ["flexud.detect_severity"]),
    "flexud.flexud_final.self_ms": ("ms/sent", ["flexud.flexud_final"]),
    "flexud.flexud_report.self_ms": ("ms/sent", ["flexud.flexud_report"]),
    "metrics.attachment_scores.self_ms": ("ms/sent", ["metrics.attachment_scores"]),
    "metrics.aggregate_by_category.self_ms": (
        "ms/sent", ["metrics.aggregate_by_category"]),
    "trace.overhead_frac": ("ratio", []),
}


def _sentence_id(args) -> str | None:
    for arg in args[:2]:
        sid = getattr(arg, "sentence_id", None)
        if isinstance(sid, str):
            return sid
    return None


class _SchemaProxy:
    """Stands in for the ``jsonschema`` module inside the agents module."""

    def __init__(self, module, validate):
        self._module = module
        self.validate = validate

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent id, name, start, end, sid)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent_layers: set[str] = set()
        self.absent_points: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple] = []

    # --- spans ---------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        sid = _sentence_id(args)
        if sid is None and parent is not None:
            sid = parent[2]
        frame = [next(self._ids), 0.0, sid]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            with self._lock:
                self.spans.append((frame[0], parent[0] if parent else None,
                                   name, start, end, sid))
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _wrap(self, layer: str, kind: str, original):
        if kind == "jsonschema":
            return _SchemaProxy(original, self._wrap(layer, "call", original.validate))
        if kind == "factory":
            @functools.wraps(original)
            def factory(*args, **kwargs):
                backend = original(*args, **kwargs)
                backend.complete = self._wrap(layer, "call", backend.complete)
                return backend
            return factory

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if kind == "replay":
                try:
                    result = self.call(layer, original, args, kwargs)
                except Exception:
                    self.count("replay.miss")
                    raise
                self.count("replay.hit")
                return result
            result = self.call(layer, original, args, kwargs)
            if kind == "agent":
                self.count("agent.accepted")
            elif kind == "finalize":
                self.count("finalize.log_lines", len(result.adjudication_log))
            return result
        return wrapper

    # --- hooks ---------------------------------------------------------------

    def install(self, hooks: dict = HOOKS) -> None:
        for layer, points in hooks.items():
            found = 0
            for module_name, attribute, kind in points:
                try:
                    owner = importlib.import_module(module_name)
                    *path, name = attribute.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, name)
                except (ImportError, AttributeError):
                    self.absent_points.append(f"{module_name}.{attribute}")
                    continue
                setattr(owner, name, self._wrap(layer, kind, original))
                self._restore.append((owner, name, original))
                found += 1
            if not found:
                self.absent_layers.add(layer)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # --- results -------------------------------------------------------------

    def metrics(self, sentences: int, workers: int, overhead_frac: float) -> dict:
        """Every per-layer metric, per sentence processed while tracing."""
        per = 1.0 / sentences
        align = sorted(end - start for _, _, name, start, end, _ in self.spans
                       if name == "flexud.align_tokens")
        values = {
            "pipeline.driver.busy_frac": _ratio(
                sum(end - start for _, _, name, start, end, _ in self.spans
                    if name == "pipeline.driver.parse_sentence"),
                workers * sum(end - start for _, _, name, start, end, _ in self.spans
                              if name == "pipeline.driver.run_batch")),
            "backends.replay.hit_frac": _ratio(
                self.counts["replay.hit"],
                self.counts["replay.hit"] + self.counts["replay.miss"]),
            "backends.stub.wait_ms": self.self_s["backends.stub.wait"] * 1e3 * per,
            "pipeline.agents.useful_frac": _ratio(
                self.counts["agent.accepted"], self.calls["backends.complete"]),
            "pipeline.finalize.repairs": self.counts["finalize.log_lines"] * per,
            "flexud.align_tokens.p50_us": _quantile(align, 0.50) * 1e6,
            "flexud.align_tokens.p99_us": _quantile(align, 0.99) * 1e6,
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for metric, (unit, layers) in METRICS.items():
            if any(layer in self.absent_layers for layer in layers):
                out[metric] = {"value": None, "unit": unit, "status": "absent"}
                continue
            if metric in values:
                value = values[metric]
            else:
                layer, _, field = metric.rpartition(".")
                value = (self.calls[layer] if field == "calls"
                         else self.self_s[layer] * 1e3) * per
            out[metric] = {"value": value, "unit": unit}
        return out

    def align_samples(self) -> int:
        return sum(1 for span in self.spans if span[2] == "flexud.align_tokens")

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, sid in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent,
                                         "name": name, "start": start,
                                         "end": end, "sentence_id": sid}) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _quantile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[round(q * 100) - 1]
