"""Prompt templates and stage schemas, shipped as data files.

Templates are plain text with a ``$input`` slot so prompt edits never require
a code change; schemas are the published JSON-schema documents the runtime
validates against.
"""

from __future__ import annotations

import json
import string
from functools import lru_cache
from importlib import resources

STAGES = ("sph", "lsr", "core")


@lru_cache(maxsize=None)
def _read_data(relative: str) -> str:
    return resources.files("spokenud.data").joinpath(relative).read_text("utf-8")


def stage_schema(stage: str) -> dict:
    """The stage's output schema, parsed afresh so a caller may edit it."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    return json.loads(_read_data(f"schemas/{stage}_output.schema.json"))


def render_prompt(stage: str, input_json: str) -> tuple[str, str]:
    """System and user prompts for a stage, with the payload substituted."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    system = _read_data(f"prompts/{stage}_system.txt").strip()
    user_template = string.Template(_read_data(f"prompts/{stage}_user.txt"))
    return system, user_template.substitute(input=input_json).strip()


def repair_prompt(user_prompt: str, violations: list[str]) -> str:
    """Append a machine-readable repair block listing the violations."""
    block = json.dumps({
        "repair_required": True,
        "violations": violations,
        "instruction": "Return the corrected JSON object only.",
    }, ensure_ascii=False, indent=2)
    return f"{user_prompt}\n\nYour previous response was invalid:\n{block}"
