"""The schema interpreter that ``agents._compile`` replaced, kept as the
reference the compiled predicates are tested against."""

import functools
import re

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None), "number": (int, float), "integer": int}
_regex = functools.cache(re.compile)


def _is_type(obj, name: str) -> bool:
    if isinstance(obj, bool):
        return name == "boolean"
    return isinstance(obj, _TYPES[name]) or \
        name == "integer" and isinstance(obj, float) and obj.is_integer()


def _conforms(schema: dict, obj, root: dict | None = None) -> bool:
    """Whether ``obj`` is valid under ``schema`` by jsonschema's draft 2020-12
    semantics for the keywords in _KEYWORDS, of which the last five check
    nothing. Enum members are scalars; True never equals 1, as in jsonschema."""
    root = root or schema
    if "$ref" in schema and not _conforms(
            root["$defs"][schema["$ref"].removeprefix("#/$defs/")], obj, root):
        return False
    types = schema.get("type")
    if types is not None and not (
            _is_type(obj, types) if isinstance(types, str)
            else any(_is_type(obj, t) for t in types)):
        return False
    if "enum" in schema and not any(
            e is obj or isinstance(e, bool) == isinstance(obj, bool) and e == obj
            for e in schema["enum"]):
        return False
    if isinstance(obj, str):
        return len(obj) >= schema.get("minLength", 0) and (
            "pattern" not in schema or bool(_regex(schema["pattern"]).search(obj)))
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return not ("minimum" in schema and obj < schema["minimum"]
                    or "maximum" in schema and obj > schema["maximum"])
    if isinstance(obj, list):
        items = schema.get("items")
        return len(obj) >= schema.get("minItems", 0) and (
            items is None or all(_conforms(items, x, root) for x in obj))
    if not isinstance(obj, dict):
        return True
    properties = schema.get("properties", {})
    patterns = schema.get("patternProperties", {})
    for key, value in obj.items():
        known = key in properties
        if known and not _conforms(properties[key], value, root):
            return False
        for pattern, sub in patterns.items():
            if _regex(pattern).search(key):
                known = True
                if not _conforms(sub, value, root):
                    return False
        if not known and schema.get("additionalProperties") is False:
            return False
    return all(key in obj for key in schema.get("required", ()))
