"""Line census: which executable ``src/`` lines does no tier-1 test run?

Run from the repository root::

    python tests/linecensus.py

It runs pytest over ``tests/`` in this process under a stdlib line tracer
(``sys.settrace`` plus ``threading.settrace``, so worker threads count too)
and prints each module's never-run lines, then the total. A module's
executable lines are those of its code objects, recursively, as
``co_lines()`` reports them. It takes about 2.5 times as long as the tests
alone. Code that runs only in a child process, such as the ``__main__``
guard, is invisible to it. Pytest does not collect this file; the exit
status is pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spokenud"


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object compiled from ``path`` maps to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def main() -> int:
    modules = sorted(PACKAGE.rglob("*.py"))
    hits: dict[str, set[int]] = {str(path): set() for path in modules}

    def trace(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]  # as `python -m pytest` from the root
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in modules:
        lines = executable_lines(path)
        never = sorted(lines - hits[str(path)])
        total += len(lines)
        missed += len(never)
        if never:
            print(f"{path.relative_to(ROOT / 'src')}: {', '.join(map(str, never))}")
    print(f"never-run lines: {missed} of {total} executable src/ lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
