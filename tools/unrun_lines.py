#!/usr/bin/env python3
"""List each executable line of ``src/aag`` that no test runs.

Runs pytest in this process under a ``sys.settrace`` line tracer that
traces only frames whose code lives in ``src/aag``, then prints every
line the compiler marks executable (a line some code object's
``co_lines`` names) that never ran, as ``path:line: source``, and their
count. Standard library only, besides pytest itself.

    python3 tools/unrun_lines.py                 # the suite's testpaths
    python3 tools/unrun_lines.py tests/test_grouping.py -k run_aag

Arguments are passed to pytest. Code that tests run in a subprocess is
not traced. The tracer's frames keep reference cycles alive, so a test
that counts the collector's objects can fail under it; the tool is a
map of what the tests reach, not a pass/fail gate, and exits 0 whatever
pytest reports.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "aag"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some instruction of its compiled code is on."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts on line 0
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and, per traced file, the lines that ran."""
    import pytest

    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = defaultdict(set)
    traced: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        inside = traced.get(name)
        if inside is None:
            inside = traced[name] = str(Path(name).resolve()).startswith(prefix)
        if not inside:
            return None
        ran[name].add(frame.f_lineno)  # the call event's line: the def or decorator
        return local

    sys.path.insert(0, str(SRC.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path = defaultdict(set)
    for name, lines in ran.items():
        by_path[str(Path(name).resolve())] |= lines
    return int(code), by_path


def main(argv: list[str]) -> int:
    code, ran = run_traced(argv)
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        unrun = sorted(executable_lines(path) - ran.get(str(path), set()))
        source = path.read_text(encoding="utf-8").splitlines()
        for line in unrun:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        total += len(unrun)
    print(f"{total} executable lines of {SRC.relative_to(ROOT)} not run (pytest exit {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
