"""Line coverage of ``src/lanefuse`` under the tier-1 suite, standard library only.

    python tests/line_coverage.py [pytest arguments]

Runs pytest in this process (by default the whole suite, as
``pytest -q --continue-on-collection-errors``) with a ``sys.settrace`` /
``threading.settrace`` line tracer, then prints every executable line of
``src/lanefuse`` that did not run, as ``path:line: source``, and a count.
Extra arguments go to pytest in place of the default test paths. Code run
in a subprocess (a test that starts the CLI or a stub server as a program)
is not traced. The tracer slows the suite by about 1.8x, so this is not
part of tier-1; pytest does not collect this file. The exit code is
pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lanefuse"


def executable_lines(path: Path) -> set[int]:
    """Lines that own bytecode in ``path``'s module and every code object in it."""
    lines, pending = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        # Only frames of the package get a local tracer; the rest run untraced.
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    args = ["-q", "--continue-on-collection-errors", *(argv or [str(ROOT / "tests")])]
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - {n for f, n in ran if f == str(path)}):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{total - missed} of {total} executable lines ran; {missed} did not")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
