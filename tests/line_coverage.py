"""Line coverage of ``src/lanefuse`` under the tier-1 suite, standard library only.

    python tests/line_coverage.py [pytest arguments]

Runs pytest in this process (by default the whole suite, as
``pytest -q --continue-on-collection-errors``) with a ``sys.settrace`` /
``threading.settrace`` line tracer, then checks the executable lines of
``src/lanefuse`` that did not run against ``tests/unrun_lines.json``. That
list names each line accepted as unrun by its file and its source text (so
that edits elsewhere in the file do not move it), with a one-line reason; a
text that occurs on several unrun lines is listed once for each. The script
prints each unrun line that is not listed, as ``path:line: source``, and each
listed line that now runs, then a count. It exits non-zero if pytest fails
or if either kind of line exists.

Extra arguments go to pytest in place of the default test paths; a part of
the suite leaves more lines unrun, so the script then prints every unrun
line and exits with pytest's code. Code run in a subprocess (a test that
starts the CLI or a stub server as a program) is not traced. The tracer
slows the suite by about 1.5x, so this is not part of tier-1; pytest does not
collect this file.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lanefuse"
ACCEPTED = Path(__file__).with_name("unrun_lines.json")


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

    accepted = Counter(
        (entry["file"], entry["source"]) for entry in json.loads(ACCEPTED.read_text("utf-8"))
    )
    total = missed = 0
    unrun = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - {n for f, n in ran if f == str(path)}):
            missed += 1
            key = (path.name, source[line - 1].strip())
            unrun[key] += 1
            if argv or unrun[key] > accepted[key]:
                print(f"{path.relative_to(ROOT)}:{line}: {key[1]}")
    print(f"{total - missed} of {total} executable lines ran; {missed} did not")
    if argv:
        return int(code)
    ran_listed = accepted - unrun
    for (name, text), count in sorted(ran_listed.items()):
        print(f"listed in {ACCEPTED.name} but ran: {name}: {text}" + f" (x{count})" * (count > 1))
    unlisted = sum((unrun - accepted).values())
    print(f"{unlisted} unrun lines not listed; {sum(ran_listed.values())} listed lines ran")
    return int(code) or int(bool(unlisted or ran_listed))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
