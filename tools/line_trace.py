"""Which lines of the package Tier-1 never runs.

Runs the test suite in this process under ``sys.settrace`` and
``threading.settrace``, records every line of ``src/slidingesc`` that
runs, and counts a module's executable lines from the line table
(``co_lines``) of each of its code objects.  It prints each line that
never ran and exits 1 if any lies outside the two places no in-process
tracer can reach: the forked child's block (``if pid == 0:``) in
``_tables._write_split``, which runs in another process, and the body
of ``cli``'s ``if __name__ == "__main__":`` guard.  A failing suite
exits with pytest's status.  Stdlib and pytest only:

    python tools/line_trace.py [pytest arguments]
"""

import ast
import os
import sys
import threading
import types

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "slidingesc")
PREFIX = PACKAGE + os.sep


def executable_lines(path):
    """The line numbers of the file ``path`` that its code objects'
    line tables name."""
    with open(path, encoding="utf-8") as fh:
        codes = [compile(fh.read(), path, "exec")]
    lines = set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


# the two places no in-process tracer reaches, by file: the body of the
# ``if`` statement with this test
KNOWN = {"_tables.py": "pid == 0", "cli.py": "__name__ == '__main__'"}


def known_lines(path):
    """The lines of the file ``path`` in the body of its ``if`` statement
    that ``KNOWN`` names, if any."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and ast.unparse(node.test)
                == KNOWN.get(os.path.basename(path))):
            for statement in node.body:
                lines.update(range(statement.lineno,
                                   statement.end_lineno + 1))
    return lines


def main(args):
    ran = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(PREFIX):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        return status

    total, never, outside = 0, [], []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        missed = sorted(line for line in lines if (path, line) not in ran)
        known = known_lines(path)
        total += len(lines)
        never += [(name, line) for line in missed]
        outside += [(name, line) for line in missed if line not in known]
    for name, line in never:
        where = "" if (name, line) in outside else " (known)"
        print(f"never run: src/slidingesc/{name}:{line}{where}")
    print(f"{total} executable lines, {len(never)} never run, "
          f"{len(outside)} of them outside the known places")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["-q", "-p", "no:cacheprovider"]))
