"""Line reach: every executable line of ``src/cdindex`` runs under some test.

Run from the repository root:

    PYTHONPATH=src python tests/reach.py

The whole suite runs in this process under ``sys.settrace`` and
``threading.settrace``, both started before ``cdindex`` is imported, so
``def`` and ``class`` lines count.  A line is executable when
``co_lines()`` of one of a module's code objects lists it; a docstring is
not.  Hypothesis draws at seed 0, so no line's reach depends on a random
draw.  The check fails on each executable line that no test runs, printed
as ``file:line`` with its function, unless ``UNRUN`` lists it; it fails
too on a stale entry, whose snippet is gone or runs now, and when a test
fails.

It also prints, without failing, the lines that only unit tests run: the
lines not run while ``test_acceptance.py`` and ``test_corpus.py`` ran.
Those two files run first in a session of their own, so no cache that a
unit test fills hides a line from them; the whole suite follows.

A code object stops being traced once each of its lines has run in the
session at hand.  Pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cdindex"
END_TO_END = ["test_acceptance.py", "test_corpus.py"]
ARGS = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]

# (module file, function, source snippet, reason) of lines no traced test
# runs; the snippet is the run of source lines, stripped, and its
# executable lines are the entry's
UNRUN = [
    (
        "cli.py",
        "main",
        "devnull = os.open(os.devnull, os.O_WRONLY)\n"
        "os.dup2(devnull, sys.stdout.fileno())\n"
        "os.close(devnull)\n"
        "return EXIT_PIPE",
        "a closed pipe on stdout, as CI's `head -n 2` step gives a child process",
    ),
    (
        "cli.py",
        "<module>",
        "sys.exit(main())",
        "the `__main__` guard: every `python -m cdindex.cli` call runs it in a child process",
    ),
]


def _executable(path: Path) -> dict[int, str]:
    """Each executable line of a module, with the function whose code holds it.

    A line that an inner code object shares with its outer one, such as a
    ``def`` line, belongs to the inner one.
    """
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = {}
    pending = [compile(source, str(path), "exec")]
    while pending:
        code = pending.pop()
        for _, _, line in code.co_lines():
            if line and line not in docstrings:
                lines[line] = code.co_qualname
        pending += [c for c in code.co_consts if isinstance(c, type(code))]
    return lines


class _Tracer:
    """Records the package lines each session runs, per code object.

    ``tables[i]`` maps each code object called in session i to its lines
    not run yet there, or to None for code outside the package; ``own``
    keeps each package code object's lines.
    """

    def __init__(self):
        self.own: dict = {}
        self.tables: list[dict] = [{}, {}]
        self.table = self.tables[0]
        self.ours: dict[str, bool] = {}

    def todo(self, code):
        table = self.table
        try:
            return table[code]
        except KeyError:
            pass
        name = code.co_filename
        ours = self.ours.get(name)
        if ours is None:
            ours = self.ours[name] = Path(os.path.realpath(name)).parent == PACKAGE
        if not ours:
            table[code] = None
            return None
        own = self.own.get(code)
        if own is None:
            own = self.own[code] = frozenset(line for _, _, line in code.co_lines() if line)
        todo = table[code] = set(own)
        return todo

    def call(self, frame, event, arg):
        code = frame.f_code
        todo = self.todo(code)
        if todo:
            todo.discard(code.co_firstlineno)
            if todo:
                return self.line
        return None

    def line(self, frame, event, arg):
        if event != "line":
            return self.line
        todo = self.todo(frame.f_code)
        if todo is not None:
            todo.discard(frame.f_lineno)
            if todo:
                return self.line
        frame.f_trace = None
        return None

    def run(self, session: int) -> set:
        """(module file, line) of each package line run in the session."""
        return {
            (Path(code.co_filename).name, line)
            for code, todo in self.tables[session].items()
            if todo is not None
            for line in self.own[code] - todo
        }


def _ranges(lines: list) -> str:
    """``3-5, 9`` for [3, 4, 5, 9]; ranges break where the lines do."""
    out, start = [], None
    for prev, line in zip([None, *lines], lines):
        if prev is None or line != prev + 1:
            if start is not None:
                out.append(f"{start}" if start == prev else f"{start}-{prev}")
            start = line
    out.append(f"{start}" if start == lines[-1] else f"{start}-{lines[-1]}")
    return ", ".join(out)


def _excused(executable: dict, unrun: set) -> tuple[set, list]:
    """The (file, line) pairs ``UNRUN`` covers, and a message for each stale entry."""
    excused, stale = set(), []
    for name, function, snippet, _ in UNRUN:
        want = [line.strip() for line in snippet.splitlines()]
        have = [line.strip() for line in (PACKAGE / name).read_text(encoding="utf-8").splitlines()]
        starts = [i for i in range(len(have)) if have[i:i + len(want)] == want]
        lines = {
            (name, i + 1)
            for start in starts
            for i in range(start, start + len(want))
            if executable[name].get(i + 1) == function
        }
        if len(starts) != 1 or not lines:
            stale.append(f"{name} {function}: the snippet {snippet!r} occurs {len(starts)} times")
        elif not lines <= unrun:
            stale.append(f"{name} {function}: {_ranges(sorted(i for _, i in lines - unrun))} run now")
        else:
            excused |= lines
    return excused, stale


def main() -> int:
    executable = {path.name: _executable(path) for path in sorted(PACKAGE.glob("*.py"))}
    tracer = _Tracer()
    start = time.perf_counter()
    threading.settrace(tracer.call)
    sys.settrace(tracer.call)
    try:
        codes = [pytest.main([str(ROOT / "tests" / name) for name in END_TO_END] + ARGS)]
        tracer.table = tracer.tables[1]
        codes.append(pytest.main([str(ROOT / "tests")] + ARGS))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    elapsed = time.perf_counter() - start
    every = {(name, line) for name, lines in executable.items() for line in lines}
    end_to_end = tracer.run(0) & every
    run = end_to_end | tracer.run(1) & every
    unrun = every - run
    excused, stale = _excused(executable, unrun)
    never = sorted(unrun - excused)

    def where(name, lines):
        return f"src/cdindex/{name}:{_ranges(lines)} {executable[name][lines[0]]}"

    unit_only = sorted(run - end_to_end)
    groups: dict = {}
    for name, line in unit_only:
        groups.setdefault((name, executable[name][line]), []).append(line)
    print(f"\n{len(unit_only)} of {len(every)} executable lines run only under unit tests:")
    for (name, _), lines in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[1][0])):
        print("  " + where(name, lines))
    print(f"{len(run)} of {len(every)} lines run, {len(excused)} excused by UNRUN, in {elapsed:.0f} s")
    for name, line in never:
        print(f"never run: {where(name, [line])}")
    for message in stale:
        print(f"stale UNRUN entry: {message}")
    if any(codes):
        print(f"pytest exited with {codes}")
    return int(bool(never or stale or any(codes)))


if __name__ == "__main__":
    sys.exit(main())
