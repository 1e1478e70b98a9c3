"""Line coverage of the package's functions, as a pytest plugin.

Run it as ``PYTHONPATH=src:tests python -m pytest -q -p linecov``. It traces
every frame whose code lives under ``src/sitsgraph`` with ``sys.settrace``
and ``threading.settrace`` (Python 3.11 has no ``sys.monitoring``), and
counts the lines of every function, lambda and comprehension there, less
the ``def`` line. Module and class bodies run at import and are not
counted. At the end it prints each line that never ran and fails the run
(exit 1) unless that line's stripped source text is a key of ``ALLOWED``,
whose value says why the line may stay unrun. Entries match on text, not
line numbers, so they survive edits elsewhere in the file.

It sees only this process and the threads it starts: a CLI run in a
subprocess is not traced, nor is a forked ``segment`` worker (the serial
path runs the same per-date function here), so a line that only such runs
reach counts as unrun. Tracing adds about half to the suite's run time, which is why the
plugin is not part of the default run.
"""

from __future__ import annotations

import inspect
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = str(Path(__file__).resolve().parents[1] / "src" / "sitsgraph")

ALLOWED: dict[str, str] = {}

_ran: set[tuple[str, int]] = set()
_unrun: list[str] = []


def _local(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(PACKAGE) else None


def _function_lines(code: types.CodeType, is_function: bool = False):
    if is_function:
        yield from (line for start, end, line in code.co_lines() if line and start < end and line != code.co_firstlineno)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _function_lines(const, bool(const.co_flags & inspect.CO_NEWLOCALS))


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests():
    # before the conftests import the package, so code run at import counts
    sys.settrace(_global)
    threading.settrace(_global)


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    for path in sorted(Path(PACKAGE).rglob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        code = compile(text, str(path), "exec")
        for line in sorted(set(_function_lines(code)) - {n for f, n in _ran if f == str(path)}):
            if source[line - 1].strip() not in ALLOWED:
                _unrun.append(f"{path.relative_to(Path(PACKAGE).parents[1])}:{line}: {source[line - 1].strip()}")
    if _unrun:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_sep("-", f"linecov: {len(_unrun)} unrun lines in {PACKAGE}")
    for entry in _unrun:
        terminalreporter.write_line(entry)
