"""A pytest plugin that lists the package statements no test executes.

Run it from the repository root, with the suite's usual arguments:

    PYTHONPATH=src:tests python -m pytest -q -p unreached

It records every line run in ``src/emotionforge/*.py``, in every thread,
with ``sys.settrace`` and ``threading.settrace`` (the standard library only;
``coverage`` is not needed). At the end of the session it writes each
statement that no test executed as ``file:line: source``. Docstrings and
``global``/``nonlocal`` declarations, which run no line, are not statements
here. A statement counts as executed when any line it spans ran,
so an ``if``, ``for`` or ``def`` counts when its header or its body did.
Code run in a subprocess is not seen, and tracing makes the suite slower.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = _ROOT / "src" / "emotionforge"
_ran: dict[str, set[int]] = {str(p): set() for p in sorted(_PACKAGE.glob("*.py"))}
_lines_of: dict[str, set[int] | None] = {}  # by co_filename, as the code names its file


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _lines_of:
        _lines_of[name] = _ran.get(os.path.realpath(name))
    lines = _lines_of[name]
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def unreached(source: str, ran: set[int]) -> list[int]:
    """The first line of each statement in ``source`` that spans no line in
    ``ran``, in order; docstrings and declarations excluded."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node) is not None}
    found = set()
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        if ran.isdisjoint(range(first, node.end_lineno + 1)):
            found.add(node.lineno)
    return sorted(found)


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # the earliest hook a ``-p`` plugin gets: before any conftest or test
    # module imports the package, so module-level statements are seen too
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("statements no test executed")
    count = 0
    for path, ran in _ran.items():
        source = Path(path).read_text()
        text = source.splitlines()
        for line in unreached(source, ran):
            terminalreporter.write_line(
                f"{os.path.relpath(path, _ROOT)}:{line}: {text[line - 1].strip()}")
            count += 1
    terminalreporter.write_line(f"{count} statements unreached")

