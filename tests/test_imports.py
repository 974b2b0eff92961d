"""The package imports nothing at run time beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import sixteenrank

SOURCES = sorted(Path(sixteenrank.__file__).parent.glob("*.py"))


def imported_modules(path):
    # the top-level name of every absolute import, lazy ones inside functions too
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_sources_import_only_stdlib_and_numpy():
    assert SOURCES
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = {
        (path.name, name)
        for path in SOURCES
        for name in imported_modules(path)
        if name not in allowed
    }
    assert outside == set()
