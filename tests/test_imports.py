"""The package imports nothing at run time beyond the standard library and
numpy, and its `__all__` lists exactly the public names it imports."""

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


def test_all_lists_every_imported_public_name_once():
    names = sixteenrank.__all__
    assert [name for name in names if not hasattr(sixteenrank, name)] == []
    assert names == sorted(set(names))
    init = ast.parse(Path(sixteenrank.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {name for name in imported if not name.startswith("_")} <= set(names)
