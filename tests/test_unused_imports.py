"""Every name a module under ``src/`` imports is used in that module.

Standard library only (:mod:`ast`).  A package ``__init__.py`` imports to
re-export, and a name listed in ``__all__`` is exported on purpose: both
are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _exported(tree: ast.Module) -> set[str]:
    """The strings of a module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in ast.walk(node.value)
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every name *source* imports and never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_module_in_src_imports_a_name_it_does_not_use():
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n  " + "\n  ".join(found)


def test_the_check_sees_each_kind_of_use():
    source = '''
from __future__ import annotations
import os.path
import sys as system
from dataclasses import field, replace
from typing import Iterator, Mapping
from json import dumps

__all__ = ["dumps"]


def f(x: Mapping) -> Iterator[int]:
    return os.path.join(system.prefix, field.__name__)
'''
    assert unused_imports(source) == [(5, "replace")]
