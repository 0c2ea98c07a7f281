"""Import hygiene: every name a library module imports is read in that module.

No linter ships with the project, so this is the unused-import check
(pyflakes F401) done with ``ast``.  ``from __future__`` imports and any
import statement carrying ``# noqa: F401`` on one of its lines are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mmgploc"


def unused_imports(source: str) -> list:
    """Names bound by the module's import statements that no expression reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            # "import a.b" binds "a"
            bound.append(alias.asname or alias.name.split(".")[0])
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(set(bound) - read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_and_exempt_imports():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path as osp\n"
              "from json import (dumps,  # noqa: F401\n"
              "                  loads)\n"
              "from math import pi, tau\n"
              "print(tau)\n")
    assert unused_imports(source) == ["os", "osp", "pi"]
