"""Every import in the package's modules is used."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).parent.parent / "src" / "infoquad").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.  A name listed in __all__
    counts as read, and `from __future__ import ...` binds no name."""
    tree = ast.parse(source)
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [name for name in imported if name not in read]


def test_the_checker_sees_unused_and_exported_names():
    source = ("from __future__ import annotations\nimport os, sys\nimport numpy as np\n"
              "from json import dump, load\n__all__ = ['load']\nprint(sys.argv, np)\n")
    assert unused_imports(source) == ["os", "dump"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
