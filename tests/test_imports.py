"""Every import in the package's modules is used, and every private
module-level name is read somewhere in the package."""

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


def unread_private_names(sources: list[str]) -> list[str]:
    """Private module-level names (one leading underscore) that the sources
    define, by def, class or assignment, and no source reads."""
    defined, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        read |= {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_the_dead_name_checker_sees_unread_helpers():
    sources = ["_A = 1\n_B, c = 2, 3\n__all__ = []\ndef _f():\n    return _A\n",
               "class _K:\n    pass\ndef _g():\n    return _f()\n"]
    assert unread_private_names(sources) == ["_B", "_K", "_g"]


def test_package_has_no_unread_private_name():
    assert unread_private_names([path.read_text() for path in MODULES]) == []
