"""Source checks that need no run: every module-level import is used, and
every module-level private function or class is referenced in the package."""

import ast
from pathlib import Path

import pytest

import entrofv

MODULES = sorted(p for p in Path(entrofv.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports only to re-export


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_are_used(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_flags_a_stranded_name():
    assert _unused_imports("from typing import Optional, Union\n"
                           "import numpy as np\n"
                           "x: Optional[int] = None\n") == ["Union (line 1)", "np (line 2)"]


def _unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` functions and classes that no module refers
    to, by name or as an attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in used]


def test_private_definitions_are_referenced():
    assert _unreferenced_private({p.name: p.read_text() for p in MODULES}) == []


def test_private_definition_check_flags_a_stranded_helper():
    assert _unreferenced_private({"a.py": "def _used():\n    pass\n\n"
                                          "class _Stranded:\n    pass\n",
                                  "b.py": "from a import _used\n_used()\n"}) == \
        ["a.py: _Stranded"]
