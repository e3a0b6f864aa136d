"""Source checks that need no run: every module-level import is used, every
module-level private function or class is referenced in the package, and
every field of its records is read somewhere."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

import entrofv
from entrofv.presets import RunConfig

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


def test_package_stays_within_its_line_budget():
    """The package's modules, ``__init__.py`` included, total at most 2850
    lines: growth must pay for itself by removing code."""
    paths = Path(entrofv.__file__).parent.glob("*.py")
    assert sum(len(path.read_text().splitlines()) for path in paths) <= 2850


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


READERS = sorted([*Path(__file__).parent.glob("*.py"),
                  *(Path(__file__).parent.parent / "bench").glob("*.py")])


def _is_record(node: ast.stmt) -> bool:
    """A class decorated with ``dataclass`` (called or not) or derived from
    ``NamedTuple``."""
    if not isinstance(node, ast.ClassDef):
        return False
    names = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(n, ast.Name) and n.id == "dataclass" for n in names) or \
        any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)


def _unread_fields(package: dict[str, str], readers: list[str]) -> list[str]:
    """Fields of the package's dataclasses and NamedTuples that neither the
    package nor any of ``readers`` reads as an attribute."""
    read = {node.attr for source in [*package.values(), *readers]
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{name}: {node.name}.{item.target.id}"
            for name, source in package.items() for node in ast.parse(source).body
            if _is_record(node) for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and item.target.id not in read]


def test_dataclass_fields_are_read():
    assert _unread_fields({p.name: p.read_text() for p in MODULES},
                          [p.read_text() for p in READERS]) == []


def test_unread_field_check_flags_a_stranded_field():
    package = {"a.py": "from dataclasses import dataclass\n"
                       "from typing import NamedTuple\n\n"
                       "@dataclass(frozen=True)\nclass A:\n    used: int\n    kept: int\n"
                       "    written: int\n\n"
                       "class B(NamedTuple):\n    x: float\n    y: float\n\n"
                       "class Plain:\n    z: int\n"}
    readers = ["def f(a, b):\n    a.written = b.x\n    return a.used\n",
               "print(some.kept)\n"]
    assert _unread_fields(package, readers) == ["a.py: A.written", "a.py: B.y"]


def test_readme_lists_every_run_option():
    """README's ``entrofv run`` synopsis has a flag for every RunConfig field
    but the preset, and its config-file "Keys:" list names every field; the
    Debye length is ``lambda`` in both."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = text[text.index("entrofv run <"):text.index("entrofv convergence")]
    listed = text.split("Keys: `", 1)[1].split("`", 1)[0]
    names = {"lambda" if f.name == "debye" else f.name for f in fields(RunConfig)}
    flags = {flag.replace("-", "_") for flag in re.findall(r"\[--([\w-]+)", synopsis)}
    assert flags == names - {"preset"}
    assert {item.split()[0] for item in listed.split(",")} == names


def test_readme_names_every_linalg_constant():
    """README's ``entrofv.linalg`` row names every upper-case constant of the
    module, so a tuning knob cannot hide from its reader."""
    from entrofv import linalg
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    row = next(line for line in text.splitlines() if line.startswith("| `entrofv.linalg` |"))
    constants = [name for name in vars(linalg) if re.fullmatch(r"[A-Z][A-Z0-9_]+", name)]
    assert "REFINE_EPS" in constants
    assert [name for name in constants if not re.search(rf"\b{name}\b", row)] == []
