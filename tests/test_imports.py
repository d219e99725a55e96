"""Static checks over src/: every imported name is used, and every
top-level function or class is referenced outside its own definition.

No linter ships with the project, so unused imports and dead code are
caught here with the standard library's ast.  __future__ imports are
skipped.  A public function or class with no reference in src/ is dead
unless KEPT_UNREFERENCED names it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Public definitions that stay although nothing in src/ calls them.
KEPT_UNREFERENCED = {
    # LID F1 of a head on raw examples: the criteria 07/08 protocol scores
    # with it, and benchmark/tracing.py spans it
    "evaluate_lid",
    # reads back the embedding dump the analyze stage writes
    "load_embedding_dump",
    # reads back the projection CSV the analyze stage writes
    "load_projection_csv",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never referenced."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_only_unreferenced_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as parse\n"
        "def f(x: np.ndarray):\n"
        "    return os.path.join(parse(x))\n"
    )
    assert unused_imports(source) == ["dumps"]


def src_sources() -> dict[str, str]:
    return {path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
            for path in sorted(SRC.rglob("*.py"))}


def test_no_unused_imports_in_src():
    found = {name: unused_imports(source)
             for name, source in src_sources().items()}
    assert {name: names for name, names in found.items() if names} == {}


def definitions(source: str) -> set[str]:
    """Top-level functions and classes (dunder names excluded)."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("__")}


def referenced_names(source: str) -> set[str]:
    """Names read, reached as attributes, or imported anywhere in source,
    leaving out each top-level definition's references to itself."""
    found = set()
    for statement in ast.parse(source).body:
        names = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
            names.discard(statement.name)
        found |= names
    return found


def dead_definitions(sources: dict[str, str]) -> dict[str, list[str]]:
    """Per file, the top-level definitions no source references."""
    referenced = set().union(*(referenced_names(s) for s in sources.values()))
    dead = {name: sorted(definitions(source) - referenced)
            for name, source in sources.items()}
    return {name: names for name, names in dead.items() if names}


def test_private_checker_sees_definitions_and_references():
    source = (
        "from m import _imported\n"
        "class _Used: pass\n"
        "def _dead(): return _Used()\n"
        "def __dunder__(): pass\n"
        "def public(x): return x._method\n"
    )
    assert definitions(source) == {"_Used", "_dead", "public"}
    assert {"_imported", "_Used", "_method"} <= referenced_names(source)
    assert "_dead" not in referenced_names(source)
    # a reference from inside the definition itself does not count
    source = (
        "def entry(): return helper()\n"
        "def helper(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Node:\n"
        "    def child(self): return Node()\n"
    )
    assert dead_definitions({"m.py": source}) == {
        "m.py": ["Node", "entry", "recursive"]}


def test_no_dead_private_helpers_in_src():
    dead = {name: [n for n in names if n.startswith("_")]
            for name, names in dead_definitions(src_sources()).items()}
    assert {name: names for name, names in dead.items() if names} == {}


def test_no_dead_public_definitions_in_src():
    dead = {name: [n for n in names if not n.startswith("_")]
            for name, names in dead_definitions(src_sources()).items()}
    unlisted = {name: [n for n in names if n not in KEPT_UNREFERENCED]
                for name, names in dead.items()}
    assert {name: names for name, names in unlisted.items() if names} == {}
    # a kept name that gains a caller in src/ leaves the list
    assert KEPT_UNREFERENCED <= set().union(*dead.values())
