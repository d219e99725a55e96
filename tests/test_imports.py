"""Static checks over src/: every imported name is used, and every
top-level private function or class is referenced.

No linter ships with the project, so unused imports and dead private
helpers are caught here with the standard library's ast.  For imports,
package __init__ modules are skipped (their imports are re-exports), and
so are __future__ imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_no_unused_imports_in_src():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            found[path.relative_to(SRC).as_posix()] = names
    assert found == {}


def private_definitions(source: str) -> set[str]:
    """Top-level functions and classes named _x (dunder names excluded)."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def referenced_names(source: str) -> set[str]:
    """Names read, reached as attributes, or imported anywhere in source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_private_checker_sees_definitions_and_references():
    source = (
        "from m import _imported\n"
        "class _Used: pass\n"
        "def _dead(): return _Used()\n"
        "def __dunder__(): pass\n"
        "def public(x): return x._method\n"
    )
    assert private_definitions(source) == {"_Used", "_dead"}
    assert {"_imported", "_Used", "_method"} <= referenced_names(source)
    assert "_dead" not in referenced_names(source)


def test_no_dead_private_helpers_in_src():
    sources = {path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
               for path in sorted(SRC.rglob("*.py"))}
    referenced = set().union(*(referenced_names(s) for s in sources.values()))
    dead = {name: sorted(private_definitions(source) - referenced)
            for name, source in sources.items()}
    assert {name: helpers for name, helpers in dead.items() if helpers} == {}
