"""Static checks over src/: every imported name is used, and every
top-level function or class, and every method or property of a class, is
referenced outside its own definition.

No linter ships with the project, so unused imports and dead code are
caught here with the standard library's ast.  __future__ imports are
skipped.  A public definition with no reference in src/ is dead unless
KEPT_UNREFERENCED names it.
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(source: str) -> set[str]:
    """Top-level functions and classes, and each class's methods and
    properties as Class.name (dunder names excluded)."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            found.add(node.name)
        if isinstance(node, ast.ClassDef):
            found |= {f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, FUNCTIONS)}
    return {name for name in found
            if not name.rpartition(".")[2].startswith("__")}


def references(node) -> set[str]:
    """Names read, reached as attributes, or imported under node, leaving
    out each function's, method's or class's references to itself.  An
    attribute is also recorded as ".name": a method is reached only so."""
    if isinstance(node, ast.ClassDef):
        parts = [*node.decorator_list, *node.bases, *node.keywords, *node.body]
        return set().union(*map(references, parts)) - {node.name}
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names |= {child.attr, "." + child.attr}
        elif isinstance(child, ast.alias):
            names.add(child.name)
    if isinstance(node, FUNCTIONS):
        names -= {node.name, "." + node.name}
    return names


def referenced_names(source: str) -> set[str]:
    return set().union(*map(references, ast.parse(source).body))


def reference_key(definition: str) -> str:
    """How a definition is referenced: f as "f", Class.m as ".m"."""
    name, dot, member = definition.partition(".")
    return dot + member if dot else name


def dead_definitions(sources: dict[str, str]) -> dict[str, list[str]]:
    """Per file, the definitions no source references."""
    referenced = set().union(*(referenced_names(s) for s in sources.values()))
    dead = {name: sorted(d for d in definitions(source)
                         if reference_key(d) not in referenced)
            for name, source in sources.items()}
    return {name: names for name, names in dead.items() if names}


def is_private(definition: str) -> bool:
    return definition.rpartition(".")[2].startswith("_")


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
        "m.py": ["Node", "Node.child", "entry", "recursive"]}


def test_checker_sees_methods_reached_only_as_attributes():
    source = (
        "class Box:\n"
        "    def __len__(self): return self.size()\n"
        "    def size(self): return 1\n"
        "    @property\n"
        "    def empty(self): return self.empty\n"
        "    def _spare(self): pass\n"
        "def entry(empty): return Box(), empty\n"
    )
    assert definitions(source) == {"Box", "Box.size", "Box.empty",
                                   "Box._spare", "entry"}
    # a bare name is no method call, and a method's use of itself is no use
    assert dead_definitions({"m.py": source}) == {
        "m.py": ["Box._spare", "Box.empty", "entry"]}
    assert is_private("Box._spare") and not is_private("Box.size")


def test_no_dead_private_helpers_in_src():
    dead = {name: [n for n in names if is_private(n)]
            for name, names in dead_definitions(src_sources()).items()}
    assert {name: names for name, names in dead.items() if names} == {}


def test_no_dead_public_definitions_in_src():
    dead = {name: [n for n in names if not is_private(n)]
            for name, names in dead_definitions(src_sources()).items()}
    unlisted = {name: [n for n in names if n not in KEPT_UNREFERENCED]
                for name, names in dead.items()}
    assert {name: names for name, names in unlisted.items() if names} == {}
    # a kept name that gains a caller in src/ leaves the list
    assert KEPT_UNREFERENCED <= set().union(*dead.values())
