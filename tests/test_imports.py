"""Static checks over src/: every imported name is used; every
top-level function or class, and every method or property of a class, is
referenced outside its own definition; and every dataclass or NamedTuple
field is read somewhere.

No linter ships with the project, so unused imports and dead code are
caught here with the standard library's ast.  __future__ imports are
skipped.  A public definition with no reference in src/ is dead unless
KEPT_UNREFERENCED names it.  A field counts as read when its name is
loaded as an attribute, or named by getattr, anywhere in src/; an unread
field fails unless KEPT_UNREAD names it.
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


# Dataclass and NamedTuple fields that stay although nothing in src/
# reads them.
KEPT_UNREAD = {
    # the benchmark's taps read the t-SNE KL divergences
    "TsneResult.kl_initial", "TsneResult.kl_final",
    # criterion 06 checks every row's perplexity against the target
    "TsneResult.row_perplexities",
    # the tests and the benchmark's tracer read these
    "KMeansResult.centers", "KMeansResult.sse_trace", "KMeansResult.n_iter",
    # the chunking tests check which example each row came from
    "EmbeddedData.example_index",
}


def is_record(node: ast.ClassDef) -> bool:
    """A @dataclass (called or not) or a NamedTuple subclass."""
    marks = [d.func if isinstance(d, ast.Call) else d
             for d in node.decorator_list] + node.bases
    names = {getattr(m, "id", None) or getattr(m, "attr", None) for m in marks}
    return bool(names & {"dataclass", "NamedTuple"})


def record_fields(source: str) -> set[str]:
    """Each annotated field of a dataclass or NamedTuple, as Class.field."""
    return {f"{node.name}.{item.target.id}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and is_record(node)
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)}


def read_attributes(source: str) -> set[str]:
    """Attribute names loaded, and getattr's constant attribute names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def unread_fields(sources: dict[str, str]) -> dict[str, list[str]]:
    """Per file, the record fields no source reads."""
    read = set().union(*(read_attributes(s) for s in sources.values()))
    unread = {name: sorted(f for f in record_fields(source)
                           if f.partition(".")[2] not in read)
              for name, source in sources.items()}
    return {name: fields for name, fields in unread.items() if fields}


def test_field_checker_sees_records_and_reads():
    source = (
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: float\n"
        "    y: float\n"
        "    label: str = ''\n"
        "class Pair(NamedTuple):\n"
        "    left: int\n"
        "    right: int\n"
        "class Plain:\n"
        "    size: int\n"
        "def use(p, q):\n"
        "    p.label = 'a'\n"
        "    return p.x, getattr(q, 'right'), getattr(q, p.y)\n"
    )
    assert record_fields(source) == {"Point.x", "Point.y", "Point.label",
                                     "Pair.left", "Pair.right"}
    # a store is no read, nor is a getattr with a computed name
    assert unread_fields({"m.py": source}) == {
        "m.py": ["Pair.left", "Point.label"]}


def test_no_unread_record_fields_in_src():
    unread = unread_fields(src_sources())
    unlisted = {name: [f for f in fields if f not in KEPT_UNREAD]
                for name, fields in unread.items()}
    assert {name: fields for name, fields in unlisted.items() if fields} == {}
    # a kept field that gains a reader in src/ leaves the list
    assert KEPT_UNREAD <= set().union(*unread.values())
