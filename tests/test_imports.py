"""Static checks over src/: every imported name is used; every
top-level function or class, and every method or property of a class, is
referenced outside its own definition; every dataclass or NamedTuple
field is read somewhere; and every keyword default is set by some call.

No linter ships with the project, so unused imports and dead code are
caught here with the standard library's ast.  __future__ imports are
skipped.  A public definition with no reference in src/ is dead unless
KEPT_UNREFERENCED names it.  A method or property is matched by its
attribute name alone, so one whose name another class also defines or
holds is never flagged: an unread ClassifierHead.n_classes property
passed because TaskSpec.n_classes is read.  A field counts as read when its name is
loaded as an attribute, or named by getattr, anywhere in src/; an unread
field fails unless KEPT_UNREAD names it.  A parameter with a default is
set when a call in src/ of the same name passes it by keyword, by
position, or through * or ** unpacking; calls are matched by name alone,
so a method that shares its name with another hides the other's unset
options.  An unset one fails unless KEPT_UNSET names it.  No module
imports an underscore name from another langlab module: what two modules
share is public.  Only langlab/process.py imports ctypes: the state a
process runs under is set in one place.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TRACING = SRC.parent / "benchmark" / "tracing.py"

# Public definitions that stay although nothing in src/ calls them.
KEPT_UNREFERENCED = {
    # LID F1 of a head on raw examples: the criteria 07/08 protocol scores
    # with it, and benchmark/tracing.py spans it
    "evaluate_lid",
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


def private_imports(source: str) -> list[str]:
    """Underscore names imported from a langlab module, absolutely or
    relatively, as module.name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "langlab"):
            module = "." * node.level + (f"{node.module}." if node.module else "")
            found += [module + a.name for a in node.names
                      if a.name.startswith("_")]
    return sorted(found)


def test_private_import_checker_sees_langlab_modules_only():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from langlab.pipeline import _write_json, run_experiment\n"
        "from .files import _tmp_path, write_file\n"
        "from . import _helpers\n"
    )
    assert private_imports(source) == [
        "._helpers", ".files._tmp_path", "langlab.pipeline._write_json"]


def test_no_private_imports_across_src_modules():
    found = {name: private_imports(source)
             for name, source in src_sources().items()}
    assert {name: names for name, names in found.items() if names} == {}


def imports_ctypes(source: str) -> bool:
    """Whether source imports ctypes or one of its submodules, in any
    form."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if any(m.partition(".")[0] == "ctypes" for m in modules):
            return True
    return False


def test_ctypes_checker_sees_every_import_form():
    for line in ("import ctypes", "import os, ctypes.util as cu",
                 "from ctypes import CDLL", "def f():\n    import ctypes"):
        assert imports_ctypes(line + "\n"), line
    assert not imports_ctypes("import ctypeslib\nfrom .ctypes import x\n")


def test_only_the_process_module_reaches_c_libraries():
    # the process regime (BLAS threads, heap policy) is state of the whole
    # process: one module sets it, when langlab is imported
    assert [name for name, source in src_sources().items()
            if imports_ctypes(source)] == ["langlab/process.py"]


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


# Keyword defaults that stay although no call in src/ sets them.
KEPT_UNSET = {
    # benchmark/child.py runs its t-SNE check at learning rate 50
    "tsne.learning_rate",
    # the benchmark and the tests call main with their own argument list
    "main.argv",
}


def defaulted_parameters(source: str) -> dict[str, tuple[str, int | None]]:
    """Each parameter with a default of a top-level function or a method,
    as "f.param" or "Class.m.param", mapped to (called name, position).
    A method is called by its own name and __init__ by its class's, and
    position counts the call's arguments (None: keyword-only)."""
    found = {}

    def add(fn, called, qualname, skip_first):
        args = [*fn.args.posonlyargs, *fn.args.args][skip_first:]
        for pos, arg in enumerate(args[len(args) - len(fn.args.defaults):],
                                  start=len(args) - len(fn.args.defaults)):
            found[f"{qualname}.{arg.arg}"] = (called, pos)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                found[f"{qualname}.{arg.arg}"] = (called, None)

    for node in ast.parse(source).body:
        if isinstance(node, FUNCTIONS):
            add(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    called = node.name if item.name == "__init__" else item.name
                    add(item, called, f"{node.name}.{item.name}", 0 if static else 1)
    return found


def set_parameters(source: str) -> set[tuple[str, str | int]]:
    """(called name, keyword or position) for every argument a call
    passes; "*" stands for every position from a *-unpacking on, and "**"
    for every keyword."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for pos, arg in enumerate(node.args):
            found.add((called, ("*", pos) if isinstance(arg, ast.Starred) else pos))
        found |= {(called, kw.arg or "**") for kw in node.keywords}
    return found


def unset_options(sources: dict[str, str]) -> dict[str, list[str]]:
    """Per file, the defaulted parameters no call in any source sets."""
    calls = set().union(*(set_parameters(s) for s in sources.values()))
    starred = {}
    for called, key in calls:
        if isinstance(key, tuple):
            starred[called] = min(starred.get(called, key[1]), key[1])

    def is_set(option, called, pos):
        return ((called, option.rpartition(".")[2]) in calls
                or (called, "**") in calls
                or pos is not None and ((called, pos) in calls
                                        or starred.get(called, pos + 1) <= pos))

    unset = {name: sorted(option for option, (called, pos)
                          in defaulted_parameters(source).items()
                          if not is_set(option, called, pos))
             for name, source in sources.items()}
    return {name: options for name, options in unset.items() if options}


def test_option_checker_sees_defaults_and_calls():
    source = (
        "class Box:\n"
        "    def __init__(self, size=1, *, label=''): pass\n"
        "    def grow(self, by=1, times=1): pass\n"
        "    @staticmethod\n"
        "    def make(size=1): pass\n"
        "def run(a, b=2, c=3, *, d=4, e=5, f=6): pass\n"
        "def spread(x=0, y=0): pass\n"
        "def entry(box, kw, args):\n"
        "    Box(label='a')\n"
        "    box.grow(2)\n"
        "    Box.make(3)\n"
        "    run(1, 2, e=0, **kw)\n"
        "    spread(1, *args)\n"
    )
    assert defaulted_parameters(source) == {
        "Box.__init__.size": ("Box", 0), "Box.__init__.label": ("Box", None),
        "Box.grow.by": ("grow", 0), "Box.grow.times": ("grow", 1),
        "Box.make.size": ("make", 0),
        "run.b": ("run", 1), "run.c": ("run", 2), "run.d": ("run", None),
        "run.e": ("run", None), "run.f": ("run", None),
        "spread.x": ("spread", 0), "spread.y": ("spread", 1)}
    # keyword, position, * and ** all set a parameter; an unset one is
    # flagged
    assert unset_options({"m.py": source}) == {
        "m.py": ["Box.__init__.size", "Box.grow.times"]}


def test_no_unset_options_in_src():
    unset = unset_options(src_sources())
    unlisted = {name: [o for o in options if o not in KEPT_UNSET]
                for name, options in unset.items()}
    assert {name: options for name, options in unlisted.items() if options} == {}
    # a kept option that gains a setter in src/ leaves the list
    assert KEPT_UNSET <= set().union(*unset.values())


def test_benchmark_tracer_targets_resolve():
    """Every (module, function) the benchmark's tracer wraps, and the two
    langlab.pipeline globals its taps swap, still resolve: a rename or a
    deletion would otherwise only empty a per-layer metric."""
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [*tracing.TARGETS, ("langlab.pipeline", "tsne"),
             ("langlab.pipeline", "pretrain_encoder")]
    assert [f"{module}.{name}" for module, name in names if not callable(
        getattr(importlib.import_module(module), name, None))] == []
