"""What a module of the package exports resolves, and something reads it.

A stale `__all__` entry breaks only `from abeforge.<module> import *`, which
nothing else in the tests runs.  A public name that nothing in the package
reads is a second implementation or a helper that belongs in tests/; the
benchmark's names count as read, since perfbench/ reads them by path.  An
exception class of the package must be named by one of its `except` clauses."""

import ast
import builtins
import importlib
import pkgutil

import pytest

import abeforge
from conftest import PERFBENCH, SRC, assigned, tracer_hooks

MODULES = [info.name for info in pkgutil.iter_modules(abeforge.__path__, "abeforge.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def defined_names(node: ast.stmt) -> set[str]:
    """The names that a top-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def read_names(node: ast.AST) -> set[str]:
    """Every name read in node: a loaded name, an attribute, an imported name."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def benchmark_names() -> set[str]:
    """Each part of a hooked attribute path, and each name SETUP_CODE imports."""
    setup = ast.parse(ast.literal_eval(assigned(PERFBENCH / "run.py", "SETUP_CODE")))
    return {part for (_, _, path), _ in tracer_hooks() for part in path.split(".")} | read_names(setup)


def test_every_exported_name_is_read_by_the_package_or_the_benchmark():
    exported = {}  # module stem -> its __all__
    reads = set()  # (module stem, top-level names it binds, names read there)
    for path in sorted((SRC / "abeforge").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if defined_names(node) == {"__all__"}:
                exported[path.stem] = ast.literal_eval(node.value)
            else:
                reads.add((path.stem, frozenset(defined_names(node)), frozenset(read_names(node))))
    # a read inside the name's own definition, such as a recursive call, does not count
    read = {
        (module, name)
        for module, names in exported.items()
        for name in names
        if any(name in used and not (stem == module and name in bound) for stem, bound, used in reads)
    }
    unread = sorted(
        f"{module}.{name}"
        for module, names in exported.items()
        for name in names
        if (module, name) not in read and name not in benchmark_names()
    )
    assert not unread, f"exported, but read only outside the package and the benchmark: {unread}"


def test_every_exception_class_is_caught_by_name():
    # an exception class that no `except` names is told apart from a plain
    # ValueError by no caller: its message can say the same
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((SRC / "abeforge").glob("*.py"))]
    classes = {node.name: node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}

    def is_exception(name: str) -> bool:
        if name in classes:
            return any(isinstance(base, ast.Name) and is_exception(base.id) for base in classes[name].bases)
        builtin = getattr(builtins, name, None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    caught = {
        name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        for name in read_names(node.type)
    }
    uncaught = sorted(name for name in classes if is_exception(name) and name not in caught)
    assert not uncaught, f"exception classes that no except clause of the package names: {uncaught}"
