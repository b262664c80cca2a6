"""Every module-level import is read in its own file, and only the
benchmark's contract imports the complete search.

A name imported and never read is a dead import: it costs start-up time
in the package, and in tests it hides what a file really uses.  A name
counts as read when it is loaded as a name anywhere in the file or is
listed in the file's `__all__`; imports under `if TYPE_CHECKING:` count
as module-level, and `from __future__` imports are exempt."""

import ast
from pathlib import Path

from conftest import SRC

TESTS = Path(__file__).resolve().parent


def module_imports(tree: ast.Module):
    """The module-level import statements, those under `if TYPE_CHECKING:` included."""
    for node in tree.body:
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            yield from (sub for sub in node.body if isinstance(sub, (ast.Import, ast.ImportFrom)))
        elif isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            yield node


def bound_names(node) -> list[str]:
    """The names an import statement binds: `import a.b` binds `a`."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    return [alias.asname or alias.name for alias in node.names if alias.name != "*"]


def exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def dead_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
    used = loaded | exported(tree)
    return [name for node in module_imports(tree) for name in bound_names(node) if name not in used]


def test_no_module_level_import_is_dead():
    files = sorted((SRC / "abeforge").glob("*.py")) + sorted(TESTS.glob("*.py"))
    dead = [f"{path.parent.name}/{path.name}: {name}" for path in files for name in dead_imports(path)]
    assert not dead, f"imported at module level but never read: {dead}"


def test_only_the_benchmark_contract_imports_the_complete_search():
    # the tests read ground_search; only the benchmark's parity gate reads
    # abeforge._speed_py, so deleting it touches one test file
    readers = {
        path.name
        for path in TESTS.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "abeforge._speed_py" in f"{getattr(node, 'module', '')}.{alias.name}"
    }
    assert readers == {"test_benchmark_contract.py"}
