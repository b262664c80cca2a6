"""The names that the benchmark in perfbench/ reads from the package exist.

perfbench/tracer.py wraps one function of each layer by its attribute path,
perfbench/run.py times a fresh interpreter that runs its SETUP_CODE, and
perfbench/parity.py builds _speed.c and compares it with _speed_py.  A
package change that breaks one of these names would otherwise fail only in
a benchmark run.  The two files are read as source, not imported or run."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC, child_env

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def assigned(path: Path, name: str) -> ast.expr:
    """The expression that the top level of the file assigns to name."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


# (layer, module, attribute path) of each hook; the rest of a hook is code
HOOKS = [
    tuple(ast.literal_eval(part) for part in hook.elts[:3])
    for hook in assigned(PERFBENCH / "tracer.py", "HOOKS").elts
]


@pytest.mark.parametrize("layer, module, path", HOOKS, ids=[f"{m}.{p}" for _, m, p in HOOKS])
def test_every_hooked_function_resolves(layer, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_setup_code_runs_in_a_fresh_interpreter():
    code = ast.literal_eval(assigned(PERFBENCH / "run.py", "SETUP_CODE"))
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_what_the_parity_gate_reads_exists():
    from abeforge import _speed_py

    assert (SRC / "abeforge" / "_speed.c").is_file()
    assert callable(_speed_py.search_tables)
