"""The names that the benchmark in perfbench/ reads from the package exist.

perfbench/tracer.py wraps one function of each layer by its attribute path
and records what its info function reads from each call's arguments and
result, perfbench/run.py times a fresh interpreter that runs its
SETUP_CODE, and perfbench/parity.py builds _speed.c and compares it with
_speed_py.  A package change that breaks one of these names, or the shape
of what a hooked function takes or returns, would otherwise fail only in a
benchmark run.  The files are read as source, not imported or run."""

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


HOOK_NODES = assigned(PERFBENCH / "tracer.py", "HOOKS").elts
# (layer, module, attribute path) of each hook; the rest of a hook is code
HOOKS = [tuple(ast.literal_eval(part) for part in hook.elts[:3]) for hook in HOOK_NODES]


def resolve(module: str, path: str):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("layer, module, path", HOOKS, ids=[f"{m}.{p}" for _, m, p in HOOKS])
def test_every_hooked_function_resolves(layer, module, path):
    assert callable(resolve(module, path))


# (module, attribute path) -> (info, error info) of each hook, compiled from
# the expressions that tracer.py writes for them
INFO = {
    hook[1:]: tuple(eval(compile(ast.Expression(expr), "tracer.py", "eval"), {}) for expr in node.elts[3:5])
    for hook, node in zip(HOOKS, HOOK_NODES)
}


def test_info_functions_read_real_calls(corpus):
    from abeforge import search
    from abeforge.models import FiniteAlgebra

    traced = set()

    def info(module, path, *args):
        """What the hook on module.path records for one call with args."""
        on_return, on_error = INFO[module, path]
        traced.add((module, path))
        try:
            result = resolve(module, path)(*args)
        except Exception:
            if on_error is None:
                raise
            return on_error(args)
        return on_return(args, result)

    # an aBE model that is not commutative
    model = FiniteAlgebra(3, 2, ((2, 1, 2), (2, 2, 2), (0, 1, 2)))
    nodes = search._core.search_tables(4, True)[1]
    assert info("abeforge.search", "_core.search_tables", 4, True) == [nodes, 2]
    assert info("abeforge.search", "canonical_form", model) == 3
    assert info("abeforge.search", "canonicalize", model) == 3
    assert info("abeforge.search", "satisfies", model, corpus.statement("ax1")) == 0
    assert info("abeforge.search", "satisfies", model, corpus.statement("commutativity")) == 1
    assert info("abeforge.search", "enumerate_with_stats", corpus.axiom_system("aBE"), 3) == 3
    script = corpus.script("ax5-clause")
    assert info("abeforge.kernel", "replay_proof", script, corpus.environment()) == ["ax5-clause", 0]
    # lem11 depends on lem10, which this environment has not verified
    script = corpus.script("lem11")
    assert info("abeforge.kernel", "replay_proof", script, corpus.environment()) == ["lem11", 1]
    assert traced == {hook for hook, functions in INFO.items() if functions != (None, None)}


def test_setup_code_runs_in_a_fresh_interpreter():
    code = ast.literal_eval(assigned(PERFBENCH / "run.py", "SETUP_CODE"))
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_what_the_parity_gate_reads_exists():
    from abeforge import _speed_py

    assert (SRC / "abeforge" / "_speed.c").is_file()
    assert callable(_speed_py.search_tables)
