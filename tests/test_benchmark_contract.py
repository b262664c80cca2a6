"""The names that the benchmark in perfbench/ reads from the package and
from tests/ exist.

perfbench/tracer.py wraps one function of each layer by its attribute path
and records what its info function reads from each call's arguments and
result, perfbench/run.py times a fresh interpreter that runs its
SETUP_CODE, perfbench/parity.py builds _speed.c and compares it with
_speed_py, and perfbench/workloads.py mutates scripts with the helpers of
tests/mutate_util.py.  A change to the package or the tests that breaks one
of these names, or the shape of what a hooked function takes or returns, or
a command that stops calling a hooked function through the name the tracer
patches, would otherwise fail only in a benchmark run.  The files are read
as source, not imported or run."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PERFBENCH, SRC, assigned, child_env, run_cli, tracer_hooks

TESTS = Path(__file__).resolve().parent
TRACER_HOOKS = tracer_hooks()
# (layer, module, attribute path) of each hook
HOOKS = [hook for hook, _ in TRACER_HOOKS]


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
    for hook, node in TRACER_HOOKS
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
    axioms = corpus.axiom_system("implicative-aBE").members
    nodes = search._core.search_tables(4, axioms)[1]
    assert info("abeforge.search", "_core.search_tables", 4, axioms) == [nodes, 2]
    assert info("abeforge.search", "canonical_form", model) == 3
    assert info("abeforge.search", "canonicalize", model) == 3
    assert info("abeforge.search", "satisfies", model, corpus.statement("ax1")) == 0
    assert info("abeforge.search", "satisfies", model, corpus.statement("commutativity")) == 1
    assert info("abeforge.search", "enumerate_with_stats", corpus.axiom_system("aBE"), 3) == 3
    script = corpus.script("ax5-clause")
    assert info("abeforge.kernel", "replay_proof", script, corpus.statements, corpus.axioms()) == ["ax5-clause", 0]
    # lem11 depends on lem10, which the axioms alone do not verify
    script = corpus.script("lem11")
    assert info("abeforge.kernel", "replay_proof", script, corpus.statements, corpus.axioms()) == ["lem11", 1]
    assert traced == {hook for hook, functions in INFO.items() if functions != (None, None)}


# one command line of each kind that the workloads run, and the oracle, which
# alone reaches canonical_form
CLI_TRAFFIC = (
    ("enumerate", "--axioms", "aBE", "--max-size", "3", "--property", "trans", "--emit", "json"),
    ("oracle", "--axioms", "aBE", "--size", "2"),
    ("replay", "--emit", "json"),
)


def count_hook_calls(monkeypatch) -> dict:
    """Wrap every hooked function, where the tracer patches it, in a counter
    of its calls: {(module, attribute path): calls}."""
    calls = {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for _, module, path in HOOKS:
        # patched where the tracer patches it: on the owner of its last name
        owner = importlib.import_module(module)
        *parents, name = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        calls[module, path] = 0
        monkeypatch.setattr(owner, name, counting((module, path), getattr(owner, name)))
    return calls


def test_every_hook_sees_cli_traffic(monkeypatch):
    calls = count_hook_calls(monkeypatch)
    for args in CLI_TRAFFIC:
        assert run_cli(*args).exit_code == 0, args
    assert [key for key, n in calls.items() if n == 0] == []


# the two tiny enumerations of TINY_ENUM in perfbench/test_perfbench.py,
# whose self-test needs the core, iso, sat and driver hooks to fire on each
ABE_PROPERTIES = (
    "ax1", "ax2", "ax3", "ax4", "ax5", "ax6", "trans", "lem8a", "lem8b", "lem10", "lem11", "lem12", "lem13",
    "lem14", "lem15", "lem16", "lem17", "lem18", "commutativity",
)
TINY_ENUM = {
    "enum-implicative": ("implicative-aBE", "4", ("trans", "commutativity")),
    "enum-abe": ("aBE", "3", ABE_PROPERTIES),
}


@pytest.mark.parametrize("workload", TINY_ENUM)
def test_each_tiny_enumeration_reaches_the_hooks(monkeypatch, workload):
    system, max_size, properties = TINY_ENUM[workload]
    calls = count_hook_calls(monkeypatch)
    args = ["enumerate", "--axioms", system, "--max-size", max_size, "--emit", "json"]
    for prop in properties:
        args += ["--property", prop]
    assert run_cli(*args).exit_code == 0
    fired = {path for (_, path), n in calls.items() if n}
    assert {"_core.search_tables", "canonicalize", "satisfies", "enumerate_with_stats"} <= fired


def test_search_reaches_the_hooks(monkeypatch):
    calls = count_hook_calls(monkeypatch)
    assert run_cli("search", "--axioms", "aBE", "--violates", "trans", "--max-size", "4").exit_code == 4
    fired = {path for (_, path), n in calls.items() if n}
    assert fired == {"_core.search_tables", "canonicalize", "satisfies", "enumerate_with_stats", "load_corpus"}


def test_setup_code_runs_in_a_fresh_interpreter():
    code = ast.literal_eval(assigned(PERFBENCH / "run.py", "SETUP_CODE"))
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_what_the_parity_gate_reads_exists():
    from abeforge import _speed_py

    assert (SRC / "abeforge" / "_speed.c").is_file()
    # parity.compare calls search_tables(n, implicative) and compares the triple
    for n in range(1, 5):
        for implicative in (False, True):
            tables, nodes, exceeded = result = _speed_py.search_tables(n, implicative)
            assert isinstance(tables, list) and type(nodes) is int and exceeded is False
            assert all(type(t) is tuple and len(t) == n * n for t in tables)
            assert _speed_py.search_tables(n, implicative) == result


def test_what_the_benchmark_imports_from_tests_exists():
    imported = {
        (path.name, node.module, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module and (TESTS / f"{node.module}.py").is_file()
        for alias in node.names
    }
    assert ("workloads.py", "mutate_util", "mutate") in imported
    for name, module, attr in imported:
        assert hasattr(importlib.import_module(module), attr), f"perfbench/{name} imports {attr} from tests/{module}.py"
