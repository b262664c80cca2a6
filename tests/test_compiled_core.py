"""The compiled search core, built from the shipped _speed.c, against the pure
core: identical tables, node counts and budget verdicts on full runs and
budgeted runs.  The two cores reach the propagation fixpoint by different
routes, so this is what holds them to one contract."""

import importlib.util
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from abeforge import _speed_py

SOURCE = Path(_speed_py.__file__).with_name("_speed.c")
# (system, implicative flag, largest size)
SIZES = [("aBE", False, 5), ("implicative-aBE", True, 6)]
BUDGETS = (1, 7, 100, 5000)


def build_compiled_core(out_dir: Path):
    """Compile _speed.c into out_dir and import it; None when there is no C
    compiler or no Python.h to compile against."""
    cc = shutil.which("cc") or shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if cc is None or not Path(include, "Python.h").is_file():
        return None
    target = out_dir / ("_speed" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        [cc, "-O3", "-shared", "-fPIC", "-I" + include, str(SOURCE), "-o", str(target)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    spec = importlib.util.spec_from_file_location("abeforge._speed", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    module = build_compiled_core(tmp_path_factory.mktemp("compiled_core"))
    if module is None:
        pytest.skip("no C compiler or no Python.h")
    assert module.IMPL_NAME == "cython"
    return module


@pytest.mark.parametrize("name, implicative, max_size", SIZES, ids=[s[0] for s in SIZES])
def test_full_runs_match(compiled, name, implicative, max_size):
    for n in range(1, max_size + 1):
        assert compiled.search_tables(n, implicative) == _speed_py.search_tables(n, implicative), n


@pytest.mark.parametrize("name, implicative, max_size", SIZES, ids=[s[0] for s in SIZES])
def test_budgeted_runs_match(compiled, name, implicative, max_size):
    _, full_nodes, _ = _speed_py.search_tables(max_size, implicative)
    for budget in BUDGETS:
        pure = _speed_py.search_tables(max_size, implicative, budget)
        assert compiled.search_tables(max_size, implicative, budget) == pure, budget
        assert pure[2] == (budget < full_nodes)
