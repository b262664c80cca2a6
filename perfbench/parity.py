"""Twin-parity gate: the compiled search core against the pure-Python twin.

Builds the shipped src/abeforge/_speed.c with the system C compiler into
perfbench/out/, then asserts that both cores return identical table streams
and node counts for implicative-aBE n <= 7 and aBE n <= 5, and reports each
core's nodes/s at the largest implicative-aBE size.  Without a compiler, or
when the build fails, it records the reason and reports the gate as skipped.

    python3 perfbench/run.py --parity
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path
from typing import Optional

from workloads import ROOT

SOURCE = ROOT / "src" / "abeforge" / "_speed.c"
# (system, implicative flag, largest size); the first row's largest size is
# where the nodes/s figures are reported.
SIZES = (("implicative-aBE", True, 7), ("aBE", False, 5))
COMPILED_REPEATS = 3


def build(out_dir: Path) -> tuple[Optional[Path], str]:
    """Compile _speed.c; returns (shared object or None, what happened)."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return None, "no C compiler (cc or gcc) on PATH"
    if not SOURCE.is_file():
        return None, f"{SOURCE.relative_to(ROOT)} not found"
    target = out_dir / ("_speed" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [cc, "-O3", "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"], str(SOURCE), "-o", str(target)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=600, env={**os.environ, "TMPDIR": str(out_dir)}
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return None, f"{cc} did not run: {e}"
    if proc.returncode != 0:
        return None, f"{cc} failed: {proc.stderr.strip()[-500:]}"
    return target, f"built with {cc} -O3 in {time.perf_counter() - start:.1f} s"


def load(path: Path):
    spec = importlib.util.spec_from_file_location("abeforge._speed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compare(python_core, compiled_core, sizes=SIZES) -> tuple[list[dict], list[str]]:
    """Both cores at every size; returns one row per (system, n) and the
    mismatches found."""
    rows, mismatches = [], []
    for system, implicative, max_size in sizes:
        for n in range(1, max_size + 1):
            start = time.perf_counter()
            py = python_core.search_tables(n, implicative)
            py_s = time.perf_counter() - start
            c_times = []
            for _ in range(COMPILED_REPEATS):
                start = time.perf_counter()
                c = compiled_core.search_tables(n, implicative)
                c_times.append(time.perf_counter() - start)
            if py != c:
                mismatches.append(
                    f"{system} n={n}: streams differ ({len(py[0])} vs {len(c[0])} tables, "
                    f"{py[1]} vs {c[1]} nodes)"
                )
            rows.append({"system": system, "n": n, "tables": len(py[0]), "nodes": py[1],
                         "python_s": py_s, "cython_s": statistics.median(c_times)})
    return rows, mismatches


def main(out_dir: Path, sizes=SIZES) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from abeforge import _speed_py

    so, how = build(out_dir)
    result: dict = {"build": how}
    if so is None:
        result.update(gate="skipped", metrics={})
    else:
        rows, mismatches = compare(_speed_py, load(so), sizes)
        headline = [r for r in rows if r["system"] == sizes[0][0]][-1]
        py_rate = headline["nodes"] / headline["python_s"]
        c_rate = headline["nodes"] / headline["cython_s"]
        result.update(
            gate="fail" if mismatches else "pass",
            mismatches=mismatches,
            rows=rows,
            headline=f"{headline['system']} n={headline['n']}",
            metrics={"core.python.nodes_per_s": py_rate, "core.cython.nodes_per_s": c_rate,
                     "core.speedup": c_rate / py_rate},
        )
        print(f"{'system':>16} {'n':>3} {'tables':>8} {'nodes':>10} {'python ms':>10} {'cython ms':>10}")
        for r in rows:
            print(f"{r['system']:>16} {r['n']:>3} {r['tables']:>8} {r['nodes']:>10} "
                  f"{r['python_s'] * 1000:>10.2f} {r['cython_s'] * 1000:>10.3f}")
        for line in mismatches:
            print(f"MISMATCH {line}")
    print(f"parity: {result['gate']} ({how})")
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g}")
    (out_dir / "parity.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 1 if result["gate"] == "fail" else 0
