"""Self-test of the benchmark: a tiny-size pass through every workload path,
traced and untraced, plus its gates.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import random
import re
import shutil
import subprocess
import sys

import pytest

import layers
import parity
import run
from workloads import ABE_PROPERTIES, REFERENCE_DIR, enumerate_workload, replay_workload, truncated_reference

# Isomorphism classes per size, from the ROADMAP baseline.
CLASS_COUNTS = {
    "implicative-aBE": [1, 1, 1, 2, 2, 3, 5],
    "aBE": [1, 1, 3, 19, 241],
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# (workload, system, max size, properties) of the enumerations at tiny sizes.
TINY_ENUM = (
    ("enum-implicative", "implicative-aBE", 4, ("trans", "commutativity")),
    ("enum-abe", "aBE", 3, ABE_PROPERTIES),
)


def tiny_workloads(implicative_reference=None):
    refs = {"enum-implicative": implicative_reference}
    return (
        *(enumerate_workload(name, "", system, n, props, refs.get(name)) for name, system, n, props in TINY_ENUM),
        replay_workload("replay-mutants", "", mutants=2),
    )


def reference(name):
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))


def test_benchmark_json_is_the_generated_spec():
    on_disk = json.loads(run.SPEC_PATH.read_text(encoding="utf-8"))
    assert on_disk == run.spec()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in on_disk[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in on_disk[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in on_disk["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in on_disk["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in on_disk["end_to_end"]


@pytest.mark.parametrize("name, system", [("enum-implicative", "implicative-aBE"), ("enum-abe", "aBE")])
def test_reference_counts_match_roadmap_and_oracle(name, system):
    assert [s["count"] for s in reference(name)["sizes"]] == CLASS_COUNTS[system]
    for n in (1, 2, 3):
        proc = subprocess.run(
            [sys.executable, "-c", run.CLI_CODE, "oracle", "--axioms", system, "--size", str(n), "--emit", "json"],
            capture_output=True, text=True, env=run.child_env(), cwd=run.ROOT, check=True,
        )
        assert json.loads(proc.stdout)["classes"] == CLASS_COUNTS[system][n - 1]


def test_truncated_reference_keeps_small_counterexamples():
    ref = reference("enum-abe")
    small = {p["id"]: p for p in truncated_reference(ref, 2)["properties"]}
    full = {p["id"]: p for p in ref["properties"]}
    for pid, p in full.items():
        if p["status"] == "counterexample" and p["model"]["size"] <= 2:
            assert small[pid] == p
        else:
            assert small[pid] == {"id": pid, "status": "holds"}


def test_replay_inputs_come_from_the_seed(tmp_path):
    wl = replay_workload("replay-mutants", "", mutants=3)
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    wl.make_pass(random.Random(7), first)
    wl.make_pass(random.Random(7), second)
    for path in sorted(first.iterdir()):
        assert path.read_bytes() == (second / path.name).read_bytes()


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_through_every_workload(trace):
    run.WORK.mkdir(parents=True, exist_ok=True)
    for wl in tiny_workloads():
        record = run.run_workload(wl, seed=3, seconds=0, trace=trace)
        assert record["correct"], record["errors"]
        assert record["failed"] == 0 and record["wrong_frac"] == 0
        expected = [name for name, _, _ in (layers.PER_LAYER if trace else run.END_TO_END)]
        assert list(record["metrics"]) == expected
        if not trace:
            assert all(mv["value"] > 0 for mv in record["metrics"].values())
            continue
        m = {k: mv["value"] for k, mv in record["metrics"].items()}
        own = (m["core.busy_s"] + m["iso.busy_s"] + m["sat.busy_s"] + m["driver.self_s"]
               + m["kernel.busy_s"] + m["corpus.load_s"] + m["cli.self_s"])
        assert own == pytest.approx(m["trace.wall_s"], rel=1e-9)
        assert m["cli.self_s"] > 0
        spans = json.loads((run.OUT / f"spans-{wl.name}.json").read_text(encoding="utf-8"))
        assert spans and all(job["missing"] == [] for job in spans)
        if wl.name == "replay-mutants":
            assert m["kernel.calls"] > 0 and 0 < m["kernel.rejected_ratio"] < 1
            assert all(m[f"kernel.script_ms.{sid}"] > 0 for sid in layers.SCRIPT_IDS)
        else:
            assert m["core.nodes"] > 0 and m["iso.calls"] > 0 and m["sat.calls"] > 0
            system, max_size = next((s, n) for name, s, n, _ in TINY_ENUM if name == wl.name)
            assert m["iso.survivors"] == sum(CLASS_COUNTS[system][:max_size])


def test_wrong_reference_raises_wrong_frac():
    bad = reference("enum-implicative")
    bad["sizes"][3]["count"] += 1
    record = run.run_workload(tiny_workloads(bad)[0], seed=1, seconds=0, trace=False)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] and record["wrong_frac"] == 1


def test_parity_gate_small_sizes(tmp_path):
    status = parity.main(tmp_path, sizes=(("implicative-aBE", True, 5), ("aBE", False, 4)))
    result = json.loads((tmp_path / "parity.json").read_text(encoding="utf-8"))
    assert status == 0
    if shutil.which("cc") or shutil.which("gcc"):
        assert result["gate"] == "pass", result
        assert set(result["metrics"]) == {"core.python.nodes_per_s", "core.cython.nodes_per_s", "core.speedup"}
    else:
        assert result["gate"] == "skipped" and result["build"]


def test_command_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-mutants", "--seed", "4", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum-abe", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
