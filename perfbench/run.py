#!/usr/bin/env python3
"""Layered benchmark of the abeforge command-line workbench.

Each workload runs real CLI processes, one at a time in a closed loop with a
single client, checks every output against a reference, and prints one JSON
result line last:

    python3 perfbench/run.py --workload enum-abe --seed 1 --seconds 40 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json with tracing off.
--trace 1 alternates untraced and traced passes over the same inputs (the
traced child is perfbench/tracer.py) and reports the per-layer metrics.
Other modes:

    python3 perfbench/run.py --all [--seconds N] [--trace 1]   every workload
    python3 perfbench/run.py --parity          compiled vs pure-Python search core
    python3 perfbench/run.py --write-spec      regenerate BENCHMARK.json

Outputs (results.jsonl, span files, the compiled core) go to perfbench/out/.
perfbench/README.md says why each workload exists and which end-to-end
metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import layers
from workloads import ROOT, Job, Workload, workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR / "out"
WORK = OUT / "work"
SRC = ROOT / "src"
TRACER = BENCH_DIR / "tracer.py"
SPEC_PATH = ROOT / "BENCHMARK.json"
REQUIRED = (SRC / "abeforge" / "cli.py", ROOT / "data" / "corpus.json", ROOT / "tests" / "mutate_util.py")

RUN_SECONDS = 40
SETUP_REPS = 7
# A run must end within 180 s: no pass starts after this, and a job still
# running at the deadline is killed and counted as failed.
DEADLINE_S = 170.0

# (name, unit, bound), all lower-is-better.  bound is the share of the
# parent's median by which a metric may worsen before a change is rejected.
# The times get the widest bound allowed: on a shared 2-vCPU host the speed
# of single-threaded Python flips between two levels 1.6x apart within
# seconds, and the share of time spent at the slow level drifts over
# minutes.  See README.md.
END_TO_END = (
    ("wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("verdict_p50_s", "s", 0.25),
    ("verdict_p90_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.05),
    ("setup_s", "s", 0.25),
)

CLI_CODE = "from abeforge.cli import main; main(prog_name='abeforge')"
SETUP_CODE = (
    "import abeforge.cli\n"
    "from abeforge.corpus import load_corpus\n"
    "from abeforge.search import core_name\n"
    "load_corpus()\n"
    "print(core_name())\n"
)


@dataclass
class JobResult:
    code: int
    out: bytes
    err: bytes
    spawn: float  # time.perf_counter() just before the spawn
    exit: float  # time.perf_counter() just after the child was reaped
    cpu_s: float
    rss_mb: float
    error: Optional[str] = None

    @property
    def wall_s(self) -> float:
        return self.exit - self.spawn


def spawn(argv: list[str], env: dict, timeout: float) -> JobResult:
    """Run one child to completion; wall time is spawn to reap, CPU time and
    peak RSS come from the child's own rusage."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=env)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return JobResult(
            proc.returncode, out.read(), err.read(), start, end,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
        )


def child_env() -> dict:
    """The caller's environment with src/ first on the path.  Bytecode
    caching is always on, as for an installed package, so the figures do not
    depend on whether the caller set PYTHONDONTWRITEBYTECODE."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def run_job(job: Job, argv: list[str], env: dict, deadline: float) -> JobResult:
    result = spawn(argv, env, deadline - time.perf_counter())
    result.error = job.check(result.code, result.out)
    if result.error and result.err:
        result.error += f" (stderr: {result.err.decode(errors='replace').strip()[-300:]})"
    return result


def run_untraced(jobs: list[Job], env: dict, deadline: float) -> list[JobResult]:
    return [run_job(job, [sys.executable, "-c", CLI_CODE, *job.args], env, deadline) for job in jobs]


def run_traced(jobs: list[Job], env: dict, deadline: float):
    """Run the jobs under the tracer; returns their results, their analyse()
    sums, the accepted replay times per script and the raw span records."""
    results, sums, scripts, records = [], [], {}, []
    for k, job in enumerate(jobs):
        spans_path = WORK / f"spans-{k}.json"
        spans_path.unlink(missing_ok=True)
        result = run_job(job, [sys.executable, str(TRACER), str(spans_path), *job.args], env, deadline)
        results.append(result)
        try:
            traced = json.loads(spans_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            result.error = result.error or f"no span file ({e})"
            continue
        if traced["missing"]:
            print(f"warning: tracer found no {', '.join(traced['missing'])}", file=sys.stderr)
        m, job_scripts, accounting = layers.analyse(traced["spans"], result.spawn, result.exit)
        result.error = result.error or accounting
        sums.append(m)
        for sid, times in job_scripts.items():
            scripts.setdefault(sid, []).extend(times)
        records.append({"args": list(job.args), "spawn": result.spawn, "exit": result.exit, **traced})
    return results, sums, scripts, records


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def warm_up(env: dict, deadline: float) -> str:
    """One untimed set-up that fills the bytecode cache; returns the name of
    the core that abeforge.search selects."""
    warm = spawn([sys.executable, "-c", SETUP_CODE], env, deadline - time.perf_counter())
    if warm.code != 0:
        raise RuntimeError(f"set-up failed: {warm.err.decode(errors='replace').strip()[-500:]}")
    return warm.out.decode().strip()


def setup_time(env: dict, deadline: float) -> float:
    """Wall time of a fresh interpreter that imports abeforge.cli, selects
    the core and builds the built-in corpus."""
    return spawn([sys.executable, "-c", SETUP_CODE], env, deadline - time.perf_counter()).wall_s


def git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(core: str, seed: int) -> dict:
    return {
        "core": core,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": shutil.which("cc") or shutil.which("gcc"),
        "commit": git_commit(),
        "seed": seed,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run: passes of the workload until the next would overrun
    `seconds` (at least one), then the run's metrics and correctness.

    Untraced runs also time SETUP_REPS or more set-ups spread over the run
    (half before the first pass, one after each pass, the rest at the end),
    so that their median sees the same drift in host speed as the passes."""
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    env = child_env()
    rng = random.Random(seed)
    core = warm_up(env, deadline)
    setups = [] if trace else [setup_time(env, deadline) for _ in range(SETUP_REPS // 2)]
    loop_start = time.perf_counter()
    jobs_run: list[JobResult] = []
    passes: list[list[JobResult]] = []
    traced_passes: list[dict] = []
    scripts: dict[str, list[float]] = {}
    records: list = []
    while True:
        pass_start = time.perf_counter()
        jobs = workload.make_pass(rng, WORK)
        untraced = run_untraced(jobs, env, deadline)
        jobs_run += untraced
        passes.append(untraced)
        if trace:
            traced, sums, pass_scripts, records = run_traced(jobs, env, deadline)
            jobs_run += traced
            if len(sums) == len(jobs):
                traced_passes.append(layers.pass_metrics(sums, sum(j.wall_s for j in untraced)))
            for sid, times in pass_scripts.items():
                scripts.setdefault(sid, []).extend(times)
        else:
            setups.append(setup_time(env, deadline))
        now = time.perf_counter()
        if now + (now - pass_start) > loop_start + seconds or now > started + DEADLINE_S / 2:
            break

    while not trace and len(setups) < SETUP_REPS:
        setups.append(setup_time(env, deadline))
    errors = [j.error for j in jobs_run if j.error]
    if trace:
        metrics = layers.run_metrics(traced_passes, scripts) if traced_passes else {}
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        with open(OUT / f"spans-{workload.name}.json", "w", encoding="utf-8") as fh:
            json.dump(records, fh)
    else:
        walls = [j.wall_s for j in jobs_run]
        metrics = {
            "wall_s": sum(walls) / len(passes),
            "cpu_s": sum(j.cpu_s for j in jobs_run) / len(passes),
            "verdict_p50_s": percentile(walls, 0.5),
            "verdict_p90_s": percentile(walls, 0.9),
            "peak_rss_mb": statistics.median(j.rss_mb for j in jobs_run),
            "setup_s": statistics.median(setups),
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    complete = set(metrics) == set(units)
    return {
        "workload": workload.name,
        "trace": int(trace),
        "seconds": seconds,
        "passes": len(passes),
        "job_walls_s": [j.wall_s for j in jobs_run],
        "env": environment(core, seed),
        "correct": not errors and complete,
        "attempted": len(jobs_run),
        "failed": len(errors),
        "wrong_frac": len(errors) / len(jobs_run),
        "errors": errors[:5],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }


def report(record: dict):
    """Human-readable lines for one run, and an entry in results.jsonl."""
    name = record["workload"]
    print(f"{name}: env {json.dumps(record['env'], sort_keys=True)}")
    print(f"{name}: {record['passes']} passes, {record['attempted']} CLI jobs, "
          f"wrong_frac = {record['wrong_frac']:.6g} ({record['failed']}/{record['attempted']})")
    for error in record["errors"]:
        print(f"{name}: WRONG {error}")
    for metric, mv in record["metrics"].items():
        print(f"{name}: {metric} = {mv['value']:.6g} {mv['unit']}")
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound} for name, unit, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, unit, better in layers.PER_LAYER],
    }


def main() -> int:
    # SIGTERM unwinds like an interrupt, so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    by_name = {w.name: w for w in workloads()}
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(by_name))
    mode.add_argument("--all", action="store_true", help="run every workload")
    mode.add_argument("--parity", action="store_true", help="compiled vs pure-Python core gate")
    mode.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if args.write_spec:
        SPEC_PATH.write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {SPEC_PATH}")
        return 0
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not an abeforge checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    if args.parity:
        import parity

        return parity.main(OUT)
    if args.all:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads()]
        for record in records:
            report(record)
        return 0 if all(r["correct"] for r in records) else 1
    record = run_workload(by_name[args.workload], args.seed, args.seconds, bool(args.trace))
    report(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
