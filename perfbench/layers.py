"""Per-layer metrics from the spans that perfbench/tracer.py records.

A span's self time is its duration minus its child spans' durations, so the
layers' self times plus cli.self_s (interpreter start, imports, option
parsing, JSON emission and anything else no wrapper covers) add up to the
traced wall time of each job.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional

LAYERS = ("core", "iso", "sat", "driver", "kernel", "corpus")

SCRIPT_IDS = (
    "ax5-clause", "lem8a", "lem8b", "lem10", "lem11", "lem12", "lem13",
    "lem14", "lem15", "lem16", "lem17", "lem18", "thm",
)

# (name, unit, better) in BENCHMARK.json order.
PER_LAYER = (
    ("core.calls", "count", "lower"),
    ("core.busy_s", "s", "lower"),
    ("core.nodes", "count", "lower"),
    ("core.tables", "count", "lower"),
    ("core.nodes_per_s", "1/s", "higher"),
    ("core.tables_per_node", "ratio", "higher"),
    ("iso.calls", "count", "lower"),
    ("iso.busy_s", "s", "lower"),
    ("iso.perms", "count", "lower"),
    ("iso.survivors", "count", "higher"),
    ("iso.survivor_ratio", "ratio", "higher"),
    ("sat.calls", "count", "lower"),
    ("sat.busy_s", "s", "lower"),
    ("sat.counterexamples", "count", "higher"),
    ("driver.self_s", "s", "lower"),
    ("kernel.calls", "count", "lower"),
    ("kernel.busy_s", "s", "lower"),
    ("kernel.rejected_ratio", "ratio", "higher"),
    *((f"kernel.script_ms.{sid}", "ms", "lower") for sid in SCRIPT_IDS),
    ("corpus.load_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Slack for the accounting check: perf_counter read in two processes.
_CLOCK_SLACK_S = 1e-3


def analyse(spans: list[list], spawn: float, exit_: float) -> tuple[dict, dict[str, list[float]], Optional[str]]:
    """Per-layer sums for one traced job, the accepted replay times of each
    script, and an accounting error (or None) when a span lies outside the
    process's lifetime or its children outlast it."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    m = dict.fromkeys(
        ("core.calls", "core.nodes", "core.tables", "iso.calls", "iso.perms", "iso.survivors",
         "sat.calls", "sat.counterexamples", "kernel.calls", "kernel.rejected"),
        0,
    )
    scripts: dict[str, list[float]] = {}
    error = None
    for i, (layer, start, end, _, info) in enumerate(spans):
        own = end - start - child[i]
        self_s[layer] += own
        if start < spawn - _CLOCK_SLACK_S or end > exit_ + _CLOCK_SLACK_S or own < -_CLOCK_SLACK_S:
            error = f"trace accounting: a {layer} span lies outside its parent or the process"
        if info is None:  # load_corpus, or a call that raised
            continue
        if layer == "core":
            m["core.calls"] += 1
            m["core.nodes"] += info[0]
            m["core.tables"] += info[1]
        elif layer == "iso":
            m["iso.calls"] += 1
            m["iso.perms"] += math.factorial(info - 1)
        elif layer == "sat":
            m["sat.calls"] += 1
            m["sat.counterexamples"] += info
        elif layer == "driver":
            m["iso.survivors"] += info
        elif layer == "kernel":
            m["kernel.calls"] += 1
            m["kernel.rejected"] += info[1]
            if not info[1]:
                scripts.setdefault(info[0], []).append(end - start)
    m["core.busy_s"] = self_s["core"]
    m["iso.busy_s"] = self_s["iso"]
    m["sat.busy_s"] = self_s["sat"]
    m["driver.self_s"] = self_s["driver"]
    m["kernel.busy_s"] = self_s["kernel"]
    m["corpus.load_s"] = self_s["corpus"]
    m["trace.wall_s"] = exit_ - spawn
    m["cli.self_s"] = m["trace.wall_s"] - sum(self_s.values())
    return m, scripts, error


def pass_metrics(jobs: list[dict], untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass from its jobs' analyse() sums;
    untraced_wall_s is the same pass run without tracing."""
    m = {key: sum(job[key] for job in jobs) for key in jobs[0]}

    def ratio(num, den):
        return num / den if den else 0.0

    m["core.nodes_per_s"] = ratio(m["core.nodes"], m["core.busy_s"])
    m["core.tables_per_node"] = ratio(m["core.tables"], m["core.nodes"])
    m["iso.survivor_ratio"] = ratio(m["iso.survivors"], m["core.tables"])
    m["kernel.rejected_ratio"] = ratio(m.pop("kernel.rejected"), m["kernel.calls"])
    m["trace.overhead_s"] = m["trace.wall_s"] - untraced_wall_s
    return m


def run_metrics(passes: list[dict], scripts: dict[str, list[float]]) -> dict:
    """Median over the traced passes of each metric.  kernel.script_ms.<id>
    is the median accepted replay of that script over the whole run, and 0
    on a workload that replays nothing."""
    out = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    for sid in SCRIPT_IDS:
        times = scripts.get(sid)
        out[f"kernel.script_ms.{sid}"] = statistics.median(times) * 1000.0 if times else 0.0
    return out
