"""The benchmark's workloads: the CLI jobs of one pass and the reference that
each job's output is checked against.

enum-implicative and enum-abe run one fixed `enumerate` job per pass;
replay-mutants is the only random workload and draws its mutants from the
run's seed.  Why each workload exists is recorded in perfbench/README.md.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
PRISTINE_CORPUS = ROOT / "data" / "corpus.json"

# Every statement of the built-in corpus, in registry order: 7 hold in every
# aBE model up to size 5 and 12 have a counterexample, so both the full scan
# and the early-exit witness path of property checking run.
ABE_PROPERTIES = (
    "ax1", "ax2", "ax3", "ax4", "ax5", "ax6", "trans", "lem8a", "lem8b",
    "lem10", "lem11", "lem12", "lem13", "lem14", "lem15", "lem16", "lem17",
    "lem18", "commutativity",
)
PRISTINE_SCRIPTS = 13
MUTANTS_PER_PASS = 8

# Node counts may change with a search change, so they are blanked in both
# the output and the reference before the byte comparison.
_NODES = re.compile(rb'"nodes": \d+')
_BLANK_NODES = b'"nodes": null'

Check = Callable[[int, bytes], Optional[str]]


@dataclass(frozen=True)
class Job:
    """One CLI invocation: its arguments after `abeforge` and the check of
    its (exit code, stdout), which returns an error message or None."""

    args: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_pass: Callable[[random.Random, Path], list[Job]]


def truncated_reference(ref: dict, max_size: int) -> dict:
    """The reference output for a smaller --max-size.

    Properties are checked over the models in size order, so a reported
    counterexample is the first one; one larger than max_size means the
    property holds on every model up to max_size.
    """
    properties = [
        {"id": p["id"], "status": "holds"}
        if p["status"] == "counterexample" and p["model"]["size"] > max_size
        else p
        for p in ref["properties"]
    ]
    sizes = [s for s in ref["sizes"] if s["n"] <= max_size]
    return {**ref, "sizes": sizes, "properties": properties}


def enumerate_workload(
    name: str,
    why: str,
    axioms: str,
    max_size: int,
    properties: tuple[str, ...],
    reference: Optional[dict] = None,
) -> Workload:
    """One `enumerate --emit json` job per pass, checked byte for byte
    (node counts blanked) against perfbench/reference/<name>.json."""
    if reference is None:
        reference = json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))
    expected = (json.dumps(truncated_reference(reference, max_size), sort_keys=True) + "\n").encode()
    args = ["enumerate", "--axioms", axioms, "--max-size", str(max_size)]
    for prop in properties:
        args += ["--property", prop]
    args += ["--emit", "json"]

    def check(code: int, out: bytes) -> Optional[str]:
        if code != 0:
            return f"exit code {code}, expected 0"
        if _NODES.sub(_BLANK_NODES, out) != expected:
            return "output differs from the reference"
        return None

    job = Job(tuple(args), check)
    return Workload(name, why, lambda rng, workdir: [job])


def _replay_report(out: bytes) -> dict[str, str]:
    return {s["id"]: s["status"] for s in json.loads(out)["scripts"]}


def _check_pristine(code: int, out: bytes) -> Optional[str]:
    if code != 0:
        return f"pristine corpus: exit code {code}, expected 0"
    try:
        status = _replay_report(out)
    except (ValueError, KeyError, TypeError) as e:
        return f"pristine corpus: unreadable report ({e})"
    verified = sum(1 for s in status.values() if s == "verified")
    if len(status) != PRISTINE_SCRIPTS or verified != PRISTINE_SCRIPTS:
        return f"pristine corpus: {verified}/{len(status)} verified, expected 13/13"
    return None


def _mutant_check(script_id: str) -> Check:
    def check(code: int, out: bytes) -> Optional[str]:
        if code != 2:
            return f"mutant of {script_id}: exit code {code}, expected 2"
        try:
            status = _replay_report(out).get(script_id, "")
        except (ValueError, KeyError, TypeError) as e:
            return f"mutant of {script_id}: unreadable report ({e})"
        if not status.startswith("failed"):
            return f"mutant of {script_id}: reported {status!r}, expected failed"
        return None

    return check


def _mutation_tools():
    """mutation_sites and mutate from the perturbation suite's helper, so the
    mutants are the kind the acceptance tests reject."""
    for path in (ROOT / "src", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from mutate_util import mutate, mutation_sites

    return mutate, mutation_sites


def replay_workload(name: str, why: str, mutants: int = MUTANTS_PER_PASS) -> Workload:
    """Per pass: the pristine corpus file interleaved with `mutants` corpus
    files, each with one seeded single-step mutation in one script."""

    def make_pass(rng: random.Random, workdir: Path) -> list[Job]:
        mutate, mutation_sites = _mutation_tools()
        pristine = json.loads(PRISTINE_CORPUS.read_text(encoding="utf-8"))
        jobs = []
        for k in range(mutants):
            i = rng.randrange(len(pristine["scripts"]))
            script = pristine["scripts"][i]
            scripts = list(pristine["scripts"])
            scripts[i] = mutate(script, rng.choice(mutation_sites(script)), rng)
            path = workdir / f"mutant-{k}.json"
            path.write_text(json.dumps({**pristine, "scripts": scripts}), encoding="utf-8")
            jobs.append(Job(("replay", "--script", str(PRISTINE_CORPUS), "--emit", "json"), _check_pristine))
            jobs.append(Job(("replay", "--script", str(path), "--emit", "json"), _mutant_check(script["id"])))
        return jobs

    return Workload(name, why, make_pass)


def workloads() -> tuple[Workload, ...]:
    return (
        enumerate_workload(
            "enum-implicative",
            "ROADMAP headline run; search-bound per table (607,117 nodes give 631 labeled tables), "
            "then isomorph rejection; property checks near zero",
            "implicative-aBE",
            7,
            ("trans", "commutativity"),
        ),
        enumerate_workload(
            "enum-abe",
            "canonicalization-bound (52,710 nodes give 5,153 labeled tables); 19 properties, "
            "12 failing, cover both property-checking paths",
            "aBE",
            5,
            ABE_PROPERTIES,
        ),
        replay_workload(
            "replay-mutants",
            "the proof author's edit-to-verdict loop: no search; start-up, corpus loading and "
            "the kernel set the time; accepted and rejected scripts mixed",
        ),
    )
