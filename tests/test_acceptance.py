"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import random
import time

import pytest
from click.testing import CliRunner

from abeforge.cli import main as cli_main
from abeforge.corpus import load_corpus
from abeforge.kernel import ProofError, replay_proof, verify_corpus
from abeforge.models import relabelings, satisfies
from abeforge.search import brute_force_models, enumerate_models, enumerate_with_stats
from mutate_util import mutated_script, mutation_sites

# Labeled implicative-aBE tables of size 8 (unit at 7) that the complete
# row-major search finds, recorded once (28,725,672 nodes); the classes the
# enumerator emits must stand for all of them.
COMPLETE_LABELED_8 = 7036


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


@pytest.fixture(scope="module")
def implicative_runs(corpus):
    """{n: (models, nodes, seconds)} of the implicative-aBE enumeration for
    n <= 8, run once for criteria 3, 4 and 6."""
    system = corpus.axiom_system("implicative-aBE")
    runs = {}
    for n in range(1, 9):
        start = time.perf_counter()
        models, nodes, exceeded = enumerate_with_stats(system, n)
        assert not exceeded
        runs[n] = (models, nodes, time.perf_counter() - start)
    return runs


@pytest.fixture(scope="module")
def implicative_models(implicative_runs):
    return [m for models, _, _ in implicative_runs.values() for m in models]


def test_criterion_1_corpus_replay(corpus):
    start = time.perf_counter()
    report = verify_corpus(corpus)
    elapsed = time.perf_counter() - start
    ok = len(report) == 13 and all(s == "verified" for _, s in report) and elapsed < 1.0
    _verdict(1, "corpus replay", ok, f"13 scripts in {elapsed * 1000:.0f} ms")


def test_criterion_2_perturbation_suite(corpus, corpus_json):
    rng = random.Random(1736)
    total = 0
    rejected = 0
    diagnostics_ok = True
    rounds = 3  # every mutable field of every step, three seeded values each
    for script in corpus_json["scripts"]:
        for site in mutation_sites(script):
            for _ in range(rounds):
                total += 1
                bad = mutated_script(script, site, rng)
                env = corpus.environment()
                try:
                    for dep in corpus.scripts:
                        if dep.id == script["id"]:
                            replay_proof(bad, env)
                            break
                        replay_proof(dep, env)
                except ProofError as e:
                    rejected += 1
                    if e.script != script["id"]:
                        diagnostics_ok = False
    ok = total == 426 and rejected == total and diagnostics_ok
    _verdict(2, "perturbation suite", ok, f"{rejected}/{total} mutations rejected")


def test_criterion_3_theorem_at_desk_scale(corpus, implicative_runs, implicative_models):
    trans = corpus.statement("trans")
    start = time.perf_counter()
    violated = any(not satisfies(model, trans)[0] for model in implicative_models)
    elapsed = time.perf_counter() - start + sum(s for _, _, s in implicative_runs.values())
    node_counts = {n: nodes for n, (_, nodes, _) in implicative_runs.items()}
    size8 = implicative_runs[8][0]
    labeled = sum(len(set(relabelings(model))) for model in size8)
    ok = not violated and len(size8) == 8 and labeled == COMPLETE_LABELED_8 and elapsed <= 600.0
    _verdict(
        3,
        "no transitivity counterexample up to size 8",
        ok,
        f"{elapsed:.2f} s single-threaded, {len(size8)} classes at size 8 standing for "
        f"{labeled} of {COMPLETE_LABELED_8} labeled tables, nodes per size {node_counts}",
    )


def test_criterion_4_kernel_soundness_bridge(corpus, implicative_models):
    env = corpus.environment()
    verified = []
    for script in corpus.scripts:
        verified.append(replay_proof(script, env))
    violations = []
    for st in verified:
        for model in implicative_models:
            if not satisfies(model, st)[0]:
                violations.append((st.id, model.size))
    ok = not violations and len(implicative_models) == 23
    _verdict(
        4,
        "kernel-soundness bridge",
        ok,
        f"{len(verified)} statements x {len(implicative_models)} models, {len(violations)} violations",
    )


def test_criterion_5_oracle_equivalence(corpus):
    mismatches = []
    for name in ("aBE", "implicative-aBE"):
        system = corpus.axiom_system(name)
        for n in (1, 2, 3):
            _, classes = brute_force_models(system, n, corpus.statements)
            enumerated = len(list(enumerate_models(system, n)))
            if classes != enumerated:
                mismatches.append((name, n, classes, enumerated))
            if n <= 2 and classes != 1:
                mismatches.append((name, n, classes, "expected 1"))
    _verdict(5, "oracle equivalence n<=3", not mismatches, f"mismatches: {mismatches}")


def test_criterion_6_commutativity_corollary(corpus, implicative_models):
    comm = corpus.statement("commutativity")
    violations = [m.size for m in implicative_models if not satisfies(m, comm)[0]]
    _verdict(
        6,
        "commutativity corollary up to size 8",
        not violations,
        f"{len(implicative_models)} models checked",
    )


def test_criterion_7_determinism():
    runner = CliRunner()
    commands = [
        ["replay", "--emit", "json"],
        ["enumerate", "--axioms", "implicative-aBE", "--max-size", "5", "--emit", "json"],
        ["search", "--axioms", "implicative-aBE", "--violates", "trans", "--max-size", "5", "--emit", "json"],
        ["search", "--axioms", "aBE", "--violates", "trans", "--max-size", "5", "--emit", "json"],
        ["oracle", "--axioms", "aBE", "--size", "3", "--emit", "json"],
    ]
    stable = True
    for args in commands:
        a = runner.invoke(cli_main, args, catch_exceptions=False).output
        b = runner.invoke(cli_main, args, catch_exceptions=False).output
        if a != b or not a:
            stable = False
        json.loads(a)
    _verdict(7, "byte-identical JSON across runs", stable)
