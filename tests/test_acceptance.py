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
from abeforge.models import satisfies
from abeforge.search import brute_force_models, enumerate_models, enumerate_with_stats
from mutate_util import mutated_script, mutation_sites


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


@pytest.fixture(scope="module")
def implicative_models(corpus):
    system = corpus.axiom_system("implicative-aBE")
    return [m for n in range(1, 6) for m in enumerate_models(system, n)]


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


def test_criterion_3_theorem_at_desk_scale(corpus):
    system = corpus.axiom_system("implicative-aBE")
    trans = corpus.statement("trans")
    start = time.perf_counter()
    node_counts = {}
    violated = False
    for n in range(1, 7):
        models, nodes, exceeded = enumerate_with_stats(system, n)
        assert not exceeded
        node_counts[n] = nodes
        for model in models:
            if not satisfies(model, trans)[0]:
                violated = True
    elapsed = time.perf_counter() - start
    ok = not violated and elapsed <= 600.0
    _verdict(
        3,
        "no transitivity counterexample up to size 6",
        ok,
        f"{elapsed:.2f} s single-threaded, nodes per size {node_counts}",
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
    ok = not violations and len(implicative_models) == 7
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
        "commutativity corollary up to size 5",
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
