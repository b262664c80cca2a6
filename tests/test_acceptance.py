"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import hashlib
import itertools
import json
import random
import time

import pytest

from abeforge.corpus import load_corpus
from abeforge.kernel import ProofError, replay_proof, verify_corpus
from abeforge.models import FiniteAlgebra, canonical_form, from_flat, relabelings, satisfies
from abeforge.search import brute_force_models, enumerate_models, enumerate_with_stats
from conftest import run_cli
from ground_search import ground_search
from mutate_util import mutated_script, mutation_sites
from test_corpus import axiom_closures

# Labeled implicative-aBE tables of size 8 (unit at 7) that the complete
# row-major search finds, recorded once (28,725,672 nodes); the classes the
# enumerator emits must stand for all of them.
COMPLETE_LABELED_8 = 7036

# SHA-256 of the canonical forms of the implicative-aBE classes of size 8,
# concatenated in output order, recorded once before the search used
# orderly generation.
IMPLICATIVE_8_DIGEST = "5092b29427987ad37bf2797bf8029a66a56580d1194ba11c091800ed5c2d982d"


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


@pytest.fixture(scope="module")
def implicative_forms(implicative_runs):
    """{n: canonical forms of the size-n classes, in output order}."""
    return {
        n: [canonical_form(m) for m in models] for n, (models, _, _) in implicative_runs.items()
    }


def simplicial_complexes(faces):
    """The abstract simplicial complexes with `faces` nonempty faces, one per
    class under vertex relabeling.  Each is a sorted tuple of its nonempty
    faces as sorted vertex tuples, its vertices 0..k-1."""
    found = set()
    for k in range(faces + 1):
        higher = [f for size in range(2, k + 1) for f in itertools.combinations(range(k), size)]
        for extra in itertools.combinations(higher, faces - k):
            present = set(extra)
            if any(
                facet not in present
                for face in extra
                if len(face) > 2
                for facet in itertools.combinations(face, len(face) - 1)
            ):
                continue
            complex_ = [(v,) for v in range(k)] + list(extra)
            found.add(min(
                tuple(sorted(tuple(sorted(perm[v] for v in face)) for face in complex_))
                for perm in itertools.permutations(range(k))
            ))
    return sorted(found)


def complex_algebra(complex_):
    """The faces with x -> y = F_y minus F_x, the empty face as the unit."""
    faces = [frozenset(face) for face in complex_] + [frozenset()]
    index = {face: i for i, face in enumerate(faces)}
    n = len(faces)
    return FiniteAlgebra(n, n - 1, tuple(tuple(index[y - x] for y in faces) for x in faces))


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


def test_criterion_3b_size_8_digest(implicative_forms):
    digest = hashlib.sha256(b"".join(implicative_forms[8])).hexdigest()
    _verdict("3b", "implicative-aBE size-8 digest", digest == IMPLICATIVE_8_DIGEST, digest)


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


def test_criterion_4b_each_result_in_the_models_of_its_axioms(corpus):
    # Each script's target is checked in every model of only the axioms its
    # dependencies lead down to, as the reference search from the grounded
    # statements finds them: up to size 3 for one or two axioms, 4 for more.
    # The check has teeth: without ax6, lem10 must fail.
    cache = {}

    def models(axioms, n):
        if (axioms, n) not in cache:
            tables = ground_search([corpus.statement(ax) for ax in sorted(axioms)], n)
            cache[axioms, n] = [from_flat(t, n) for t in tables]
        return cache[axioms, n]

    closures = axiom_closures(corpus)
    start = time.perf_counter()
    checked, violations = 0, []
    for script in corpus.scripts:
        axioms, target = closures[script.id], corpus.statement(script.target)
        for n in range(1, (3 if len(axioms) <= 2 else 4) + 1):
            for model in models(frozenset(axioms), n):
                checked += 1
                if not satisfies(model, target)[0]:
                    violations.append((script.id, n))
    lem10 = corpus.statement("lem10")
    without_ax6 = models(frozenset({"ax4"}), 3)
    falsified = sum(1 for model in without_ax6 if not satisfies(model, lem10)[0])
    elapsed = time.perf_counter() - start
    ok = not violations and (falsified, len(without_ax6)) == (470, 573)
    _verdict(
        "4b",
        "each result holds in the models of the axioms it rests on",
        ok,
        f"{checked} checks in {elapsed * 1000:.0f} ms, violations: {violations}; "
        f"lem10 fails in {falsified} of the {len(without_ax6)} models of ax4 of size 3",
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


def test_criterion_5b_simplicial_complex_oracle(implicative_forms):
    # The faces of a simplicial complex with x -> y = F_y minus F_x satisfy
    # ax1-ax6, and in a finite implication algebra (Abbott, 1967) each
    # element is known by the set of coatoms above it, so the complexes with
    # n-1 nonempty faces should give exactly the classes of size n.  The
    # construction shares no code with the search but canonical_form.
    mismatches = []
    counts = {}
    for n, forms in implicative_forms.items():
        oracle = {canonical_form(complex_algebra(c)) for c in simplicial_complexes(n - 1)}
        counts[n] = len(oracle)
        if oracle != set(forms):
            mismatches.append((n, len(oracle), len(forms)))
    _verdict(
        "5b",
        "simplicial-complex oracle n<=8",
        not mismatches,
        f"classes per size {counts}, mismatches: {mismatches}",
    )


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
    commands = [
        ["replay", "--emit", "json"],
        ["enumerate", "--axioms", "implicative-aBE", "--max-size", "5", "--emit", "json"],
        ["search", "--axioms", "implicative-aBE", "--violates", "trans", "--max-size", "5", "--emit", "json"],
        ["search", "--axioms", "aBE", "--violates", "trans", "--max-size", "5", "--emit", "json"],
        ["oracle", "--axioms", "aBE", "--size", "3", "--emit", "json"],
    ]
    stable = True
    for args in commands:
        a = run_cli(*args).stdout
        b = run_cli(*args).stdout
        if a != b or not a:
            stable = False
        json.loads(a)
    _verdict(7, "byte-identical JSON across runs", stable)
