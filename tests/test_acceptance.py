"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import hashlib
import itertools
import json
import math
import random
import time

import pytest

from abeforge.kernel import replay_proof, verify_corpus
from abeforge.models import FiniteAlgebra, Witness, canonical_form, from_flat, is_model, relabelings, satisfies
from abeforge.search import brute_force_models
from conftest import BASIS, COMPLETE_LABELED, COROLLARIES, axiom_closures, classes, ground_tables, merged_corpus
from conftest import replay_mutants, run_cli
from reference import orbit_sum

# Labeled implicative-aBE tables of size 8 (unit at 7) that the complete
# row-major search finds, recorded once (28,725,672 nodes); the classes the
# enumerator emits must stand for all of them.
COMPLETE_LABELED_8 = 7036

# SHA-256 of the canonical forms of the implicative-aBE classes of size 8,
# concatenated in output order, recorded once before the search used
# orderly generation.
IMPLICATIVE_8_DIGEST = "5092b29427987ad37bf2797bf8029a66a56580d1194ba11c091800ed5c2d982d"

# The same digest for size 9, recorded once from the enumerator (8,307 nodes)
IMPLICATIVE_9_DIGEST = "5c4f2c8becf09d0961980551a6a7c1edeca81b05a61b9ac754cfd9cb8a78df24"

# The implicative-aBE classes of sizes 1..9
IMPLICATIVE_CLASSES = [1, 1, 1, 2, 2, 3, 5, 8, 11]

# The labeled implicative-aBE tables (unit at n-1) of sizes 1..8
IMPLICATIVE_LABELED = [1, 1, 1, 4, 13, 91, 631, COMPLETE_LABELED_8]

# {n: the simplicial complexes with n-1 nonempty faces} past the sizes any
# test searches, recorded once from simplicial_complexes
COMPLEX_CLASSES = {10: 18, 11: 29, 12: 49, 13: 83}

# The scripts of the paper's corollaries, which the built-in corpus leaves out
COROLLARY_SCRIPTS = json.loads(COROLLARIES.read_text(encoding="utf-8"))["scripts"]

# {target of a corollary script: the aBE classes it fails in at sizes 1..5,
# of 1, 1, 3, 19 and 241}; commutativity and the join lemma first fail at
# size 3, BCK's first axiom and transitivity at size 4, and BCK's other two
# axioms hold in all 265, as do the aBE axioms that ax1-from-ax3-ax6,
# ax2-from-ax3-ax6 and ax5-from-tarski prove
ABE_FAILURES = {
    "commutativity": [0, 0, 1, 14, 230],
    "join": [0, 0, 1, 14, 230],
    "bck1": [0, 0, 0, 5, 153],
    "trans": [0, 0, 0, 3, 102],
    "k": [0, 0, 0, 0, 0],
    "bck2": [0, 0, 0, 0, 0],
    "ax1": [0, 0, 0, 0, 0],
    "ax2": [0, 0, 0, 0, 0],
    "ax5": [0, 0, 0, 0, 0],
}

# {the first of Tarski's axioms (Abbott's ax3, ax4, ax6 and commutativity)
# that an aBE class fails: the classes failing it at sizes 1..5}; the others,
# 1, 1, 1, 2 and 2, are the implicative classes
TARSKI_FAILURES = {"ax6": [0, 0, 2, 17, 239]}

# The three-element Lukasiewicz chain, x -> y = min(2, 2 - x + y) with unit 2
LUKASIEWICZ_3 = FiniteAlgebra(3, 2, ((2, 2, 2), (1, 2, 2), (0, 1, 2)))

# {n: the aBE classes of size n that Abbott's coatom map fails for, counted
# by the first check each fails: injectivity, closure under subsets, then
# the law phi(x -> y) = phi(y) minus phi(x)}, recorded once; the 1, 1, 1, 2
# and 2 classes it passes for are the implicative ones
ABBOTT_FAILURES = {
    1: {"injective": 0, "closed": 0, "law": 0},
    2: {"injective": 0, "closed": 0, "law": 0},
    3: {"injective": 2, "closed": 0, "law": 0},
    4: {"injective": 15, "closed": 0, "law": 2},
    5: {"injective": 234, "closed": 3, "law": 2},
}

# {axiom dropped from the basis ax3-ax6: (the least size at which the other
# three have a model that falsifies transitivity, the least canonical form of
# such a model as a flat row-major table with the unit last)}, recorded once
# from the reference search.  At the pinned size, 2 of 24 labeled tables
# falsify it without ax3 (1 class), 530 of 1,896 without ax4 (24), 9 of 17
# without ax5 (2) and 14 of 127 without ax6 (3).
INDEPENDENCE = {
    "ax3": (3, [0, 1, 2, 0, 0, 0, 0, 2, 2]),
    "ax4": (5, [4, 1, 1, 1, 4, 0, 4, 0, 4, 4, 3, 3, 4, 3, 4, 4, 2, 2, 4, 4, 0, 1, 2, 3, 4]),
    "ax5": (4, [3, 1, 1, 3, 0, 3, 3, 3, 3, 3, 3, 3, 0, 1, 2, 3]),
    "ax6": (4, [3, 0, 3, 3, 3, 3, 2, 3, 0, 1, 3, 3, 0, 1, 2, 3]),
}

# {lemma: the least canonical model of size 5, as a flat row-major table with
# the unit last, of the axioms the lemma rests on less ax4, that falsifies the
# lemma}, recorded once from the reference search.  None is smaller.  At size
# 5, 536 of 4,263 labeled tables falsify lem13 (24 classes), and of 1,896,
# 1,106 falsify lem14 (51), 1,265 lem16 (60) and 1,277 lem17 (61).
AX4_BLIND_SPOTS = {
    "lem13": [4, 1, 1, 1, 4, 0, 4, 0, 3, 4, 3, 3, 4, 3, 4, 1, 1, 2, 4, 4, 0, 1, 2, 3, 4],
    "lem14": [4, 1, 1, 1, 4, 0, 4, 0, 0, 4, 3, 3, 4, 3, 4, 2, 4, 2, 4, 4, 0, 1, 2, 3, 4],
    "lem16": [4, 1, 1, 1, 4, 0, 4, 0, 0, 4, 3, 3, 4, 3, 4, 2, 2, 2, 4, 4, 0, 1, 2, 3, 4],
    "lem17": [4, 1, 1, 1, 4, 0, 4, 0, 0, 4, 3, 3, 4, 3, 4, 2, 2, 2, 4, 4, 0, 1, 2, 3, 4],
}


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def implicative_runs():
    """{n: (classes, nodes, seconds)} of implicative aBE for n <= 8."""
    return {n: classes(merged_corpus().axiom_system("implicative-aBE").members, n) for n in range(1, 9)}


def implicative_classes():
    return [m for models, _, _ in implicative_runs().values() for m in models]


def abe_classes():
    """The aBE classes of sizes 1..5, one tuple per size."""
    return [classes(merged_corpus().axiom_system("aBE").members, n)[0] for n in range(1, 6)]


def least_relabeling(complex_):
    """The complex with the m vertices that lie in a face of two or more
    renamed 0..m-1 and the other vertices m..k-1.  Equal iff the complexes
    are isomorphic.

    The m vertices are ordered by the sorted sizes of the higher faces each
    lies in, which an isomorphism keeps.  Of the renamings that keep that
    order, permuting only within blocks of equal order, the one whose
    higher faces, sorted, are least is taken."""
    k = sum(len(face) == 1 for face in complex_)
    higher = [face for face in complex_ if len(face) > 1]
    sizes = {}
    for face in higher:
        for v in face:
            sizes.setdefault(v, []).append(len(face))
    order = sorted(sizes, key=lambda v: sorted(sizes[v]))
    blocks = [tuple(block) for _, block in itertools.groupby(order, key=lambda v: sorted(sizes[v]))]
    least = min(
        sorted(tuple(sorted(image[v] for v in face)) for face in higher)
        for image in (
            {v: i for i, v in enumerate(itertools.chain(*perms))}
            for perms in itertools.product(*map(itertools.permutations, blocks))
        )
    )
    return tuple(sorted([(v,) for v in range(k)] + least))


def simplicial_complexes(most):
    """[the abstract simplicial complexes with f nonempty faces for f in
    0..most], one per class under vertex relabeling.  Each is a sorted tuple
    of its nonempty faces as sorted vertex tuples, its vertices 0..k-1.

    They are grown one face at a time: a new vertex, or two or more vertices
    whose facets are all faces.  Removing a maximal face undoes either, so
    each complex grows from one with a face fewer."""
    levels = [[()]]
    for _ in range(most):
        grown = set()
        for complex_ in levels[-1]:
            present = set(complex_)
            k = sum(len(face) == 1 for face in complex_)
            higher = [
                face
                for size in range(2, k + 1)
                for face in itertools.combinations(range(k), size)
                if face not in present and set(itertools.combinations(face, size - 1)) <= present
            ]
            for face in [(k,), *higher]:
                grown.add(least_relabeling(complex_ + (face,)))
        levels.append(sorted(grown))
    return levels


@pytest.fixture(scope="module")
def complexes():
    """The complexes with n-1 nonempty faces at index n-1, for n up to the
    largest size that COMPLEX_CLASSES pins."""
    return simplicial_complexes(max(COMPLEX_CLASSES) - 1)


def complex_algebra(complex_):
    """The faces with x -> y = F_y minus F_x, the empty face as the unit."""
    faces = [frozenset(face) for face in complex_] + [frozenset()]
    index = {face: i for i, face in enumerate(faces)}
    n = len(faces)
    return FiniteAlgebra(n, n - 1, tuple(tuple(index[y - x] for y in faces) for x in faces))


def coatom_map(model):
    """Abbott's map: each element to the set of coatoms above it, where
    x <= y means x -> y = 1 and the coatoms are the maximal non-unit
    elements.  Read from the table alone."""
    tab, unit = model.table, model.unit
    rest = [x for x in range(model.size) if x != unit]
    coatoms = [c for c in rest if not any(d != c and tab[c][d] == unit for d in rest)]
    return [frozenset(c for c in coatoms if tab[x][c] == unit) for x in range(model.size)]


def abbott_failure(model):
    """The first check of Abbott's representation that the model fails:
    `injective`, `closed` (the image under subsets) or `law`
    (phi(x -> y) = phi(y) minus phi(x)); None if it passes all three."""
    phi = coatom_map(model)
    image = set(phi)
    if len(image) != model.size:
        return "injective"
    if any(face - {c} not in image for face in image for c in face):
        return "closed"
    n, tab = model.size, model.table
    if any(phi[tab[x][y]] != phi[y] - phi[x] for x in range(n) for y in range(n)):
        return "law"
    return None


def abbott_complex(model):
    """The nonempty images of the coatom map as a complex, the coatoms
    renamed 0..k-1 in index order, under least_relabeling."""
    phi = coatom_map(model)
    coatoms = sorted(set().union(*phi))
    faces = [tuple(sorted(coatoms.index(c) for c in face)) for face in phi if face]
    return least_relabeling(tuple(sorted(faces)))


def automorphism_count(complex_):
    """The permutations of the complex's vertices that map its faces onto
    its faces."""
    k = sum(len(face) == 1 for face in complex_)
    faces = set(complex_)
    return sum(
        all(tuple(sorted(image[v] for v in face)) in faces for face in complex_)
        for image in itertools.permutations(range(k))
    )


def test_criterion_1_corpus_replay(corpus):
    start = time.perf_counter()
    report = verify_corpus(corpus)
    elapsed = time.perf_counter() - start
    ok = len(report) == 13 and all(s == "verified" for _, s in report) and elapsed < 1.0
    _verdict(1, "corpus replay", ok, f"13 scripts in {elapsed * 1000:.0f} ms")


def perturb(corpus, scripts, seed):
    """Three seeded mutants of every mutable field of every step of each
    script in `scripts` (as JSON), each replayed after the scripts of
    `corpus` that come before it: (mutants, rejected, rejected naming it)."""
    report = list(replay_mutants(corpus, scripts, random.Random(seed), 3))
    rejected = sum(status.startswith("failed: ") for _, status in report)
    named = sum(status.startswith(f"failed: [{sid}]") for sid, status in report)
    return len(report), rejected, named


def test_criterion_2_perturbation_suite(corpus, corpus_json):
    total, rejected, named = perturb(corpus, corpus_json["scripts"], 1736)
    ok = total == 426 and rejected == named == total
    _verdict(2, "perturbation suite", ok, f"{rejected}/{total} mutations rejected")


def test_criterion_2b_perturbation_of_the_corollary_scripts():
    total, rejected, named = perturb(merged_corpus(), COROLLARY_SCRIPTS, 1736)
    ok = total == 462 and rejected == named == total
    _verdict("2b", "perturbation of the corollary scripts", ok, f"{rejected}/{total} mutations rejected")


def test_criterion_3_theorem_at_desk_scale(corpus):
    trans = corpus.statement("trans")
    runs = implicative_runs()
    start = time.perf_counter()
    violated = any(not satisfies(model, trans)[0] for model in implicative_classes())
    elapsed = time.perf_counter() - start + sum(s for _, _, s in runs.values())
    node_counts = {n: nodes for n, (_, nodes, _) in runs.items()}
    size8 = runs[8][0]
    labeled = sum(len(set(relabelings(model))) for model in size8)
    ok = not violated and len(size8) == 8 and labeled == COMPLETE_LABELED_8 and elapsed <= 600.0
    _verdict(
        3,
        "no transitivity counterexample up to size 8",
        ok,
        f"{elapsed:.2f} s single-threaded, {len(size8)} classes at size 8 standing for "
        f"{labeled} of {COMPLETE_LABELED_8} labeled tables, nodes per size {node_counts}",
    )


def test_criterion_3b_size_8_digest():
    digest = hashlib.sha256(b"".join(map(canonical_form, implicative_runs()[8][0]))).hexdigest()
    _verdict("3b", "implicative-aBE size-8 digest", digest == IMPLICATIVE_8_DIGEST, digest)


def test_criterion_4_kernel_soundness_bridge(corpus):
    implicative_models = implicative_classes()
    proved = corpus.axioms()
    verified = []
    for script in corpus.scripts:
        verified.append(replay_proof(script, corpus.statements, proved))
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


def test_criterion_4b_each_result_in_the_models_of_its_axioms():
    # Each script's target, the corollaries' too, is checked in every model
    # of only the axioms its dependencies lead down to, as the reference
    # search from the grounded statements finds them: up to size 3 for one
    # or two axioms, 4 for more.  The check has teeth: without ax6, lem10
    # must fail.
    merged = merged_corpus()

    def models(axioms, n):
        return [from_flat(t, n) for t in ground_tables(tuple(map(merged.statement, sorted(axioms))), n)[0]]

    closures = axiom_closures(merged)
    start = time.perf_counter()
    checked, violations = 0, []
    for script in merged.scripts:
        axioms, target = closures[script.id], merged.statement(script.target)
        for n in range(1, (3 if len(axioms) <= 2 else 4) + 1):
            for model in models(frozenset(axioms), n):
                checked += 1
                if not satisfies(model, target)[0]:
                    violations.append((script.id, n))
    lem10 = merged.statement("lem10")
    without_ax6 = models(frozenset({"ax4"}), 3)
    falsified = sum(1 for model in without_ax6 if not satisfies(model, lem10)[0])
    elapsed = time.perf_counter() - start
    ok = not violations and (falsified, len(without_ax6)) == (470, 573)
    _verdict(
        "4b",
        "each result holds in the models of the axioms it rests on",
        ok,
        f"{len(merged.scripts)} scripts ({len(COROLLARY_SCRIPTS)} corollaries), "
        f"{checked} checks in {elapsed * 1000:.0f} ms, violations: {violations}; "
        f"lem10 fails in {falsified} of the {len(without_ax6)} models of ax4 of size 3",
    )


def _least_falsifier(others, target, dropped, size, flat):
    """(ok, smaller): the reference search finds the models of `others` that
    falsify `target` below `size` (smaller, which must be empty), and the
    pinned table of that size is in canonical form, a model of `others`,
    and falsifies both `target` and the dropped axiom."""
    smaller = [
        (n, table)
        for n in range(1, size)
        for table in ground_tables(others, n)[0]
        if not satisfies(from_flat(table, n), target)[0]
    ]
    model = from_flat(flat, size)
    ok = (
        not smaller
        and canonical_form(model) == bytes([size, *flat])
        and all(satisfies(model, st)[0] for st in others)
        and not satisfies(model, target)[0]
        and not satisfies(model, dropped)[0]
    )
    return ok, smaller


@pytest.mark.parametrize("dropped", sorted(INDEPENDENCE))
def test_criterion_4c_each_basis_axiom_is_needed(corpus, dropped):
    # No model of the other three basis axioms falsifies transitivity below
    # the pinned size, and the pinned table is one at that size.  Its
    # leastness is not re-run: without ax4 that search takes 4.7 s.
    size, flat = INDEPENDENCE[dropped]
    others = tuple(corpus.statement(ax) for ax in BASIS if ax != dropped)
    ok, smaller = _least_falsifier(others, corpus.statement("trans"), corpus.statement(dropped), size, flat)
    _verdict("4c", f"{dropped} is needed for transitivity", ok, f"none below size {size}: {smaller}")


@pytest.mark.parametrize("lemma", sorted(AX4_BLIND_SPOTS))
def test_criterion_4d_ax4_is_needed_past_4b_sizes(corpus, lemma):
    # 4b checks these lemmas up to size 4, where no model of their closure
    # without ax4 falsifies them; at size 5 the pinned table does.
    others = tuple(corpus.statement(ax) for ax in sorted(axiom_closures(corpus)[lemma] - {"ax4"}))
    ok, smaller = _least_falsifier(others, corpus.statement(lemma), corpus.statement("ax4"), 5, AX4_BLIND_SPOTS[lemma])
    _verdict("4d", f"ax4 is needed for {lemma}", ok, f"none below size 5: {smaller}")


def test_criterion_5_oracle_equivalence(corpus):
    mismatches = []
    for name in ("aBE", "implicative-aBE"):
        system = corpus.axiom_system(name)
        for n in (1, 2, 3):
            _, oracle = brute_force_models(system, n)
            enumerated = len(classes(system.members, n)[0])
            if oracle != enumerated:
                mismatches.append((name, n, oracle, enumerated))
            if n <= 2 and oracle != 1:
                mismatches.append((name, n, oracle, "expected 1"))
    _verdict(5, "oracle equivalence n<=3", not mismatches, f"mismatches: {mismatches}")


def test_criterion_5b_simplicial_complex_oracle(complexes):
    # The faces of a simplicial complex with x -> y = F_y minus F_x satisfy
    # ax1-ax6, and in a finite implication algebra (Abbott, 1967) each
    # element is known by the set of coatoms above it, so the complexes with
    # n-1 nonempty faces should give exactly the classes of size n.  The
    # construction shares no code with the search but canonical_form.  Size 9
    # is checked against the enumerator's recorded digest, with no search.
    oracle = {
        n: sorted(canonical_form(complex_algebra(c)) for c in complexes[n - 1]) for n in range(1, 10)
    }
    forms = {n: sorted(map(canonical_form, models)) for n, (models, _, _) in implicative_runs().items()}
    mismatches = [n for n in forms if oracle[n] != forms[n]]
    if hashlib.sha256(b"".join(oracle[9])).hexdigest() != IMPLICATIVE_9_DIGEST:
        mismatches.append(9)
    counts = [len(forms) for forms in oracle.values()]
    _verdict(
        "5b",
        "simplicial-complex oracle n<=9",
        not mismatches and counts == IMPLICATIVE_CLASSES,
        f"classes per size {counts}, mismatches at sizes {mismatches}",
    )


def test_criterion_5c_labeled_counts_from_the_complexes(complexes):
    # An automorphism of a complex's algebra fixes the unit and the order, so
    # it is a permutation of the vertices that maps faces onto faces, and each
    # class stands for (n-1)!/|Aut| labeled tables.  Sizes 6 and 7 are checked
    # against the complete search, and size 8 against the enumerator's
    # classes.  The count shares no code with the package.
    labeled = [
        sum(math.factorial(n - 1) // automorphism_count(c) for c in complexes[n - 1]) for n in range(1, 9)
    ]
    searched = [COMPLETE_LABELED["implicative-aBE", 6], COMPLETE_LABELED["implicative-aBE", 7],
                orbit_sum(implicative_runs()[8][0])]
    _verdict(
        "5c",
        "labeled counts from the simplicial complexes n<=8",
        labeled == IMPLICATIVE_LABELED and labeled[5:] == searched,
        f"labeled tables per size {labeled}; the complete search and the enumerator give {searched} at sizes 6-8",
    )


def test_criterion_5d_complexes_past_the_search(corpus, complexes):
    # Every complex's algebra up to size 9 is an implicative aBE algebra, and
    # commutative, and the complexes are counted to size 13, with no search.
    system = corpus.axiom_system("implicative-aBE")
    commutativity = corpus.statement("commutativity")
    algebras = [complex_algebra(c) for n in range(1, 10) for c in complexes[n - 1]]
    failing = [
        m.table for m in algebras if not (is_model(m, system)[0] and satisfies(m, commutativity)[0])
    ]
    counts = {n: len(complexes[n - 1]) for n in COMPLEX_CLASSES}
    _verdict(
        "5d",
        "the complexes are commutative implicative-aBE models, counted to n=13",
        len(algebras) == sum(IMPLICATIVE_CLASSES) and not failing and counts == COMPLEX_CLASSES,
        f"{len(algebras)} algebras, failing: {failing}; classes at sizes 10-13 {counts}",
    )


def test_criterion_5e_abbott_map_for_each_class(complexes):
    # Abbott (1967): a finite implication algebra is the family of sets of
    # coatoms above its elements, closed under subsets, with x -> y read as
    # set difference.  So each implicative-aBE class has its own complex,
    # with no permutation searched, which turns 5b's equal lists into a
    # bijection; over aBE the map passes for exactly the implicative classes.
    failing, mismatches = [], []
    for n, (models, _, _) in implicative_runs().items():
        failing += [(n, m.table) for m in models if abbott_failure(m) or coatom_map(m)[m.unit]]
        found = [abbott_complex(m) for m in models]
        if len(set(found)) != len(found) or sorted(found) != complexes[n - 1]:
            mismatches.append(n)
    # 1 -> c = c for a coatom c, so the unit maps to the empty set in aBE
    unit_empty = all(not coatom_map(m)[m.unit] for models in abe_classes() for m in models)
    outcomes = [[abbott_failure(m) for m in models] for models in abe_classes()]
    passing = [outcome.count(None) for outcome in outcomes]
    failures = {n: {check: outcome.count(check) for check in ("injective", "closed", "law")}
                for n, outcome in enumerate(outcomes, 1)}
    _verdict(
        "5e",
        "Abbott's map certifies each implicative-aBE class n<=8 and no other aBE class n<=5",
        not failing and not mismatches and unit_empty and passing == IMPLICATIVE_CLASSES[:5]
        and failures == ABBOTT_FAILURES,
        f"failing implicative classes: {failing}; complex mismatches at sizes {mismatches}; "
        f"aBE classes passing per size {passing}, failing by check {failures}",
    )


def test_criterion_6_commutativity_corollary(corpus):
    implicative_models = implicative_classes()
    comm = corpus.statement("commutativity")
    violations = [m.size for m in implicative_models if not satisfies(m, comm)[0]]
    _verdict(
        6,
        "commutativity corollary up to size 8",
        not violations,
        f"{len(implicative_models)} models checked",
    )


def test_criterion_6b_corollaries_in_the_models():
    # each target of a corollary script holds in every implicative-aBE class
    # up to size 8, and fails in the aBE classes pinned in ABE_FAILURES
    implicative_models = implicative_classes()
    targets = [merged_corpus().statement(sid) for sid in dict.fromkeys(script["target"] for script in COROLLARY_SCRIPTS)]
    violations = [(st.id, m.size) for st in targets for m in implicative_models if not satisfies(m, st)[0]]
    failures = {st.id: [sum(not satisfies(m, st)[0] for m in models) for models in abe_classes()] for st in targets}
    ok = not violations and len(implicative_models) == 23 and failures == ABE_FAILURES
    _verdict(
        "6b",
        "corollaries hold up to size 8 and fail in aBE",
        ok,
        f"{len(targets)} statements x {len(implicative_models)} models, violations: {violations}; "
        f"aBE classes failing at sizes 1-5: {failures}",
    )


def test_criterion_6c_commutative_bck_is_not_implicative():
    # commutative BCK is not inside implicative aBE, and size 3 is the least
    # that shows it: the three-element Lukasiewicz chain satisfies ax1-ax5,
    # BCK's axioms and commutativity but not ax6, and it is the only class of
    # size at most 3 that does.  The other separation, aBE not inside BCK,
    # first shows at size 4: criterion 6b's ABE_FAILURES["bck1"].
    merged = merged_corpus()
    holds = [merged.statement(sid) for sid in ("ax1", "ax2", "ax3", "ax4", "ax5", "bck1", "bck2", "commutativity")]
    ax6 = merged.statement("ax6")

    def in_commutative_bck(m):
        return all(satisfies(m, st)[0] for st in holds)

    def separating_classes(n):
        tables = (from_flat(flat, n) for flat in itertools.product(range(n), repeat=n * n))
        return {canonical_form(m) for m in tables if in_commutative_bck(m) and not satisfies(m, ax6)[0]}

    separating = {n: separating_classes(n) for n in (1, 2, 3)}
    chain_holds = in_commutative_bck(LUKASIEWICZ_3)
    witness = satisfies(LUKASIEWICZ_3, ax6)[1]
    ok = (
        chain_holds
        and witness == Witness("ax6", {"x": 1, "y": 0}, ((2, 1),))
        and separating == {1: set(), 2: set(), 3: {canonical_form(LUKASIEWICZ_3)}}
    )
    _verdict(
        "6c",
        "commutative BCK is not implicative aBE, least at size 3",
        ok,
        f"chain satisfies the commutative BCK axioms: {chain_holds}; ax6 witness: {witness}; "
        f"separating classes per size: { {n: len(forms) for n, forms in separating.items()} }",
    )


def test_criterion_6d_implicative_abe_is_tarski():
    # Kernel half: read through the corollary scripts, every result, ax5 and
    # thm included, rests on Tarski's four axioms (ax5 by ax5-from-tarski).
    # The other direction is the commutativity script, whose closure in
    # ax3-ax6 test_axioms_each_result_rests_on pins.  Model half: an aBE
    # class of size at most 5 is a Tarski model exactly when it is an
    # implicative-aBE model.
    merged = merged_corpus()
    tarski = tuple(st.id for st in merged.axiom_system("Tarski").members)
    closures = axiom_closures(merged, tarski)
    outside = {sid: axioms for sid, axioms in closures.items() if not axioms <= set(tarski)}
    ax6 = merged.statement("ax6")
    passing, failures, mismatches = [], {}, []
    abe = abe_classes()
    for n, models in enumerate(abe, 1):
        first = [next((sid for sid in tarski if not satisfies(m, merged.statement(sid))[0]), None) for m in models]
        mismatches += [(n, m.table) for m, sid in zip(models, first) if (sid is None) != satisfies(m, ax6)[0]]
        passing.append(first.count(None))
        for sid in filter(None, first):
            failures.setdefault(sid, [0] * len(abe))[n - 1] += 1
    ok = (
        len(closures) == 22 and not outside and not mismatches
        and passing == IMPLICATIVE_CLASSES[:5] and failures == TARSKI_FAILURES
    )
    _verdict(
        "6d",
        "implicative aBE is Tarski's implication algebras",
        ok,
        f"{len(closures)} scripts, resting outside {tarski}: {outside}; aBE classes that are Tarski models "
        f"per size {passing}, first failures {failures}, mismatches with implicative aBE: {mismatches}",
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
