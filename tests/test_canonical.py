"""The canonical form and the unit-fixing relabelings against a plain
(n-1)! scan written here, the enumerator's orbit subtraction against the
per-table canonicity filter, and the orbit-counting identity that ties the
enumerator's classes to its labeled tables at sizes the brute-force oracle
cannot reach."""

import itertools
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given

from abeforge import search
from abeforge.models import FiniteAlgebra, canonical_form, canonicalize, from_flat, relabelings
from abeforge.search import enumerate_with_stats


def reference_canonical(model):
    """(lex-least row-major table over the relabelings sending the unit to
    n-1, number of relabelings that reach it), by trying all (n-1)! of them.

    The relabelings reaching the least table form one coset of the
    unit-fixing automorphism group, so the count is |Aut(model)|.
    """
    n = model.size
    rest = [i for i in range(n) if i != model.unit]
    best, count = None, 0
    for images in itertools.permutations(range(n - 1)):
        perm = [0] * n
        perm[model.unit] = n - 1
        for old, new in zip(rest, images):
            perm[old] = new
        order = sorted(range(n), key=perm.__getitem__)
        flat = tuple(perm[model.table[i][j]] for i in order for j in order)
        if best is None or flat < best:
            best, count = flat, 1
        elif flat == best:
            count += 1
    return best, count


def reference_enumerate(system, n):
    """The per-table filter: every labeled table that equals its canonical
    form, ascending."""
    tables, _, _ = search._core.search_tables(n, search._implicative_flag(system))
    survivors = []
    for flat in tables:
        model = from_flat(flat, n)
        if canonicalize(model) == model:
            survivors.append((bytes(flat), model))
    survivors.sort(key=lambda kv: kv[0])
    return [m for _, m in survivors]


def assert_matches_reference(model):
    flat, automorphisms = reference_canonical(model)
    n = model.size
    assert canonical_form(model) == bytes([n]) + bytes(flat)
    assert canonicalize(model) == from_flat(flat, n)
    # one table per unit-fixing relabeling; the orbit is the class's, so the
    # canonical model has the same one
    tables = list(relabelings(model))
    assert len(tables) == math.factorial(n - 1)
    orbit = set(tables)
    assert len(orbit) == math.factorial(n - 1) // automorphisms
    assert orbit == set(relabelings(canonicalize(model)))


@st.composite
def arbitrary_tables(draw):
    n = draw(st.integers(1, 5))
    table = tuple(tuple(draw(st.integers(0, n - 1)) for _ in range(n)) for _ in range(n))
    return FiniteAlgebra(n, draw(st.integers(0, n - 1)), table)


@pytest.mark.parametrize("name, max_size", [("aBE", 4), ("implicative-aBE", 6)])
def test_agrees_with_scan_on_every_labeled_table(name, max_size):
    implicative = name == "implicative-aBE"
    for n in range(1, max_size + 1):
        tables, _, _ = search._core.search_tables(n, implicative)
        for flat in tables:
            assert_matches_reference(from_flat(flat, n))


@given(arbitrary_tables())
def test_agrees_with_scan_on_arbitrary_tables(model):
    # check and are_isomorphic canonicalize unvalidated input, so any unit
    # and any entries, models or not.
    assert_matches_reference(model)


@pytest.mark.parametrize("name, max_size", [("aBE", 5), ("implicative-aBE", 6)])
def test_orbit_counting_identity(corpus, monkeypatch, name, max_size):
    # Sum over the emitted classes of (n-1)!/|Aut| must equal the number of
    # labeled tables the search core handed to isomorph rejection.
    labeled_counts = []
    core_search = search._core.search_tables

    def counting_search(*args):
        result = core_search(*args)
        labeled_counts.append(len(result[0]))
        return result

    monkeypatch.setattr(search._core, "search_tables", counting_search)
    system = corpus.axiom_system(name)
    for n in range(1, max_size + 1):
        models, _, _ = enumerate_with_stats(system, n)
        labeled = labeled_counts.pop()
        orbits = 0
        for model in models:
            _, automorphisms = reference_canonical(model)
            orbits += math.factorial(n - 1) // automorphisms
        assert orbits == labeled, n


@pytest.mark.parametrize("name, max_size", [("aBE", 5), ("implicative-aBE", 6)])
def test_orbit_subtraction_matches_per_table_filter(corpus, name, max_size):
    system = corpus.axiom_system(name)
    for n in range(1, max_size + 1):
        models, _, _ = enumerate_with_stats(system, n)
        assert models == reference_enumerate(system, n), n


def test_incomplete_search_raises(corpus, monkeypatch):
    core_search = search._core.search_tables
    tables, _, _ = core_search(4, False)
    dropped = tables[0]
    # a table alone in its orbit would take its class with it unnoticed
    assert len(set(relabelings(from_flat(dropped, 4)))) > 1

    def lossy_search(*args):
        found, nodes, exceeded = core_search(*args)
        return [t for t in found if t != dropped], nodes, exceeded

    monkeypatch.setattr(search._core, "search_tables", lossy_search)
    with pytest.raises(RuntimeError, match="incomplete search at size 4"):
        enumerate_with_stats(corpus.axiom_system("aBE"), 4)


def test_exceeded_budget_returns_no_models(corpus):
    # the core has found 401 labeled tables by then
    models, nodes, exceeded = enumerate_with_stats(corpus.axiom_system("aBE"), 5, node_budget=5000)
    assert (models, nodes, exceeded) == ([], 5000, True)
