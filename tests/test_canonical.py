"""The canonical form and the unit-fixing relabelings against a plain
(n-1)! scan written here, the enumerator against the per-table canonicity
filter, the core's one table per class, and the orbit-counting identity
that ties the enumerator's classes to the labeled tables of the complete
search at sizes the brute-force oracle cannot reach.

The labeled tables come from ground_search, a search written from the
axioms' clause forms alone that shares no code with the core: the core that
runs breaks symmetry, so its tables are not closed under relabeling and only
the identity shows that it missed no class.  Past ground_search's sizes, at
implicative-aBE n = 7, the identity reads the core's own fill in row-major
order with no relabelings, which test_propagate checks against
ground_search at the smaller sizes."""

import functools
import math
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given

from abeforge import search
from abeforge.models import canonical_form, canonicalize, from_flat, is_model, relabeling_table, relabelings
from abeforge.search import enumerate_with_stats

from conftest import BASIS, COMPLETE_LABELED, random_algebra
from ground_search import ground_search
from reference import orbit_sum, reference_canonical


@functools.lru_cache(maxsize=None)
def labeled(statements, n):
    """ground_search's labeled tables, row-major, in ascending order."""
    return ground_search(statements, n)[0]


def reference_enumerate(system, n):
    """The per-table filter: every labeled table that equals its canonical
    form, ascending as ground_search finds them."""
    models = (from_flat(flat, n) for flat in labeled(system.members, n))
    return [m for m in models if canonicalize(m) == m]


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


@pytest.mark.parametrize("n", range(1, 7))
def test_relabeling_table_contract(n):
    table = relabeling_table(n)
    u = n - 1
    assert len(table) == math.factorial(u)
    assert table[0] == (bytes(range(n)), bytes(range(n * n)))
    assert len({label for label, _ in table}) == len(table)
    diagonal = {i * n + i for i in range(n)}
    unit_row = set(range(u * n, n * n))
    unit_column = set(range(u, n * n, n))
    for label, cells in table:
        assert sorted(label) == list(range(n)) and label[u] == u
        assert sorted(cells) == list(range(n * n))
        for part in (diagonal, unit_row, unit_column):
            assert {cells[c] for c in part} == part
        # the value pi sends to cell (i, j) is the one at (pi^-1 i, pi^-1 j)
        for c in range(n * n):
            assert label[cells[c] // n] * n + label[cells[c] % n] == c
    assert relabeling_table(n) is table


@pytest.mark.parametrize("name, max_size", [("aBE", 4), ("implicative-aBE", 8)])
def test_agrees_with_scan_on_every_labeled_table(corpus, name, max_size):
    axioms = corpus.axiom_system(name).members
    for n in range(1, max_size + 1):
        tables, _, _ = search._core.search_tables(n, axioms)
        for flat in tables:
            assert_matches_reference(from_flat(flat, n))


@given(random_algebra(st.integers(1, 5)))
def test_agrees_with_scan_on_arbitrary_tables(model):
    # canonical_form and canonicalize take any FiniteAlgebra, so any unit
    # and any entries, models or not.
    assert_matches_reference(model)


def test_basis_has_the_labeled_tables_of_implicative_abe(corpus):
    # ax1 and ax2 follow from the basis {ax3, ax4, ax5, ax6}
    basis = tuple(map(corpus.statement, BASIS))
    for n in range(1, 7):
        tables = labeled(basis, n)
        assert len(set(tables)) == len(tables), n
        assert tables == labeled(corpus.axiom_system("implicative-aBE").members, n), n


@pytest.mark.parametrize("name, max_size", [("aBE", 5), ("implicative-aBE", 7)])
def test_orbit_counting_identity(corpus, name, max_size):
    # The emitted classes must stand for exactly the labeled tables of the
    # complete search: ground_search's to n = 6, then the core's row-major fill.
    system = corpus.axiom_system(name)
    for n in range(1, max_size + 1):
        tables = labeled(system.members, n) if n <= 6 else search._core._fill(n, system.members, range(n * n), ())[0]
        models, _, _ = enumerate_with_stats(system, n)
        assert orbit_sum(models) == len(tables), n
        if (name, n) in COMPLETE_LABELED:
            assert len(tables) == COMPLETE_LABELED[name, n]


# {n: the labeled aBE tables of the complete search, unit n-1, with
# 0 -> 1 = 1, 1 -> 2 = 1 and 0 -> 2 != 1, so that x, y, z = 0, 1, 2 falsify
# trans}: what a search that pins those cells (ROADMAP item 9(b)) must find
TRANS_WITNESSES_PINNED = {4: 3, 5: 178}


@pytest.mark.parametrize("n", sorted(TRANS_WITNESSES_PINNED))
def test_labeled_tables_with_trans_witnesses_pinned(corpus, n):
    u = n - 1
    pinned = [t for t in labeled(corpus.axiom_system("aBE").members, n) if t[1] == u and t[n + 2] == u and t[2] != u]
    assert len(pinned) == TRANS_WITNESSES_PINNED[n]


@pytest.mark.parametrize("name, max_size", [("aBE", 5), ("implicative-aBE", 6)])
def test_enumerator_matches_per_table_filter(corpus, name, max_size):
    system = corpus.axiom_system(name)
    for n in range(1, max_size + 1):
        models, _, _ = enumerate_with_stats(system, n)
        assert models == reference_enumerate(system, n), n


def test_orbit_counting_identity_catches_a_lost_class(corpus, monkeypatch):
    n = 4
    core_search = search._core.search_tables
    tables, _, _ = core_search(n, corpus.axiom_system("aBE").members)
    # a table that no other table of the core's output is isomorphic to, so
    # that dropping it drops its class
    classes = Counter(canonical_form(from_flat(t, n)) for t in tables)
    dropped = next(t for t in tables if classes[canonical_form(from_flat(t, n))] == 1)

    def lossy_search(*args):
        found, nodes, exceeded = core_search(*args)
        return [t for t in found if t != dropped], nodes, exceeded

    monkeypatch.setattr(search._core, "search_tables", lossy_search)
    models, _, _ = enumerate_with_stats(corpus.axiom_system("aBE"), n)
    assert len(models) == len(classes) - 1
    assert orbit_sum(models) < len(labeled(corpus.axiom_system("aBE").members, n))


def cell_order_key(flat, n):
    """The row-major table read in the core's cell order: by max(i, j),
    then row-major."""
    return bytes(flat[c] for c in sorted(range(n * n), key=lambda c: (max(divmod(c, n)), c)))


@pytest.mark.parametrize("name, max_size", [("aBE", 5), ("implicative-aBE", 7)])
def test_core_returns_distinct_models(corpus, name, max_size):
    # one table per class: no two are isomorphic, and each is the least of
    # its orbit in the order the core fills the cells
    system = corpus.axiom_system(name)
    for n in range(1, max_size + 1):
        tables, _, _ = search._core.search_tables(n, system.members)
        assert len(set(tables)) == len(tables), n
        assert len({canonical_form(from_flat(flat, n)) for flat in tables}) == len(tables), n
        for flat in tables:
            model = from_flat(flat, n)
            ok, _ = is_model(model, system)
            assert ok, (n, flat)
            least = min(cell_order_key(table, n) for table in relabelings(model))
            assert cell_order_key(flat, n) == least, (n, flat)


def test_exceeded_budget_returns_no_models(corpus):
    # the core has found 151 labeled tables by then
    models, nodes, exceeded = enumerate_with_stats(corpus.axiom_system("aBE"), 5, node_budget=2000)
    assert (models, nodes, exceeded) == ([], 2000, True)
