"""The propagator that models compiles from a system's statements against
ground_search, which applies the same unit rule to the ground instances of
the same statements: the same verdict and the same fixpoint on arbitrary
partial tables; the same tables and node counts when its propagator drives
the core's search; and its own row-major fill against the core's fill in
that order with no relabelings, the complete search."""

import functools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from abeforge import _core, models
from abeforge.corpus import corpus_from_json
from abeforge.models import MAX_SIZE
from abeforge.statements import Literal, Statement
from abeforge.terms import Arrow, Const, Var, parse_term

from conftest import BASIS, with_corollaries
from ground_search import Ground, ground_search, propagator


def clause(sid, *literals):
    return Statement(sid, "clause", tuple(Literal(parse_term(l), parse_term(r), p) for l, r, p in literals))


# Clauses with two equations, either of which may be the one left to
# assign a cell: linear aBE algebras, and a clause that holds in them.
LINEAR = clause("linear", ("x -> y", "1", True), ("y -> x", "1", True))
EITHER = clause("either", ("(x -> y) -> y", "(y -> x) -> x", True), ("x -> y", "x", True))

# the systems the propagator is checked on, as member ids of the merged
# corpus and of the clauses above
SYSTEMS = {
    "aBE": ("ax1", "ax2", "ax3", "ax4", "ax5"),
    "implicative-aBE": ("ax1", "ax2", "ax3", "ax4", "ax5", "ax6"),
    "Tarski": ("ax3", "ax4", "ax6", "commutativity"),
    "basis": BASIS,
    "clauses": ("ax1", "ax2", "ax3", "ax4", "ax5", "linear", "either"),
}


@functools.lru_cache(maxsize=None)
def axioms(name):
    statements = {**corpus_from_json(with_corollaries()).statements, "linear": LINEAR, "either": EITHER}
    return tuple(statements[sid] for sid in SYSTEMS[name])


def root_table(name, n):
    return models._propagator(axioms(name))[1](n)


@st.composite
def partial_tables(draw):
    """(system, n, root-propagated table with some open cells assigned)."""
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    n = draw(st.integers(1, 6))
    t = root_table(name, n)
    free = [c for c in range(n * n) if t[c] < 0]
    if free:
        cells = draw(st.lists(st.sampled_from(free), max_size=len(free), unique=True))
        for c in cells:
            t[c] = draw(st.integers(0, n - 1))
    return name, n, t


@settings(max_examples=750, deadline=None)
@given(partial_tables())
def test_same_fixpoint_from_any_partial_table(case):
    # the compiled propagator, queued every assigned cell, against the ground
    # fixpoint of a copy, which examines every instance once; each newly
    # assigned cell is on the trail once
    name, n, t = case
    before, ref = list(t), list(t)
    trail = []
    ok = models._propagator(axioms(name))[0](t, n, trail, [c for c, v in enumerate(t) if v >= 0])
    assert ok == (Ground(axioms(name)).root(n, ref) is not None)
    if ok:
        assert t == ref
        assert sorted(trail) == [c for c in range(n * n) if before[c] < 0 <= t[c]]


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(sorted(SYSTEMS)), st.integers(1, 6), st.data())
def test_same_fixpoint_one_assignment_at_a_time(name, n, data):
    # The search starts from the root table and then queues only the cell
    # it assigns.  The compiled propagator and the ground one, each on its
    # own table, must reach the same fixpoint at every step, in any cell
    # order; undoing a step's trail must restore the table it started from.
    propagate, root = models._propagator(axioms(name))
    ground = Ground(axioms(name))
    t, ref = root(n), ground.root(n)
    assert t == ref
    for _ in range(n * n):
        free = [c for c, v in enumerate(t or ()) if v < 0]
        if not free:
            return
        cell = data.draw(st.sampled_from(free))
        before = list(t)
        t[cell] = ref[cell] = data.draw(st.integers(0, n - 1))
        trail, ref_trail = [cell], [cell]
        ok = propagate(t, n, trail, [cell])
        assert ok == ground.propagate(ref, n, ref_trail, [cell])
        if ok:
            assert t == ref
            assert sorted(trail) == [c for c in range(n * n) if before[c] < 0 <= t[c]]
        if not ok or data.draw(st.booleans()):
            for table, cells in ((t, trail), (ref, ref_trail)):
                for c in cells:
                    table[c] = -1
            assert t == ref == before


@pytest.mark.parametrize("name", ["aBE", "implicative-aBE"])
def test_root_propagation_opens_the_off_diagonal_cells_off_the_unit(name):
    # _core._fill fills the cells that root propagation leaves open:
    # (i, j) with i, j < n - 1 and i != j, for every size the search takes
    for n in range(1, MAX_SIZE + 1):
        t = root_table(name, n)
        u = n - 1
        assert [c for c, v in enumerate(t) if v < 0] == [i * n + j for i in range(u) for j in range(u) if i != j]


@pytest.mark.parametrize("complete", [True, False], ids=["complete", "core"])
@pytest.mark.parametrize(
    "name, max_size", [("aBE", 5), ("implicative-aBE", 6), ("Tarski", 6), ("basis", 6), ("clauses", 5)]
)
def test_search_matches_sweep_search(complete, name, max_size, monkeypatch):
    statements = axioms(name)
    if complete:
        # ground_search fills row-major as the complete search does, so the
        # tables, their order and the node counts must agree, and a fault
        # in _core._fill shows
        for n in range(1, max_size + 1):
            tables, nodes, _ = _core._fill(n, statements, range(n * n), ())
            assert ground_search(statements, n) == (tables, nodes), n
        return
    # the core's search, with the ground propagator patched in for the
    # compiled one that _core._fill looks up
    compiled = [_core.search_tables(n, statements) for n in range(1, max_size + 1)]
    monkeypatch.setattr(_core, "_propagator", propagator)
    for n, result in enumerate(compiled, 1):
        assert _core.search_tables(n, statements) == result, n


def test_constants_and_deeper_nests_than_cpython_compiles_are_refused():
    with pytest.raises(ValueError, match="constant 'a'"):
        models._propagator_source([Statement("c", "identity", (Literal(Arrow(Const("a"), Var("x")), Var("x")),))])
    wide = parse_term(" -> ".join(f"x{i:02}" for i in range(21)))
    with pytest.raises(ValueError, match="needs more than 18 nested loops"):
        models._propagator_source([Statement("wide", "identity", (Literal(wide, wide),))])
