"""The propagator that models compiles from a system's statements against an
interpreted sweep over the ground instances of the same statements, kept
here as the reference: same verdict and same fixpoint on arbitrary partial
tables, and the same search result, tables and node counts, when the sweep
drives the depth-first fill of the complete search and of the core."""

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
from ground_search import ground_clauses


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


@functools.lru_cache(maxsize=None)
def grounded(name, n):
    return ground_clauses(axioms(name), n)


def evaluate(g, t, n):
    """The value of the ground term g in t, or -1 if it reads an open cell."""
    if isinstance(g, int):
        return g
    x, y = evaluate(g[0], t, n), evaluate(g[1], t, n)
    return -1 if x < 0 or y < 0 else t[x * n + y]


def waiting_cell(g, t, n):
    """The open cell that g reads last, when its operands are known, or None."""
    if isinstance(g, int):
        return None
    x, y = evaluate(g[0], t, n), evaluate(g[1], t, n)
    return x * n + y if x >= 0 and y >= 0 and t[x * n + y] < 0 else None


def sweep_propagate(clauses, t, n, trail):
    """Re-sweep every ground clause until nothing changes: one whose literals
    are all false is a contradiction, and one whose only undecided literal
    is an equation with one side known and the other waiting on its own
    open cell assigns that cell.  Returns False on contradiction."""
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            undecided = []
            for lhs, rhs, positive in clause:
                x, y = evaluate(lhs, t, n), evaluate(rhs, t, n)
                if x < 0 or y < 0:
                    undecided.append((lhs, rhs, positive, x, y))
                elif (x == y) == positive:
                    break
            else:
                if not undecided:
                    return False
                if len(undecided) == 1 and undecided[0][2]:
                    lhs, rhs, _, x, y = undecided[0]
                    for known, side in ((x, rhs), (y, lhs)):
                        cell = waiting_cell(side, t, n)
                        if known >= 0 and cell is not None:
                            t[cell] = known
                            trail.append(cell)
                            changed = True
    return True


def sweep_propagator(statements):
    """(propagate, root) as models._propagator gives them, run by the sweep."""
    name = next(name for name in SYSTEMS if axioms(name) == tuple(statements))

    def propagate(t, n, trail, queue):
        return sweep_propagate(grounded(name, n), t, n, trail)

    def root(n):
        t = [-1] * (n * n)
        return t if propagate(t, n, [], None) else None

    return propagate, root


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


def same_closure(name, t, n, queue):
    """Propagate `queue` on t and the sweep on a copy: same verdict, and on
    success the same table, with each newly assigned cell on the trail once.
    Returns (verdict, trail)."""
    before = list(t)
    ref = list(t)
    ok_ref = sweep_propagate(grounded(name, n), ref, n, [])
    trail = []
    ok = models._propagator(axioms(name))[0](t, n, trail, queue)
    assert ok == ok_ref
    if ok:
        assert t == ref
        assert sorted(trail) == [c for c in range(n * n) if before[c] < 0 <= t[c]]
    return ok, trail


def assigned(t):
    return [c for c, v in enumerate(t) if v >= 0]


@settings(max_examples=750, deadline=None)
@given(partial_tables())
def test_same_fixpoint_from_any_partial_table(case):
    name, n, t = case
    same_closure(name, t, n, assigned(t))


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(sorted(SYSTEMS)), st.integers(1, 6), st.data())
def test_same_fixpoint_one_assignment_at_a_time(name, n, data):
    # The search starts from the root table and then queues only the cell
    # it assigns; every step must land on the sweep's fixpoint, and undoing
    # the step's trail must restore the table it started from.
    t = root_table(name, n)
    ok = t is not None and sweep_propagate(grounded(name, n), list(t), n, [])
    for _ in range(n * n):
        free = [c for c, v in enumerate(t) if v < 0] if ok else []
        if not free:
            return
        cell = data.draw(st.sampled_from(free))
        before = list(t)
        t[cell] = data.draw(st.integers(0, n - 1))
        ok, trail = same_closure(name, t, n, [cell])
        if not ok or data.draw(st.booleans()):
            for c in trail + [cell]:
                t[c] = -1
            assert t == before
            ok = True


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
    # both searches run _core._fill, which looks _propagator up in _core
    def search(n):
        if complete:
            return _core._fill(n, axioms(name), range(n * n), ())
        return _core.search_tables(n, axioms(name))

    compiled = [search(n) for n in range(1, max_size + 1)]
    monkeypatch.setattr(_core, "_propagator", sweep_propagator)
    for n, result in enumerate(compiled, 1):
        assert search(n) == result, n


def test_constants_and_deeper_nests_than_cpython_compiles_are_refused():
    with pytest.raises(ValueError, match="constant 'a'"):
        models._propagator_source([Statement("c", "identity", (Literal(Arrow(Const("a"), Var("x")), Var("x")),))])
    wide = parse_term(" -> ".join(f"x{i:02}" for i in range(21)))
    with pytest.raises(ValueError, match="needs more than 18 nested loops"):
        models._propagator_source([Statement("wide", "identity", (Literal(wide, wide),))])
