"""The queue-driven propagator of the search core against the fixpoint sweep
it replaced, kept here as the reference: same verdict and same fixpoint on
arbitrary partial tables, and the same search result, tables and node
counts, when the sweep drives the depth-first fill of the complete search
and of the core."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from abeforge import _core, _speed_py
from abeforge.models import MAX_SIZE


def sweep_propagate(t, n, implicative, trail):
    """Re-sweep every antisymmetry, contraction and exchange instance until
    nothing changes.  Returns False on contradiction."""
    u = n - 1
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(i + 1, n):
                if t[i * n + j] == u and t[j * n + i] == u:
                    return False
        if implicative:
            for x in range(n):
                for y in range(n):
                    v = t[x * n + y]
                    if v < 0:
                        continue
                    c = v * n + x
                    w = t[c]
                    if w < 0:
                        t[c] = x
                        trail.append(c)
                        changed = True
                    elif w != x:
                        return False
        for x in range(n):
            for y in range(x + 1, n):
                for z in range(n):
                    i1 = t[y * n + z]
                    i2 = t[x * n + z]
                    if i1 < 0 or i2 < 0:
                        continue
                    c1 = x * n + i1
                    c2 = y * n + i2
                    a = t[c1]
                    b = t[c2]
                    if a >= 0 and b >= 0:
                        if a != b:
                            return False
                    elif a >= 0:
                        t[c2] = a
                        trail.append(c2)
                        changed = True
                    elif b >= 0:
                        t[c1] = b
                        trail.append(c1)
                        changed = True
    return True


@st.composite
def partial_tables(draw):
    """(n, implicative, prefilled table with some free cells assigned)."""
    n = draw(st.integers(1, 6))
    implicative = draw(st.booleans())
    t = _core._prefill(n)
    free = [c for c in range(n * n) if t[c] < 0]
    if free:
        cells = draw(st.lists(st.sampled_from(free), max_size=len(free), unique=True))
        for c in cells:
            t[c] = draw(st.integers(0, n - 1))
    return n, implicative, t


def same_closure(t, n, implicative, queue):
    """Propagate `queue` on t and the sweep on a copy: same verdict, and on
    success the same table, with each newly assigned cell on the trail once.
    Returns (verdict, trail)."""
    before = list(t)
    ref = list(t)
    ok_ref = sweep_propagate(ref, n, implicative, [])
    trail = []
    ok = _core._propagate(t, n, implicative, trail, queue)
    assert ok == ok_ref
    if ok:
        assert t == ref
        assert sorted(trail) == [c for c in range(n * n) if before[c] < 0 <= t[c]]
    return ok, trail


def assigned(t):
    return [c for c, v in enumerate(t) if v >= 0]


@settings(max_examples=300, deadline=None)
@given(partial_tables())
def test_same_fixpoint_from_any_partial_table(case):
    n, implicative, t = case
    same_closure(t, n, implicative, assigned(t))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.data())
def test_same_fixpoint_one_assignment_at_a_time(n, implicative, data):
    # The search queues the prefill once and then only the cell it assigns;
    # every step must land on the sweep's fixpoint, and undoing the step's
    # trail must restore the table it started from.
    t = _core._prefill(n)
    ok, _ = same_closure(t, n, implicative, assigned(t))
    for _ in range(n * n):
        free = [c for c, v in enumerate(t) if v < 0]
        if not ok or not free:
            return
        cell = data.draw(st.sampled_from(free))
        before = list(t)
        t[cell] = data.draw(st.integers(0, n - 1))
        ok, trail = same_closure(t, n, implicative, [cell])
        if not ok or data.draw(st.booleans()):
            for c in trail + [cell]:
                t[c] = -1
            assert t == before
            ok = True


@pytest.mark.parametrize("implicative", [False, True], ids=["aBE", "implicative-aBE"])
def test_root_propagation_opens_the_off_diagonal_cells_off_the_unit(implicative):
    # _core._fill fills the cells that the propagated prefill leaves open:
    # (i, j) with i, j < n - 1 and i != j, for every size the search takes
    for n in range(1, MAX_SIZE + 1):
        t = _core._prefill(n)
        assert _core._propagate(t, n, implicative, [], assigned(t))
        u = n - 1
        assert [c for c, v in enumerate(t) if v < 0] == [i * n + j for i in range(u) for j in range(u) if i != j]


@pytest.mark.parametrize("search", [_speed_py.search_tables, _core.search_tables], ids=["complete", "core"])
@pytest.mark.parametrize("name, max_size", [("aBE", 5), ("implicative-aBE", 6)])
def test_search_matches_sweep_search(search, name, max_size, monkeypatch):
    # both searches run _core._fill, which looks _propagate up in _core
    implicative = name == "implicative-aBE"
    queued = [search(n, implicative) for n in range(1, max_size + 1)]
    monkeypatch.setattr(
        _core, "_propagate", lambda t, n, implicative, trail, queue: sweep_propagate(t, n, implicative, trail)
    )
    for n, result in enumerate(queued, 1):
        assert search(n, implicative) == result, n
