"""The complete search: depth-first fill of the free cells in row-major
order over the propagator of _core, without symmetry breaking.

It returns every labeled table over the fixed unit, a set closed under the
relabelings that fix the unit.  The package does not run it: it is the
reference that the tests (the orbit-counting identity, the per-table filter,
the propagator's sweep reference) and the benchmark's parity gate use, until
ROADMAP item 1(b) moves it into tests/.
"""

from __future__ import annotations

from ._core import _prefill, _propagate


def search_tables(n: int, implicative: bool) -> tuple[list[tuple[int, ...]], int, bool]:
    """Depth-first fill of the free cells in row-major order.

    Returns (complete tables satisfying all axioms, nodes tried, False), the
    triple of the compiled core's search_tables with no budget.  A node is one
    attempted cell assignment.
    """
    u = n - 1
    t = _prefill(n)
    free = [i * n + j for i in range(u) for j in range(u) if i != j]
    results: list[tuple[int, ...]] = []
    nodes = 0

    trail: list[int] = []
    if not _propagate(t, n, implicative, trail, [c for c, v in enumerate(t) if v >= 0]):
        return results, nodes, False

    def rec(k: int):
        # free[:k] are all assigned, and stay so below this frame
        nonlocal nodes
        for k in range(k, len(free)):
            cell = free[k]
            if t[cell] < 0:
                break
        else:
            results.append(tuple(t))
            return
        for v in range(n):
            nodes += 1
            mark = len(trail)
            t[cell] = v
            trail.append(cell)
            if _propagate(t, n, implicative, trail, [cell]):
                rec(k + 1)
            while len(trail) > mark:
                t[trail.pop()] = -1

    rec(0)
    return results, nodes, False
