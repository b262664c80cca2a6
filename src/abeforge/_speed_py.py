"""The complete search: the depth-first fill of _core in row-major order,
with no relabelings to cut by; the fill finds the open cells itself.

It returns every labeled table over the fixed unit, a set closed under the
relabelings that fix the unit.  The package does not run it: it is the
reference that the tests (the orbit-counting identity, the per-table filter,
the propagator's sweep reference) and the benchmark's parity gate use, until
ROADMAP item 1(b) moves it into tests/.
"""

from __future__ import annotations

from ._core import _fill


def search_tables(n: int, implicative: bool) -> tuple[list[tuple[int, ...]], int, bool]:
    """Depth-first fill of the open cells in row-major order.

    Returns (complete tables satisfying all axioms, nodes tried, False), the
    triple of the compiled core's search_tables with no budget.  A node is one
    attempted cell assignment.
    """
    tables, nodes, _ = _fill(n, implicative, range(n * n), ())
    return [tuple(t) for t in tables], nodes, False
