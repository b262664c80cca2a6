"""The search core: depth-first fill of a partial table with constraint
propagation after every assignment and a lex-leader prefix test (orderly
generation: Read, "Every one a winner", 1978; McKay, "Isomorph-free
exhaustive generation", 1998), its only symmetry breaking.

search_tables() returns, for every model of the given statements over a
fixed unit, exactly one table isomorphic to it, with the number of nodes it
tried.  Propagation is the unit rule over the statements' ground instances,
compiled by models._propagator; it rechecks only the instances of the
cells assigned since the last fixpoint.  _fill, the one depth-first fill,
finds its open cells and builds its prefix-test entries; _speed_py runs it
row-major with no relabelings.
The prefix test reads the unit-fixing relabelings from
models.relabeling_table, the one table that the canonical form relabels by.
"""

from __future__ import annotations

from .models import _propagator, relabeling_table
from .statements import Statement


def _least_so_far(
    t: list[int], order: list[int], tied: list[tuple[bytes, bytes, int]]
) -> list[tuple[bytes, bytes, int]] | None:
    """The lex-leader prefix test in the cell order `order`.

    Compares t with each relabeling pi in `tied`, a (label map, cell map,
    position) entry over models.relabeling_table, from the position it
    reached, cell by cell, up to the first cell where either side is
    unassigned.  Returns None when some pi gives a smaller value first, so
    that every completion of t has a smaller relabeling.  Otherwise returns
    the relabelings still tied with the position each one reached; the
    others already give a larger value on a prefix that stays fixed below.
    """
    m = len(order)
    below = []
    for entry in tied:
        label, cells, p = entry
        while p < m:
            c = order[p]
            x = t[c]
            y = t[cells[c]]
            if x < 0 or y < 0:
                # most relabelings wait where they were: share their entry
                below.append(entry if p == entry[2] else (label, cells, p))
                break
            y = label[y]
            if y != x:
                if y < x:
                    return None
                break
            p += 1
    return below


def _fill(
    n: int, axioms: tuple[Statement, ...], order: list[int] | range, relabelings: tuple[tuple[bytes, bytes], ...],
    node_budget: int = 0,
) -> tuple[list[bytes], int, bool]:
    """search_tables over its own order of all n*n cells and relabelings,
    (label map, cell map) pairs.  It fills the cells that root propagation
    leaves open.  With no relabelings it returns every labeled table.
    """
    propagate, root = _propagator(axioms)
    t = root(n)
    results: list[bytes] = []
    nodes = 0
    exceeded = False
    if t is None:
        return results, nodes, exceeded
    trail: list[int] = []
    free = [c for c in order if t[c] < 0]

    def rec(k: int, tied: list[tuple[bytes, bytes, int]]):
        # free[:k] are all assigned, and stay so below this frame; every
        # relabeling missing from tied is already larger than t
        nonlocal nodes, exceeded
        for k in range(k, len(free)):
            cell = free[k]
            if t[cell] < 0:
                break
        else:
            results.append(bytes(t))
            return
        for v in range(n):
            if node_budget and nodes >= node_budget:
                exceeded = True
                break
            nodes += 1
            mark = len(trail)
            t[cell] = v
            trail.append(cell)
            if propagate(t, n, trail, [cell]):
                below = _least_so_far(t, free, tied)
                if below is not None:
                    rec(k + 1, below)
            while len(trail) > mark:
                t[trail.pop()] = -1
            if exceeded:
                break

    # each relabeling fixes the root table, as statements name no element but
    # the unit, so all start tied at the first open cell
    rec(0, [(label, cells, 0) for label, cells in relabelings])
    return results, nodes, exceeded


def search_tables(
    n: int,
    axioms: tuple[Statement, ...],
    node_budget: int = 0,
) -> tuple[list[bytes], int, bool]:
    """Depth-first fill of the open cells in (max(i, j), row-major) order,
    propagating the statements `axioms`.

    A decision on a cell tries every label in ascending order.  After every
    assignment that propagates, the partial table is compared with each
    unit-fixing relabeling of itself in the same cell order, and cut when one
    is smaller on the filled prefix (orderly generation).  So the search
    reaches exactly one table of every model: the least of its class in cell
    order.

    Returns (one complete table per isomorphism class, as flat row-major
    bytes, nodes tried, budget exceeded).  A node is one attempted cell
    assignment.  node_budget 0 means unlimited.
    """
    order = sorted(range(n * n), key=lambda c: (max(divmod(c, n)), c))
    return _fill(n, axioms, order, relabeling_table(n)[1:], node_budget)
