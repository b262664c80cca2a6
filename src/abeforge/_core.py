"""The search core: depth-first fill of a partial table with constraint
propagation after every assignment and a lex-leader prefix test (orderly
generation: Read, "Every one a winner", 1978; McKay, "Isomorph-free
exhaustive generation", 1998), its only symmetry breaking.

search_tables() returns, for every model over a fixed unit, exactly one
table isomorphic to it, with the number of nodes it tried.  Propagation
rechecks only the axiom instances of the cells assigned since the last
fixpoint; _speed_py runs the same propagator without symmetry breaking.
The prefix test reads the unit-fixing relabelings from
models.relabeling_table, the one table that the canonical form relabels by.
"""

from __future__ import annotations

from .models import relabeling_table


def _prefill(n: int) -> list[int]:
    """Cells forced by 1->x = x, x->1 = 1 and x->x = 1, unit at n-1."""
    u = n - 1
    t = [-1] * (n * n)
    for j in range(n):
        t[u * n + j] = j
    for i in range(n):
        t[i * n + u] = u
        t[i * n + i] = u
    return t


def _propagate(
    t: list[int], n: int, implicative: bool, trail: list[int], queue: list[int]
) -> bool:
    """Propagate the assigned cells in `queue` to a fixpoint.

    Each cell (a,b) = v taken off the queue rechecks only the axiom instances
    it takes part in: antisymmetry against (b,a); contraction (a -> b) -> a = a
    (when implicative); and exchange x -> (y -> z) = y -> (x -> z) with (a,b)
    as one of the index cells y -> z, x -> z or as one of the two cells they
    select.  Every forced cell is recorded on the trail for backtracking and
    queued in turn.  The rules are monotone, so the fixpoint (or the
    contradiction) does not depend on the queue order.  The caller queues
    every assigned cell once, then only the cells it assigns itself.
    Returns False on contradiction; the queue is left in no defined state.
    """
    u = n - 1
    rows = range(0, n * n, n)
    push = queue.append
    record = trail.append
    while queue:
        c = queue.pop()
        a, b = divmod(c, n)
        v = t[c]
        # antisymmetry: a -> b = 1 and b -> a = 1 with a != b is impossible
        if v == u and a != b and t[b * n + a] == u:
            return False
        # contraction with (a,b) as its premise: v -> a = a
        if implicative:
            d = v * n + a
            w = t[d]
            if w < 0:
                t[d] = a
                record(d)
                push(d)
            elif w != a:
                return False
        an = a * n
        # (a,b) as an index cell: w -> (a -> b) = a -> (w -> b), i.e.
        # (w,v) = (a,q) where q = w -> b
        for wn in rows:
            q = t[wn + b]
            if q < 0 or wn == an:
                continue
            c1 = wn + v
            c2 = an + q
            x1 = t[c1]
            x2 = t[c2]
            if x1 >= 0:
                if x2 < 0:
                    t[c2] = x1
                    record(c2)
                    push(c2)
                elif x1 != x2:
                    return False
            elif x2 >= 0:
                t[c1] = x2
                record(c1)
                push(c1)
        # (a,b) as a selected cell: a -> (y -> z) = y -> (a -> z) for every
        # y -> z = b, i.e. (y,q) = v where q = a -> z.  Needed: an instance
        # whose two selected cells were both open when its index cells were
        # checked is enforced only here.
        for z in range(n):
            q = t[an + z]
            if q < 0 or b not in t[z::n]:
                continue
            for yn in rows:
                if t[yn + z] == b and yn != an:
                    c2 = yn + q
                    x2 = t[c2]
                    if x2 < 0:
                        t[c2] = v
                        record(c2)
                        push(c2)
                    elif x2 != v:
                        return False
    return True


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


def search_tables(
    n: int,
    implicative: bool,
    node_budget: int = 0,
) -> tuple[list[bytes], int, bool]:
    """Depth-first fill of the free cells in (max(i, j), row-major) order.

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
    u = n - 1
    t = _prefill(n)
    free = [i * n + j for i in range(u) for j in range(u) if i != j]
    free.sort(key=lambda c: (max(divmod(c, n)), c))
    results: list[bytes] = []
    nodes = 0
    exceeded = False

    trail: list[int] = []
    if not _propagate(t, n, implicative, trail, [c for c, v in enumerate(t) if v >= 0]):
        return results, nodes, exceeded

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
            if _propagate(t, n, implicative, trail, [cell]):
                below = _least_so_far(t, free, tied)
                if below is not None:
                    rec(k + 1, below)
            while len(trail) > mark:
                t[trail.pop()] = -1
            if exceeded:
                break

    # every relabeling but the identity, each from the first cell: the
    # propagated prefill is fixed by all of them, so none is smaller yet
    rec(0, [(label, cells, 0) for label, cells in relabeling_table(n)[1:]])
    return results, nodes, exceeded
