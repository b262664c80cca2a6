"""An independent reference search, written from the statements alone.

It shares no code with abeforge._core or the propagator that models
compiles, yet applies the same unit rule to the ground instances of each
statement's clause form over range(n), 1 read as n - 1, as SEM (Zhang and
Zhang, IJCAI 1995) and Mace4 (McCune, ANL/MCS-TM-264, 2003) do: an
instance whose literals are all false fails, and one whose only undecided
literal is an equation with one side known and the other waiting on its
own root cell (operands known, cell open) assigns that cell.

An instance is rechecked when a cell it watches is assigned: the cells that
block up to two of its undecided sides, for while both stay open it can
neither fail nor assign.  Watches are only ever added, so under depth-first
backtracking a stale watch costs one recheck and never misses a firing.
"""

import itertools

from abeforge.terms import Unit, Var


def _ground(t, n, values):
    """t with its variables replaced by their values and 1 by n - 1: an
    element, or a pair (left, right) for an arrow."""
    if isinstance(t, Unit):
        return n - 1
    if isinstance(t, Var):
        return values[t.name]
    return (_ground(t.left, n, values), _ground(t.right, n, values))


def ground_clauses(statements, n):
    """Every instance over range(n) of each statement's clause form, as a
    tuple of (lhs, rhs, positive) literals."""
    out = []
    for st in statements:
        names = sorted(st.free_variables())
        for image in itertools.product(range(n), repeat=len(names)):
            values = dict(zip(names, image))
            out.append(tuple((_ground(lit.lhs, n, values), _ground(lit.rhs, n, values), lit.positive) for lit in st.literals))
    return out


def _value(g, t, n):
    """(v, c) for the ground term g in the table t: its value and c = -1;
    v = -1 and c its own root cell, open with both operands known; or
    v = -2 and c the first open cell that an operand reads, left first."""
    if isinstance(g, int):
        return g, -1
    x, c = _value(g[0], t, n)
    if c < 0:
        y, c = _value(g[1], t, n)
        if c < 0:
            c = x * n + y
            v = t[c]
            return (v, -1) if v >= 0 else (-1, c)
    return -2, c


class Ground:
    """The unit rule over the ground instances of `statements`: root and
    propagate are the pair that models._propagator compiles, with each
    instance watched on the cells that say when to recheck it."""

    def __init__(self, statements):
        self.statements = statements

    def root(self, n, t=None):
        """Ground the statements at size n, examine every instance once on
        t, by default the empty table, and propagate: the fixpoint t, or
        None on contradiction."""
        self.n = n
        self.clauses = ground_clauses(self.statements, n)
        self.watches = [set() for _ in range(n * n)]
        t = [-1] * (n * n) if t is None else t
        trail, queue = [], []
        examined = all(self.examine(i, t, trail, queue) for i in range(len(self.clauses)))
        return t if examined and self.propagate(t, n, trail, queue) else None

    def examine(self, i, t, trail, queue):
        """Apply the unit rule to instance i of the table t: False if every
        literal is false; else assign, trail and queue the cell it waits on,
        or watch it on the cells that block up to two undecided sides."""
        blocked = []  # the open cells that block the undecided sides
        waiting = None  # (cell, value) when an undecided equation can assign
        for lhs, rhs, positive in self.clauses[i]:
            x, cx = _value(lhs, t, self.n)
            y, cy = _value(rhs, t, self.n)
            if cx < 0 and cy < 0:
                if (x == y) == positive:
                    return True
                continue
            for v, c, other in ((x, cx, y), (y, cy, x)):
                if c >= 0:
                    blocked.append(c)
                    if positive and v == -1 and other >= 0:
                        waiting = c, other
        if not blocked:
            return False
        if len(blocked) == 1 and waiting:
            c, v = waiting
            t[c] = v
            trail.append(c)
            queue.append(c)
        else:
            for c in blocked[:2]:
                self.watches[c].add(i)
        return True

    def propagate(self, t, n, trail, queue):
        """Recheck the instances watched on each queued cell of t, a table
        that root(n) began, until the queue is empty; False on
        contradiction."""
        while queue:
            for i in self.watches[queue.pop()]:
                if not self.examine(i, t, trail, queue):
                    return False
        return True


def propagator(statements):
    """(propagate, root), as models._propagator gives them."""
    ground = Ground(statements)
    return ground.propagate, ground.root


def ground_search(statements, n):
    """(every n x n table, as row-major bytes, in which each statement holds
    with 1 read as n - 1, nodes tried).  The fill assigns the first open
    cell in row-major order, tries its values in ascending order and
    propagates after each; a node is one attempted assignment."""
    ground = Ground(statements)
    t = ground.root(n)
    tables, nodes = [], 0
    if t is None:
        return tables, nodes

    def fill(c):
        nonlocal nodes
        while c < len(t) and t[c] >= 0:
            c += 1
        if c == len(t):
            tables.append(bytes(t))
            return
        for v in range(n):
            nodes += 1
            t[c] = v
            trail = [c]
            if ground.propagate(t, n, trail, [c]):
                fill(c + 1)
            for cell in trail:
                t[cell] = -1

    fill(0)
    return tables, nodes
