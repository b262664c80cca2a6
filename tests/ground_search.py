"""An independent reference search, written from the statements alone.

It shares no code with abeforge._core or abeforge._speed_py.  Each
statement's clause form is grounded over range(n), with the unit 1 read as
n - 1.  The search fills all n * n cells in row-major order, trying every
value of a cell in ascending order, and rechecks an open ground clause only
when the first cell that blocks it is assigned.  It does not propagate, so
it is only for small sizes.
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
            out.append(
                tuple(
                    (_ground(lit.lhs, n, values), _ground(lit.rhs, n, values), lit.positive)
                    for lit in st.literals
                )
            )
    return out


def _value(g, table, n):
    """(the value of the ground term g, None), or (None, the first
    unassigned cell that it reads), left operand before right."""
    if isinstance(g, int):
        return g, None
    x, blocked = _value(g[0], table, n)
    if blocked is None:
        y, blocked = _value(g[1], table, n)
    if blocked is not None:
        return None, blocked
    v = table[x * n + y]
    return (v, None) if v >= 0 else (None, x * n + y)


def _status(clause, table, n):
    """True if a literal holds, False if every literal fails, otherwise the
    first cell, in literal order, that blocks the clause."""
    for lhs, rhs, positive in clause:
        x, blocked = _value(lhs, table, n)
        if blocked is None:
            y, blocked = _value(rhs, table, n)
        if blocked is not None:
            return blocked
        if (x == y) == positive:
            return True
    return False


def ground_search(statements, n):
    """Every n x n table, as a row-major tuple, in which each statement holds
    with 1 read as n - 1."""
    table = [-1] * (n * n)
    # watches[c]: the open clauses that cell c is the first to block
    watches = [[] for _ in table]
    for clause in ground_clauses(statements, n):
        status = _status(clause, table, n)
        if status is False:
            return []
        if status is not True:
            watches[status].append(clause)
    results = []

    def fill(c):
        if c == len(table):
            results.append(tuple(table))
            return
        for v in range(n):
            table[c] = v
            moved = []
            for clause in watches[c]:
                status = _status(clause, table, n)
                if status is False:
                    break
                if status is not True:
                    # a later cell, since every cell up to c is assigned
                    watches[status].append(clause)
                    moved.append(status)
            else:
                fill(c + 1)
            for cell in moved:
                watches[cell].pop()
        table[c] = -1

    fill(0)
    return results
