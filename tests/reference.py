"""Plain references that the tests check the package against.

Nothing in the package reads these: `evaluate` is the recursive evaluator
that `models.satisfies` compiles away, `relabel` applies one bijection to a
table where `models.relabelings` yields them all at once, and `positions`
lists the paths that `terms.subterm_at` and `terms.replace_at` accept, and
`reference_canonical` builds each relabeled table by hand, where
`models.canonical_form` takes the least of the tables that
`models.relabelings` gives for all (n-1)! relabelings.
"""

import itertools
import math
from typing import Mapping, Sequence

from abeforge.models import FiniteAlgebra
from abeforge.terms import Arrow, Const, Term, Unit, Var


def evaluate(model: FiniteAlgebra, t: Term, assignment: Mapping[str, int]) -> int:
    if isinstance(t, Unit):
        return model.unit
    if isinstance(t, (Var, Const)):
        if t.name not in assignment:
            raise KeyError(f"unbound name {t.name!r}")
        return assignment[t.name]
    assert isinstance(t, Arrow)
    return model.table[evaluate(model, t.left, assignment)][evaluate(model, t.right, assignment)]


def relabel(model: FiniteAlgebra, perm: Sequence[int]) -> FiniteAlgebra:
    """Apply the bijection perm (old index -> new index)."""
    n = model.size
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = perm[model.table[i][j]]
    return FiniteAlgebra(n, perm[model.unit], tuple(tuple(row) for row in table))


def positions(t: Term) -> list[str]:
    """All valid positions of t, in pre-order."""
    out = [""]
    if isinstance(t, Arrow):
        out.extend("L" + p for p in positions(t.left))
        out.extend("R" + p for p in positions(t.right))
    return out


def reference_canonical(model):
    """(lex-least row-major table over the relabelings sending the unit to
    n-1, number of relabelings that reach it), by trying all (n-1)! of them.

    The relabelings reaching the least table form one coset of the
    unit-fixing automorphism group, so the count is |Aut(model)|.
    """
    n = model.size
    rest = [i for i in range(n) if i != model.unit]
    best, count = None, 0
    for images in itertools.permutations(range(n - 1)):
        perm = [0] * n
        perm[model.unit] = n - 1
        for old, new in zip(rest, images):
            perm[old] = new
        order = sorted(range(n), key=perm.__getitem__)
        flat = tuple(perm[model.table[i][j]] for i in order for j in order)
        if best is None or flat < best:
            best, count = flat, 1
        elif flat == best:
            count += 1
    return best, count


def orbit_sum(models):
    """Sum over the classes of (n-1)!/|Aut|: the labeled tables they stand for."""
    total = 0
    for model in models:
        _, automorphisms = reference_canonical(model)
        total += math.factorial(model.size - 1) // automorphisms
    return total
