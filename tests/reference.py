"""Plain references that the tests check the package against.

Nothing in the package reads these: `evaluate` is the recursive evaluator
that `models.satisfies` compiles away, `relabel` applies one bijection to a
table where `models.relabelings` yields them all at once, and `positions`
lists the paths that `terms.subterm_at` and `terms.replace_at` accept.
"""

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
