"""Statements as clauses, and named axiom systems.

Each statement is kept as its clause form: a disjunction of literals.  An
identity is one equation; a quasi-identity (hypotheses imply conclusion) is
its conclusion followed by its negated hypotheses.  The kind picks how a
statement prints, and the kernel rewrites only with identities; otherwise
the kernel and the model checker read the literals alone.
"""

from __future__ import annotations

from typing import Iterable

from ._record import record
from .terms import Substitution, Term, format_term, substitute, variables

__all__ = [
    "Literal",
    "Statement",
    "AxiomSystem",
    "instantiate",
    "literal_eq",
    "clauses_equal",
]


@record
class Literal:
    lhs: Term
    rhs: Term
    positive: bool = True  # True: lhs = rhs; False: lhs != rhs

    def negate(self) -> "Literal":
        return Literal(self.lhs, self.rhs, not self.positive)

    def __str__(self):
        op = "=" if self.positive else "!="
        return f"{format_term(self.lhs)} {op} {format_term(self.rhs)}"


@record
class Statement:
    """A named clause.  `kind` is "identity" (one positive literal),
    "quasi-identity" (the conclusion, then the negated hypotheses) or
    "clause", as `corpus show` prints it, and picks how it renders."""

    id: str
    kind: str
    literals: tuple[Literal, ...]

    def free_variables(self) -> set[str]:
        out: set[str] = set()
        for lit in self.literals:
            out |= variables(lit.lhs) | variables(lit.rhs)
        return out

    def __str__(self):
        if self.kind == "quasi-identity":
            hyps = " and ".join(str(h.negate()) for h in self.literals[1:])
            return f"{hyps} ==> {self.literals[0]}"
        return " or ".join(str(l) for l in self.literals)


@record
class AxiomSystem:
    name: str
    members: tuple[Statement, ...]  # the axioms, resolved from their ids as the corpus loads


def instantiate(st: Statement, s: Substitution) -> tuple[Literal, ...]:
    """The statement's literals with `s` applied to both sides."""
    return tuple(Literal(substitute(l.lhs, s), substitute(l.rhs, s), l.positive) for l in st.literals)


def literal_eq(a: Literal, b: Literal) -> bool:
    """Literal equality up to symmetry of the equation."""
    if a.positive != b.positive:
        return False
    return (a.lhs, a.rhs) == (b.lhs, b.rhs) or (a.lhs, a.rhs) == (b.rhs, b.lhs)


def clauses_equal(a: Iterable[Literal], b: Iterable[Literal]) -> bool:
    """Equality of two clauses up to literal order and equation symmetry."""
    remaining = list(b)
    for lit in a:
        for i, other in enumerate(remaining):
            if literal_eq(lit, other):
                del remaining[i]
                break
        else:
            return False
    return not remaining
