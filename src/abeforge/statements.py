"""Identities, clauses, quasi-identities and named axiom systems.

A quasi-identity (hypotheses imply conclusion) is kept with its hypotheses as
display metadata; the kernel and the model checker both work on its clause
form (negated hypotheses plus the conclusion).
"""

from __future__ import annotations

from typing import Iterable

from ._record import record
from .terms import Substitution, Term, format_term, substitute, variables

__all__ = [
    "Literal",
    "Statement",
    "Identity",
    "Clause",
    "QuasiIdentity",
    "AxiomSystem",
    "instantiate",
    "clause_form",
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


class Statement:
    """Base for Identity / Clause / QuasiIdentity; all carry a string id."""

    __slots__ = ()
    id: str

    def free_variables(self) -> set[str]:
        out: set[str] = set()
        for lit in clause_form(self).literals:
            out |= variables(lit.lhs) | variables(lit.rhs)
        return out


@record
class Identity(Statement):
    id: str
    lhs: Term
    rhs: Term

    def __str__(self):
        return f"{format_term(self.lhs)} = {format_term(self.rhs)}"


@record
class Clause(Statement):
    id: str
    literals: tuple[Literal, ...]

    def __post_init__(self):
        if not self.literals:
            raise ValueError("a clause needs at least one literal")

    def __str__(self):
        return " or ".join(str(l) for l in self.literals)


@record
class QuasiIdentity(Statement):
    id: str
    hypotheses: tuple[Literal, ...]
    conclusion: Literal

    def __post_init__(self):
        for lit in (*self.hypotheses, self.conclusion):
            if not lit.positive:
                raise ValueError("quasi-identity parts must be equations")

    def __str__(self):
        hyps = " and ".join(str(h) for h in self.hypotheses)
        return f"{hyps} ==> {self.conclusion}"


@record
class AxiomSystem:
    name: str
    members: tuple[str, ...]


def _subst_literal(lit: Literal, s: Substitution) -> Literal:
    return Literal(substitute(lit.lhs, s), substitute(lit.rhs, s), lit.positive)


def instantiate(st: Statement, s: Substitution, new_id: str | None = None) -> Statement:
    """Apply a substitution to every term of the statement."""
    derived = new_id if new_id is not None else f"{st.id}[inst]"
    if isinstance(st, Identity):
        return Identity(derived, substitute(st.lhs, s), substitute(st.rhs, s))
    if isinstance(st, Clause):
        return Clause(derived, tuple(_subst_literal(l, s) for l in st.literals))
    if isinstance(st, QuasiIdentity):
        return QuasiIdentity(
            derived,
            tuple(_subst_literal(h, s) for h in st.hypotheses),
            _subst_literal(st.conclusion, s),
        )
    raise TypeError(f"not a statement: {st!r}")


def clause_form(st: Statement) -> Clause:
    """The equivalent disjunctive clause (conclusion first, negated hypotheses after)."""
    if isinstance(st, Clause):
        return st
    if isinstance(st, Identity):
        return Clause(st.id, (Literal(st.lhs, st.rhs, True),))
    if isinstance(st, QuasiIdentity):
        lits = (st.conclusion,) + tuple(h.negate() for h in st.hypotheses)
        return Clause(st.id, lits)
    raise TypeError(f"not a statement: {st!r}")


def literal_eq(a: Literal, b: Literal) -> bool:
    """Literal equality up to symmetry of the equation."""
    if a.positive != b.positive:
        return False
    return (a.lhs, a.rhs) == (b.lhs, b.rhs) or (a.lhs, a.rhs) == (b.rhs, b.lhs)


def clauses_equal(a: Iterable[Literal], b: Iterable[Literal]) -> bool:
    """Clause equality up to literal order and equation symmetry."""
    remaining = list(b)
    for lit in a:
        for i, other in enumerate(remaining):
            if literal_eq(lit, other):
                del remaining[i]
                break
        else:
            return False
    return not remaining
