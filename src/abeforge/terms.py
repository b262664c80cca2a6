"""Terms over the signature {1, ->}: syntax, substitution, matching, positions.

Terms are immutable trees.  Identifiers denote variables by default; a name
becomes a proof-local constant only because the enclosing script declares it,
so :func:`parse_term` takes the declared constant set as a parameter.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Optional

from ._record import record

__all__ = [
    "Term",
    "Var",
    "Const",
    "Unit",
    "UNIT",
    "Arrow",
    "parse_term",
    "format_term",
    "substitute",
    "match_pattern",
    "subterm_at",
    "replace_at",
    "variables",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# The deepest nest of arrows and parentheses parse_term takes: one the
# kernel's recursive comparisons replay with room to spare.
MAX_DEPTH = 256

Substitution = Mapping[str, "Term"]


class Term:
    """Base class; concrete nodes are Var, Const, Unit, Arrow."""

    __slots__ = ()


@record
class Var(Term):
    name: str

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"invalid variable name {self.name!r}")

    def __repr__(self):
        return f"Var({self.name})"


@record
class Const(Term):
    name: str

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"invalid constant name {self.name!r}")

    def __repr__(self):
        return f"Const({self.name})"


@record
class Unit(Term):
    def __repr__(self):
        return "Unit"


UNIT = Unit()


@record
class Arrow(Term):
    left: Term
    right: Term

    def __repr__(self):
        return f"Arrow({self.left!r}, {self.right!r})"


_TOKEN_RE = re.compile(r"\s*(->|\(|\)|[A-Za-z_][A-Za-z0-9_]*|1|\S)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        tok = m.group(1)
        if tok not in ("->", "(", ")", "1") and not _IDENT_RE.fullmatch(tok):
            raise ValueError(f"unexpected character {tok!r} (at offset {m.start(1)})")
        tokens.append((tok, m.start(1)))
        pos = m.end()
    return tokens


def parse_term(text: str, constants: Iterable[str] = ()) -> Term:
    """Parse the concrete syntax.  '->' is right-associative.

    Names listed in `constants` parse to Const nodes; everything else to Var.
    A term nesting arrows and parentheses deeper than MAX_DEPTH raises
    RecursionError, as the kernel would on replaying it.
    """
    const_set = frozenset(constants)
    if "1" in const_set:
        raise ValueError("the name '1' is reserved for the unit")
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx][0] if idx < len(tokens) else None

    def parse_expr(depth: int) -> Term:
        nonlocal idx
        if depth > MAX_DEPTH:
            # the refusal that a deeper recursion would end in, only sooner
            raise RecursionError(f"a term nests deeper than {MAX_DEPTH}")
        left = parse_atom(depth)
        if peek() == "->":
            idx += 1
            return Arrow(left, parse_expr(depth + 1))
        return left

    def parse_atom(depth: int) -> Term:
        nonlocal idx
        if idx >= len(tokens):
            raise ValueError(f"unexpected end of input (at offset {len(text)})")
        tok, off = tokens[idx]
        if tok == "(":
            idx += 1
            inner = parse_expr(depth + 1)
            if peek() != ")":
                off = tokens[idx][1] if idx < len(tokens) else len(text)
                raise ValueError(f"expected ')' (at offset {off})")
            idx += 1
            return inner
        if tok == "1":
            idx += 1
            return UNIT
        if _IDENT_RE.fullmatch(tok):
            idx += 1
            return Const(tok) if tok in const_set else Var(tok)
        raise ValueError(f"unexpected token {tok!r} (at offset {off})")

    result = parse_expr(0)
    if idx < len(tokens):
        raise ValueError(f"trailing input {tokens[idx][0]!r} (at offset {tokens[idx][1]})")
    return result


def format_term(t: Term) -> str:
    """Minimal-parenthesis rendering; parse_term(format_term(t)) == t."""
    if isinstance(t, Unit):
        return "1"
    if isinstance(t, (Var, Const)):
        return t.name
    assert isinstance(t, Arrow)
    left = format_term(t.left)
    if isinstance(t.left, Arrow):
        left = f"({left})"
    return f"{left} -> {format_term(t.right)}"


def substitute(t: Term, s: Substitution) -> Term:
    """Simultaneous substitution: images are never re-substituted into."""
    if isinstance(t, Var):
        return s.get(t.name, t)
    if isinstance(t, Arrow):
        left = substitute(t.left, s)
        right = substitute(t.right, s)
        if left is t.left and right is t.right:
            return t
        return Arrow(left, right)
    return t


def match_pattern(pattern: Term, subject: Term) -> Optional[dict[str, Term]]:
    """One-way matching: pattern variables bind, subject variables are inert.

    Returns the minimal substitution s with substitute(pattern, s) == subject,
    or None if there is no such s.
    """
    bindings: dict[str, Term] = {}

    def walk(p: Term, s: Term) -> bool:
        if isinstance(p, Var):
            bound = bindings.get(p.name)
            if bound is None:
                bindings[p.name] = s
                return True
            return bound == s
        if isinstance(p, Arrow):
            return isinstance(s, Arrow) and walk(p.left, s.left) and walk(p.right, s.right)
        return p == s

    return bindings if walk(pattern, subject) else None


def _check_position(path: str):
    for i, sel in enumerate(path):
        if sel not in "LR":
            raise ValueError(f"bad selector {sel!r} (selector index {i})")


def subterm_at(t: Term, path: str) -> Term:
    """Subtree at a position given as a string over {'L','R'} ('' = root)."""
    _check_position(path)
    cur = t
    for i, sel in enumerate(path):
        if not isinstance(cur, Arrow):
            raise ValueError(f"cannot descend {sel!r} into {format_term(cur)!r} (selector index {i})")
        cur = cur.left if sel == "L" else cur.right
    return cur


def replace_at(t: Term, path: str, replacement: Term) -> Term:
    """Return t with the subtree at `path` replaced; everything else shared."""
    _check_position(path)

    def go(cur: Term, i: int) -> Term:
        if i == len(path):
            return replacement
        if not isinstance(cur, Arrow):
            raise ValueError(f"cannot descend {path[i]!r} into {format_term(cur)!r} (selector index {i})")
        if path[i] == "L":
            return Arrow(go(cur.left, i + 1), cur.right)
        return Arrow(cur.left, go(cur.right, i + 1))

    return go(t, 0)


def variables(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Arrow):
        return variables(t.left) | variables(t.right)
    return set()
