"""Finite algebras as operation tables: evaluation, satisfaction, isomorphism.

table[i][j] is i -> j.  Nothing about the type implies any axiom holds; a raw
table may violate everything.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterator, Mapping, Optional, Sequence

from ._record import record
from .statements import AxiomSystem, Literal, Statement, clause_form
from .terms import Arrow, Const, Term, Unit, Var

__all__ = [
    "FiniteAlgebra",
    "Witness",
    "ModelFileError",
    "evaluate",
    "satisfies",
    "is_model",
    "relabel",
    "relabelings",
    "from_flat",
    "canonical_form",
    "canonicalize",
    "are_isomorphic",
    "model_to_json",
    "model_from_json",
    "load_model",
]


@record(frozen=True)
class FiniteAlgebra:
    size: int
    unit: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.size
        if n < 1:
            raise ValueError("size must be >= 1")
        if not 0 <= self.unit < n:
            raise ValueError("unit out of range")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("table must be size x size")
        if any(not 0 <= v < n for row in self.table for v in row):
            raise ValueError("table entry out of range")


@record(frozen=True)
class Witness:
    statement_id: str
    assignment: dict[str, int]
    literal_values: tuple[tuple[int, int], ...]  # (lhs value, rhs value) per literal


class ModelFileError(ValueError):
    pass


def evaluate(model: FiniteAlgebra, t: Term, assignment: Mapping[str, int]) -> int:
    if isinstance(t, Unit):
        return model.unit
    if isinstance(t, (Var, Const)):
        if t.name not in assignment:
            raise KeyError(f"unbound name {t.name!r}")
        return assignment[t.name]
    assert isinstance(t, Arrow)
    return model.table[evaluate(model, t.left, assignment)][evaluate(model, t.right, assignment)]


def _compile_term(t: Term, index: Mapping[str, int]):
    """t as a closure (table, unit, values) -> int, with the value of the
    name index[name] at values[index[name]].  A name without an index, such
    as a proof-local constant, raises the KeyError evaluate raises."""
    if isinstance(t, Unit):
        return lambda tab, unit, a: unit
    if isinstance(t, (Var, Const)):
        i = index.get(t.name)
        if i is None:
            message = f"unbound name {t.name!r}"

            def unbound(tab, unit, a):
                raise KeyError(message)

            return unbound
        return lambda tab, unit, a: a[i]
    assert isinstance(t, Arrow)
    i, j = _bound_index(t.left, index), _bound_index(t.right, index)
    # Arrows over bound names read the table directly: most calls end there.
    if i is not None and j is not None:
        return lambda tab, unit, a: tab[a[i]][a[j]]
    left = _compile_term(t.left, index)
    right = _compile_term(t.right, index)
    if i is not None:
        return lambda tab, unit, a: tab[a[i]][right(tab, unit, a)]
    if j is not None:
        return lambda tab, unit, a: tab[left(tab, unit, a)][a[j]]
    return lambda tab, unit, a: tab[left(tab, unit, a)][right(tab, unit, a)]


def _bound_index(t: Term, index: Mapping[str, int]) -> Optional[int]:
    if isinstance(t, (Var, Const)):
        return index.get(t.name)
    return None


def _compile_literal(lit: Literal, index: Mapping[str, int]):
    lhs = _compile_term(lit.lhs, index)
    rhs = _compile_term(lit.rhs, index)
    if lit.positive:
        return lambda tab, unit, a: lhs(tab, unit, a) == rhs(tab, unit, a)
    return lambda tab, unit, a: lhs(tab, unit, a) != rhs(tab, unit, a)


# id(statement) -> (statement, names, closure).  Keyed by identity: hashing
# a frozen statement walks its whole term tree on every lookup.  The entry
# holds its statement, so no other object can take that id while it lives.
_compiled: dict[int, tuple] = {}
_COMPILED_MAX = 1024


def _compile(st: Statement):
    """(sorted variable names, closure (table, unit, values) -> clause holds),
    built once per statement object.

    Literals are tried in clause order up to the first true one, each left
    side before its right side, as evaluate would be called, so an unbound
    constant raises under the same assignments."""
    entry = _compiled.get(id(st))
    if entry is not None and entry[0] is st:
        return entry[1], entry[2]
    names = sorted(st.free_variables())
    index = {name: i for i, name in enumerate(names)}
    literals = [_compile_literal(lit, index) for lit in clause_form(st).literals]
    if len(literals) == 1:
        holds = literals[0]
    else:

        def holds(tab, unit, a):
            for lit in literals:
                if lit(tab, unit, a):
                    return True
            return False

    if len(_compiled) >= _COMPILED_MAX:
        _compiled.clear()
    _compiled[id(st)] = (st, names, holds)
    return names, holds


def _witness(model: FiniteAlgebra, st: Statement, names, values) -> Witness:
    assignment = dict(zip(names, values))
    evals = tuple(
        (evaluate(model, lit.lhs, assignment), evaluate(model, lit.rhs, assignment))
        for lit in clause_form(st).literals
    )
    return Witness(st.id, assignment, evals)


def satisfies(model: FiniteAlgebra, st: Statement) -> tuple[bool, Optional[Witness]]:
    """Universal satisfaction of the statement's clause form.

    Assignments are enumerated in row-major order over the sorted variable
    names, so the witness of a failure is deterministic.  Each statement's
    clause form is compiled once into closures over a positional assignment;
    the witness of the first failing assignment is rebuilt with evaluate.
    """
    names, holds = _compile(st)
    tab, unit = model.table, model.unit
    for values in itertools.product(range(model.size), repeat=len(names)):
        if not holds(tab, unit, values):
            return False, _witness(model, st, names, values)
    return True, None


def is_model(
    model: FiniteAlgebra, system: AxiomSystem, statements: Mapping[str, Statement]
) -> tuple[bool, Optional[Witness]]:
    """Check every axiom in order; report the first failure."""
    for sid in system.members:
        ok, witness = satisfies(model, statements[sid])
        if not ok:
            return False, witness
    return True, None


def relabel(model: FiniteAlgebra, perm: Sequence[int]) -> FiniteAlgebra:
    """Apply the bijection perm (old index -> new index)."""
    n = model.size
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = perm[model.table[i][j]]
    return FiniteAlgebra(n, perm[model.unit], tuple(tuple(row) for row in table))


def relabelings(model: FiniteAlgebra) -> Iterator[bytes]:
    """The row-major table under each of the (n-1)! relabelings that send the
    unit to n-1, as bytes; a table fixed by some of them repeats."""
    n, unit, t = model.size, model.unit, model.table
    rest = [x for x in range(n) if x != unit]
    label = [n - 1] * n  # old element -> new label
    for order in itertools.permutations(rest):  # new label -> old element
        order += (unit,)
        for new, old in enumerate(order):
            label[old] = new
        yield bytes([label[t[i][j]] for i in order for j in order])


def from_flat(flat: Sequence[int], n: int) -> FiniteAlgebra:
    """The algebra of a row-major n x n table with the unit at n-1."""
    return FiniteAlgebra(n, n - 1, tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n)))


def canonical_form(model: FiniteAlgebra) -> bytes:
    """Relabeling-invariant key; equal iff the models are isomorphic.

    The lexicographically least row-major table over the relabelings that
    send the unit to n-1, after the size."""
    return bytes([model.size]) + min(relabelings(model))


def canonicalize(model: FiniteAlgebra) -> FiniteAlgebra:
    return from_flat(min(relabelings(model)), model.size)


def are_isomorphic(m1: FiniteAlgebra, m2: FiniteAlgebra) -> bool:
    if m1.size != m2.size:
        return False
    return canonical_form(m1) == canonical_form(m2)


def model_to_json(model: FiniteAlgebra) -> dict:
    return {"size": model.size, "unit": model.unit, "table": [list(r) for r in model.table]}


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):  # bool is an int subclass
        raise ModelFileError(f"bad model file: {what} must be an integer, not {type(value).__name__}")
    return value


def model_from_json(obj) -> FiniteAlgebra:
    if not isinstance(obj, dict):
        raise ModelFileError("model file must be a JSON object")
    try:
        size, unit, rows = obj["size"], obj["unit"], obj["table"]
    except KeyError as e:
        raise ModelFileError(f"bad model file: missing {e}") from e
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ModelFileError("bad model file: table must be a list of rows")
    table = tuple(
        tuple(_json_int(v, f"table[{i}][{j}]") for j, v in enumerate(row))
        for i, row in enumerate(rows)
    )
    size, unit = _json_int(size, "size"), _json_int(unit, "unit")
    try:
        return FiniteAlgebra(size, unit, table)
    except ValueError as e:
        raise ModelFileError(f"bad model file: {e}") from e


def load_model(path: str) -> FiniteAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelFileError(f"cannot read model file: {e}") from e
    except RecursionError as e:
        raise ModelFileError("model file is nested too deeply") from e
    return model_from_json(obj)
