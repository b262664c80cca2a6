"""Finite algebras as operation tables: satisfaction, isomorphism.

table[i][j] is i -> j.  Nothing about the type implies any axiom holds; a raw
table may violate everything.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import Callable, Iterator, Mapping, Optional, Sequence

from ._record import record
from .statements import AxiomSystem, Literal, Statement, clauses_equal, instantiate
from .terms import Const, Term, Unit, Var

__all__ = [
    "FiniteAlgebra",
    "Witness",
    "satisfies",
    "is_model",
    "relabelings",
    "relabeling_table",
    "from_flat",
    "canonical_form",
    "canonicalize",
    "model_to_json",
    "model_from_json",
    "load_model",
]


@record
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


@record
class Witness:
    statement_id: str
    assignment: dict[str, int]
    literal_values: tuple[tuple[int, int], ...]  # (lhs value, rhs value) per literal


# CPython compiles at most 20 statically nested blocks into one function.
_MAX_LOOPS = 20


def _value(t: Term, names: Mapping[str, str], arrow: Callable[[str, str], str]) -> str:
    """The expression for t's value: "unit", its variable's name in `names`,
    or what arrow(x, y) makes of an arrow from its operands' expressions,
    called left operand first, so once per arrow in post-order.  A constant,
    which no assignment binds, raises ValueError."""
    if isinstance(t, Unit):
        return "unit"
    if isinstance(t, Const):
        raise ValueError(f"constant {t.name!r} cannot be checked in a model")
    if isinstance(t, Var):
        return names[t.name]
    return arrow(_value(t.left, names, arrow), _value(t.right, names, arrow))


def _check_source(literals: Sequence[Literal], names: Sequence[str]) -> str:
    """Source of check(tab, unit, r): one loop per sorted variable name, each
    taking the values in r, that returns the first assignment falsifying the
    clause as a tuple, with the (lhs, rhs) values of its literals under it,
    or None.

    The loop body is straight-line, with one local tab[x][y] per arrow, so no
    term depth reaches CPython's nesting limits.  It evaluates literals in
    clause order up to the first true one, each left side before its right
    side and each left operand before its right one.  A constant, which no
    assignment binds, or more than _MAX_LOOPS variables raise ValueError
    before any table is read."""
    k = len(names)
    if k > _MAX_LOOPS:
        raise ValueError(f"a statement over {k} variables; at most {_MAX_LOOPS} can be checked")
    index = {name: f"v{i}" for i, name in enumerate(names)}
    body: list[str] = []
    arrows = 0

    def arrow(x: str, y: str) -> str:
        nonlocal arrows
        arrows += 1
        body.append(f"a{arrows} = tab[{x}][{y}]")
        return f"a{arrows}"

    nxt = "continue" if k else "return None"
    sides = []
    for lit in literals:
        x, y = _value(lit.lhs, index, arrow), _value(lit.rhs, index, arrow)
        body.append(f"if {x} {'==' if lit.positive else '!='} {y}: {nxt}")
        sides.append(f"({x}, {y}), ")
    # reached only when every literal was tested and found false
    body.append(f"return ({''.join(f'v{i}, ' for i in range(k))}), ({''.join(sides)})")

    src = ["def check(tab, unit, r):"]
    src += ["    " * (i + 1) + f"for v{i} in r:" for i in range(k)]
    src += ["    " * (k + 1) + line for line in body]
    src.append("    return None")
    return "\n".join(src) + "\n"


# id(statement) -> (statement, names, check).  Keyed by identity: hashing a
# frozen statement walks its whole term tree on every lookup.  The entry
# holds its statement, so no other object can take that id while it lives.
_compiled: dict[int, tuple] = {}
_COMPILED_MAX = 1024


def _compile(st: Statement):
    """(sorted variable names, check(tab, unit, r)), compiled once per
    statement object: the function _check_source writes for its clause
    form, which returns the first failing assignment and its literals'
    (lhs, rhs) values, or None."""
    entry = _compiled.get(id(st))
    if entry is not None and entry[0] is st:
        return entry[1], entry[2]
    names = sorted(st.free_variables())
    source = _check_source(st.literals, names)
    namespace: dict = {}
    exec(compile(source, f"<statement {st.id}>", "exec"), namespace)
    check = namespace["check"]
    if len(_compiled) >= _COMPILED_MAX:
        _compiled.clear()
    _compiled[id(st)] = (st, names, check)
    return names, check


def _blocks(st: Statement) -> Iterator[tuple[Optional[str], int, list[str]]]:
    """(trigger, loops, lines) per block that applies the unit rule to the
    instances of st's clause form in which the arrow `trigger` reads the
    cell (a, b) = v, and, if st reads no inner cell, with trigger None to
    all of them.  Variables are v0, v1, ... in sorted order and distinct
    arrows a0, a1, ... in post-order.  A compound trigger operand is
    matched by looping over its variables, right operand first; a variable
    read only as a row is looped over its rows' first cells.  An open inner
    cell skips the instance; root cells are read as the literals are
    decided.  No block runs for an arrow that a variable swap mapping the
    clause onto itself sends to an earlier one."""
    names = sorted(st.free_variables())
    index = {name: f"v{i}" for i, name in enumerate(names)}
    pairs: dict[tuple[str, str], str] = {}

    def arrow(x: str, y: str) -> str:
        return pairs.setdefault((x, y), f"a{len(pairs)}")

    literals = [(_value(lit.lhs, index, arrow), _value(lit.rhs, index, arrow), lit.positive) for lit in st.literals]
    arrows = {name: pair for pair, name in pairs.items()}
    inner = {x for pair in arrows.values() for x in pair if x in arrows}
    values = {y for _, y in arrows.values()} | {z for lit in literals for z in lit[:2]}  # not rows only
    triggers = list(arrows)
    for i, j in itertools.combinations(range(len(names)), 2):
        if clauses_equal(instantiate(st, {names[i]: Var(names[j]), names[j]: Var(names[i])}), st.literals):
            image = {f"v{i}": f"v{j}", f"v{j}": f"v{i}"}
            for name, (x, y) in arrows.items():  # operands before the arrows they build
                image[name] = pairs[image.get(x, x), image.get(y, y)]
            triggers = [name for name in triggers if int(image[name][1:]) >= int(name[1:])]
    for trigger in triggers + [None] * (not inner):
        roots = arrows.keys() - inner - {trigger}
        env = {"unit": "unit", trigger: "v"}  # operand -> its expression, once bound
        rows = {"a": "an"}  # expression -> the same times n, where the code has it
        targets: dict[str, str] = {}  # compound operand of the trigger -> its value
        lines, order, loops = [], [], 0

        def emit(text: str):
            lines.append("    " * loops + text)

        def skip(condition: str):
            emit(f"if {condition}: {'continue' if loops else 'break'}")

        def leaves(x: str) -> list[str]:
            return leaves(arrows[x][1]) + leaves(arrows[x][0]) if x in arrows else [x]

        def bind():
            for name, (x, y) in arrows.items():
                if name not in env and x in env and y in env:
                    cell = f"{rows.get(env[x], env[x] + ' * n')} + {env[y]}"
                    env[name] = targets.get(name) or (name if name in inner else cell)
                    if name in targets:
                        skip(f"t[{cell}] != {targets[name]}")
                    elif name in inner:
                        skip(f"({name} := t[{cell}]) < 0")

        for operand, target in zip(arrows.get(trigger, ()), "ab"):
            if operand in env or operand in targets:
                skip(f"{env.get(operand) or targets[operand]} != {target}")
            elif operand in arrows:
                targets[operand], order = target, order + leaves(operand)
            else:
                env[operand] = target
        bind()
        for x in dict.fromkeys([*order, *index.values()]):
            if x not in env:
                emit(f"for {x} in r:" if x in values else f"for {x}n in rows:")
                rows.update({} if x in values else {x: f"{x}n"})
                env[x], loops = x, loops + 1
                bind()
        if loops + 2 > _MAX_LOOPS:  # the queue's loop and a block's wrapper
            raise ValueError(f"statement {st.id!r} needs more than {_MAX_LOOPS - 2} nested loops to propagate")
        # a disequation not yet false, a true equation, one with both sides
        # open or a second one waiting on a cell skips the instance; w, wv:
        # the cell an equation waits on and its value
        waits = False
        for lhs, rhs, positive in literals:
            unread = [z for z in (lhs, rhs) if z in roots]
            for z in unread:
                emit(f"c{z} = {env[z]}; {z} = t[c{z}]" if positive else f"{z} = t[{env[z]}]")
            x, y = (z if z in roots else env[z] for z in (lhs, rhs))
            skip(" or ".join([f"{z} < 0" for z in unread] + [f"{x} != {y}"]) if not positive else f"{x} == {y}")
            if positive and unread:
                if waits:
                    skip(f"w >= 0 and ({' or '.join(f'{z} < 0' for z in unread)})")
                else:
                    emit("w = -1")
                for i, z in enumerate(unread):
                    emit(f"{'elif' if i else 'if'} {z} < 0: w = c{z}; wv = {y if z == x else x}")
                waits = True
        fail = "return False" if trigger else "return None"
        if waits:
            emit(f"if w < 0: {fail}")
            emit("t[w] = wv; record(w); push(w)")
        else:
            emit(fail)
        if any(line.endswith("break") for line in lines):  # a skip outside every loop
            lines = ["while 1:", *("    " + line for line in lines), "    break"]
        yield trigger, loops, lines


def _propagator_source(statements: Sequence[Statement]) -> str:
    """Source of propagate(t, n, trail, queue) and root(n): the unit rule over
    the ground instances of the statements' clause forms on a flat row-major
    table t, -1 for an open cell, unit n - 1.  An instance whose literals are
    all false is a contradiction; one whose only undecided literal is an
    equation with one side known and the other waiting on its own root cell
    (operands known, cell open) assigns that cell.  The rule is monotone, so
    the order of the work does not change the fixpoint.  propagate runs the
    blocks reading each cell off the queue, fewest loops first, trails and
    queues what it assigns, and returns False on contradiction.  root(n)
    applies the rule to every instance of the statements that read no inner
    cell, as no other can fire on an empty table, then propagates: the
    table, or None."""
    blocks = sorted((block for st in statements for block in _blocks(st)), key=lambda block: block[1])
    prologue = ["unit = n - 1", "r = range(n)", "rows = range(0, n * n, n)", "push = queue.append", "record = trail.append"]
    head = ["while queue:", "    c = queue.pop()", "    a, b = divmod(c, n)", "    an = a * n", "    v = t[c]"]
    propagate = [*prologue, *head, *("    " + x for a, _, lines in blocks if a for x in lines), "return True"]
    root = ["queue, trail = [], []", *prologue, "t = [-1] * (n * n)", *(x for a, _, lines in blocks if not a for x in lines)]
    root.append("return t if propagate(t, n, trail, queue) else None")
    return "def propagate(t, n, trail, queue):\n    " + "\n    ".join(propagate) + "\n\n\ndef root(n):\n    " + "\n    ".join(root) + "\n"


@functools.lru_cache(maxsize=16)
def _propagator(statements: tuple[Statement, ...]):
    """(propagate, root), compiled from _propagator_source once per tuple."""
    namespace: dict = {}
    exec(compile(_propagator_source(statements), "<propagator>", "exec"), namespace)
    return namespace["propagate"], namespace["root"]


def satisfies(model: FiniteAlgebra, st: Statement) -> tuple[bool, Optional[Witness]]:
    """Universal satisfaction of the statement's clause form.

    Assignments are enumerated in row-major order over the sorted variable
    names, so the witness of a failure is deterministic.  Each statement's
    clause form is compiled once into a function of nested loops (_compile),
    which returns the first failing assignment with its literals' values.
    """
    names, check = _compile(st)
    found = check(model.table, model.unit, range(model.size))
    if found is None:
        return True, None
    values, sides = found
    return False, Witness(st.id, dict(zip(names, values)), sides)


def is_model(model: FiniteAlgebra, system: AxiomSystem) -> tuple[bool, Optional[Witness]]:
    """Check every axiom in order; report the first failure."""
    for st in system.members:
        ok, witness = satisfies(model, st)
        if not ok:
            return False, witness
    return True, None


# Cell maps are bytes, so no larger size can be searched or canonicalized.
MAX_SIZE = 16


@functools.lru_cache(maxsize=1)
def relabeling_table(n: int) -> tuple[tuple[bytes, bytes], ...]:
    """(label map, cell map) for each of the (n-1)! relabelings pi of
    range(n) that fix n-1, in lexicographic order of the label maps, so
    the identity first.

    label[x] = pi(x), and cells[c] is the cell (pi^-1 i, pi^-1 j) whose
    value pi sends to the row-major cell c = (i, j): pi turns a flat table t
    into label[t[cells[c]]] at every c.  The search core and the canonical
    form share it.  It is built once per size, and only the latest size is
    kept.  Cells are bytes, so n is at most MAX_SIZE."""
    identity = bytes(range(n))
    # shift[r] translates x to the cell (r, x), for x < n
    shift = [bytes(range(r * n, r * n + n)) + bytes(256 - n) for r in range(n)]
    entries = []
    for images in itertools.permutations(range(n - 1)):
        label = bytes(images) + bytes([n - 1])
        inverse = identity.translate(bytes.maketrans(label, identity))
        entries.append((label, b"".join([inverse.translate(shift[r]) for r in inverse])))
    return tuple(entries)


def _unit_last(model: FiniteAlgebra) -> bytes:
    """The row-major table after the unit and n-1 swap labels."""
    n, t = model.size, model.table
    swap = list(range(n))
    swap[model.unit], swap[n - 1] = n - 1, model.unit
    return bytes([swap[t[i][j]] for i in swap for j in swap])


def relabelings(model: FiniteAlgebra) -> Iterator[bytes]:
    """The row-major table under each of the (n-1)! relabelings that send the
    unit to n-1, as bytes; a table fixed by some of them repeats.  Each is two
    translations: cells to the values there, then values to their labels."""
    t = _unit_last(model).ljust(256, b"\0")
    for label, cells in relabeling_table(model.size):
        yield cells.translate(t).translate(label.ljust(256, b"\0"))


def from_flat(flat: Sequence[int], n: int) -> FiniteAlgebra:
    """The algebra of a row-major n x n table with the unit at n-1."""
    return FiniteAlgebra(n, n - 1, tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n)))


def canonical_form(model: FiniteAlgebra) -> bytes:
    """Relabeling-invariant key; equal iff the models are isomorphic: the
    size, then the lexicographically least of the relabelings."""
    return bytes([model.size]) + min(relabelings(model))


def canonicalize(model: FiniteAlgebra) -> FiniteAlgebra:
    return from_flat(min(relabelings(model)), model.size)


def model_to_json(model: FiniteAlgebra) -> dict:
    return {"size": model.size, "unit": model.unit, "table": [list(r) for r in model.table]}


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):  # bool is an int subclass
        raise ValueError(f"bad model file: {what} must be an integer, not {type(value).__name__}")
    return value


def model_from_json(obj) -> FiniteAlgebra:
    if not isinstance(obj, dict):
        raise ValueError("model file must be a JSON object")
    try:
        size, unit, rows = obj["size"], obj["unit"], obj["table"]
    except KeyError as e:
        raise ValueError(f"bad model file: missing {e}") from e
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("bad model file: table must be a list of rows")
    table = tuple(
        tuple(_json_int(v, f"table[{i}][{j}]") for j, v in enumerate(row))
        for i, row in enumerate(rows)
    )
    size, unit = _json_int(size, "size"), _json_int(unit, "unit")
    try:
        return FiniteAlgebra(size, unit, table)
    except ValueError as e:
        raise ValueError(f"bad model file: {e}") from e


def load_model(path: str) -> FiniteAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as e:  # a ValueError: bad UTF-8, bad JSON, an over-long integer
        raise ValueError(f"cannot read model file: {e}") from e
    except RecursionError as e:
        raise ValueError("model file is nested too deeply") from e
    return model_from_json(obj)
