"""Isomorph-free model enumeration, the brute-force oracle, and property search.

The hot inner loop, the search over partial tables with constraint
propagation and orderly generation, lives in _core and returns one labeled
table per isomorphism class; this module canonicalizes and sorts them and
checks properties over them.
"""

from __future__ import annotations

import itertools
import time
from typing import Optional

from . import _core
from .models import (
    MAX_SIZE,
    FiniteAlgebra,
    Witness,
    canonical_form,
    canonicalize,
    from_flat,
    is_model,
    satisfies,
)
from .statements import AxiomSystem, Statement

__all__ = [
    "core_name",
    "enumerate_with_stats",
    "enumerate_sizes",
    "brute_force_models",
    "first_counterexample",
]

BRUTE_FORCE_MAX = 3


def core_name() -> str:
    """The search core that runs.  There is only one; this stays because the
    benchmark's setup probe imports it."""
    return "python"


def _implicative_flag(system: AxiomSystem) -> bool:
    if system.name == "aBE":
        return False
    if system.name == "implicative-aBE":
        return True
    raise ValueError(f"the search core only knows 'aBE' and 'implicative-aBE', not {system.name!r}")


def enumerate_with_stats(
    system: AxiomSystem,
    n: int,
    node_budget: int = 0,
) -> tuple[list[FiniteAlgebra], int, bool]:
    """One representative per isomorphism class, ascending by canonical form.

    The core returns exactly one labeled table (unit at n-1) of every class,
    the least of its class in the core's cell order; isomorph rejection
    canonicalizes each one and sorts them.  Completeness is checked by the
    tests, by the orbit-counting identity against the complete search of
    _speed_py.  A size whose budget ran out returns no models.
    """
    if n < 1:
        raise ValueError("size must be >= 1")
    if n > MAX_SIZE:
        raise ValueError(f"size must be <= {MAX_SIZE}")
    if node_budget < 0:
        raise ValueError("node budget must be >= 0")
    tables, nodes, exceeded = _core.search_tables(n, _implicative_flag(system), node_budget)
    if exceeded:
        return [], nodes, exceeded
    models = [canonicalize(from_flat(flat, n)) for flat in tables]
    models.sort(key=lambda m: m.table)  # one size, so rows compare as the flat table
    return models, nodes, exceeded


def brute_force_models(
    system: AxiomSystem, n: int, statements
) -> tuple[int, int]:
    """Independent oracle: every table over a fixed unit n-1, filtered by the
    generic satisfaction checker.  Returns (labeled count, iso-class count)."""
    if n < 1:
        raise ValueError("size must be >= 1")
    if n > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force is capped at size {BRUTE_FORCE_MAX}, got {n}")
    labeled = 0
    classes: set[bytes] = set()
    for flat in itertools.product(range(n), repeat=n * n):
        model = from_flat(flat, n)
        ok, _ = is_model(model, system, statements)
        if ok:
            labeled += 1
            classes.add(canonical_form(model))
    return labeled, len(classes)


def enumerate_sizes(system: AxiomSystem, max_size: int, node_budget: int):
    """(n, models, nodes, exceeded, millis) for n = 1..max_size, lazily.

    node_budget bounds the whole run: each size gets only the nodes the sizes
    before it left.  Once none are left, the remaining sizes are exceeded
    without a search, because the core reads a budget of 0 as unlimited."""
    left = node_budget
    for n in range(1, max_size + 1):
        if node_budget and not left:
            yield n, [], 0, True, 0.0
            continue
        start = time.perf_counter()
        models, nodes, exceeded = enumerate_with_stats(system, n, left)
        millis = (time.perf_counter() - start) * 1000.0
        if node_budget:
            left -= nodes
        yield n, models, nodes, exceeded, millis


def first_counterexample(models, prop: Statement) -> Optional[tuple[FiniteAlgebra, Witness]]:
    """The first of the models, in their order, that falsifies the property,
    with its witness; None if every one satisfies it."""
    for model in models:
        ok, witness = satisfies(model, prop)
        if not ok:
            assert witness is not None
            return model, witness
    return None

