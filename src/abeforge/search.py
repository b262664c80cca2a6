"""Isomorph-free model enumeration, the brute-force oracle, and property search.

The hot inner loop lives in the compiled core (abeforge._speed) with a
pure-Python twin (_speed_py); set ABEFORGE_PURE=1 to force the fallback.
The two propagate differently but reach the same fixpoint after every
assignment and count nodes the same way, so they return identical table
streams and node counts.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .models import (
    FiniteAlgebra,
    Witness,
    canonical_form,
    canonicalize,
    is_model,
    satisfies,
)
from .statements import AxiomSystem, Statement

if os.environ.get("ABEFORGE_PURE"):
    from . import _speed_py as _core
else:
    try:
        from . import _speed as _core  # type: ignore[attr-defined]
    except ImportError:
        from . import _speed_py as _core

__all__ = [
    "core_name",
    "SizeResult",
    "PropertyResult",
    "EnumerationReport",
    "BruteForceBoundError",
    "NodeBudgetExceeded",
    "UnknownSystemError",
    "enumerate_models",
    "enumerate_with_stats",
    "brute_force_models",
    "find_counterexample",
    "run_enumeration_report",
]

BRUTE_FORCE_MAX = 3


def core_name() -> str:
    return _core.IMPL_NAME


class BruteForceBoundError(ValueError):
    pass


class UnknownSystemError(ValueError):
    pass


class NodeBudgetExceeded(RuntimeError):
    """The search at one size tried node_budget nodes without finishing."""

    def __init__(self, size: int):
        super().__init__(f"node budget exceeded at size {size}")
        self.size = size


@dataclass
class SizeResult:
    size: int
    count: Optional[int]  # None when the budget was exceeded
    nodes: int
    millis: float
    exceeded: bool = False


@dataclass
class PropertyResult:
    property_id: str
    status: str  # "holds" | "counterexample"
    model: Optional[FiniteAlgebra] = None
    witness: Optional[Witness] = None


@dataclass
class EnumerationReport:
    axioms: str
    sizes: list[SizeResult] = field(default_factory=list)
    properties: list[PropertyResult] = field(default_factory=list)


def _implicative_flag(system: AxiomSystem) -> bool:
    if system.name == "aBE":
        return False
    if system.name == "implicative-aBE":
        return True
    raise UnknownSystemError(
        f"the search core only knows 'aBE' and 'implicative-aBE', not {system.name!r}"
    )


def _to_algebra(flat: tuple[int, ...], n: int) -> FiniteAlgebra:
    table = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
    return FiniteAlgebra(n, n - 1, table)


def _search(system: AxiomSystem, n: int, node_budget: int, threads: int):
    """All completed tables (unit at n-1), concatenated over first-cell branches."""
    implicative = _implicative_flag(system)
    if threads <= 1 or n <= 2 or node_budget:
        # Budgeted runs stay sequential so the node count at which the budget
        # trips does not depend on scheduling.
        return _core.search_tables(n, implicative, node_budget)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [
            pool.submit(_core.search_tables, n, implicative, 0, v) for v in range(n)
        ]
        tables: list[tuple[int, ...]] = []
        nodes = 0
        for fut in futures:  # fixed branch order keeps the stream deterministic
            part, part_nodes, _ = fut.result()
            tables.extend(part)
            nodes += part_nodes
    return tables, nodes, False


def enumerate_with_stats(
    system: AxiomSystem,
    n: int,
    node_budget: int = 0,
    threads: int = 1,
) -> tuple[list[FiniteAlgebra], int, bool]:
    """One representative per isomorphism class, ascending by canonical form.

    Isomorph rejection is generate-and-test: each completed table is
    canonicalized once and survives only if it equals its canonical form,
    so a survivor's own table is its canonical key.
    """
    if n < 1:
        raise ValueError("size must be >= 1")
    if node_budget < 0:
        raise ValueError("node budget must be >= 0")
    tables, nodes, exceeded = _search(system, n, node_budget, threads)
    survivors: list[tuple[bytes, FiniteAlgebra]] = []
    for flat in tables:
        model = _to_algebra(flat, n)
        if canonicalize(model) == model:
            survivors.append((bytes([n]) + bytes(flat), model))
    survivors.sort(key=lambda kv: kv[0])
    return [m for _, m in survivors], nodes, exceeded


def enumerate_models(
    system: AxiomSystem, n: int, node_budget: int = 0, threads: int = 1
) -> Iterator[FiniteAlgebra]:
    models, _, exceeded = enumerate_with_stats(system, n, node_budget, threads)
    if exceeded:
        raise NodeBudgetExceeded(n)
    yield from models


def brute_force_models(
    system: AxiomSystem, n: int, statements
) -> tuple[int, int]:
    """Independent oracle: every table over a fixed unit n-1, filtered by the
    generic satisfaction checker.  Returns (labeled count, iso-class count)."""
    if n > BRUTE_FORCE_MAX:
        raise BruteForceBoundError(
            f"brute force is capped at size {BRUTE_FORCE_MAX}, got {n}"
        )
    labeled = 0
    classes: set[bytes] = set()
    for flat in itertools.product(range(n), repeat=n * n):
        model = _to_algebra(flat, n)
        ok, _ = is_model(model, system, statements)
        if ok:
            labeled += 1
            classes.add(canonical_form(model))
    return labeled, len(classes)


def find_counterexample(
    system: AxiomSystem,
    prop: Statement,
    max_size: int,
    node_budget: int = 0,
    threads: int = 1,
) -> Optional[tuple[FiniteAlgebra, Witness]]:
    """First model (smallest size, least canonical form) falsifying the property.

    Raises NodeBudgetExceeded at the first size whose search runs out of
    nodes before a counterexample is found."""
    for n in range(1, max_size + 1):
        for model in enumerate_models(system, n, node_budget, threads):
            ok, witness = satisfies(model, prop)
            if not ok:
                assert witness is not None
                return model, witness
    return None


def run_enumeration_report(
    system: AxiomSystem,
    max_size: int,
    statements,
    properties: list[Statement] = (),
    node_budget: int = 0,
    threads: int = 1,
) -> EnumerationReport:
    report = EnumerationReport(axioms=system.name)
    all_models: list[FiniteAlgebra] = []
    for n in range(1, max_size + 1):
        start = time.perf_counter()
        models, nodes, exceeded = enumerate_with_stats(system, n, node_budget, threads)
        millis = (time.perf_counter() - start) * 1000.0
        report.sizes.append(
            SizeResult(n, None if exceeded else len(models), nodes, millis, exceeded)
        )
        if not exceeded:
            all_models.extend(models)
    for prop in properties:
        result = PropertyResult(prop.id, "holds")
        for model in all_models:
            ok, witness = satisfies(model, prop)
            if not ok:
                result = PropertyResult(prop.id, "counterexample", model, witness)
                break
        report.properties.append(result)
    return report
