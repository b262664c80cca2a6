"""Traced CLI child: the `abeforge` entry point (abeforge.cli.main) with a
timing wrapper around each layer's public function.

    python3 perfbench/tracer.py SPANS.json enumerate --axioms aBE --max-size 3

Each wrapper is patched where its caller looks the name up (for example
abeforge.search.canonical_form, because search.py binds it at import).  A
span is [layer, start, end, parent index, info], with start and end read
from time.perf_counter, which is the same monotonic clock in every process.
Spans stay in memory and are written to SPANS.json when the CLI exits;
perfbench/layers.py turns them into the per-layer metrics.  This module
imports little, so that tracing adds little start-up time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable

# (layer, module, attribute path, info from (args, result), info on error)
HOOKS = (
    ("core", "abeforge.search", "_core.search_tables", lambda a, r: [r[1], len(r[0])], None),
    ("iso", "abeforge.search", "canonical_form", lambda a, r: a[0].size, None),
    ("iso", "abeforge.search", "canonicalize", lambda a, r: a[0].size, None),
    ("sat", "abeforge.search", "satisfies", lambda a, r: 0 if r[0] else 1, None),
    ("driver", "abeforge.search", "enumerate_with_stats", lambda a, r: len(r[0]), None),
    ("kernel", "abeforge.kernel", "replay_proof", lambda a, r: [a[0].id, 0], lambda a: [a[0].id, 1]),
    ("corpus", "abeforge.cli", "load_corpus", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn: Callable, info, error_info) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if error_info is not None:
                    span[4] = error_info(args)
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return wrapper

    def install(self):
        """Patch every hook that exists; record the ones that do not."""
        for layer, module, path, info, error_info in HOOKS:
            owner = importlib.import_module(module)
            *parents, name = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, name)
            except AttributeError:
                self.missing.append(f"{module}.{path}")
                continue
            setattr(owner, name, self.wrap(layer, fn, info, error_info))


def main(argv: list[str]) -> None:
    spans_path, cli_args = argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    from abeforge.cli import main as cli_main

    try:
        cli_main(args=cli_args, prog_name="abeforge")
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"missing": tracer.missing, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    main(sys.argv)
