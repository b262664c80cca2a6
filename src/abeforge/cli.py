"""Command-line front end.

Exit codes: 0 ok, 2 proof failure, 3 input error, 4 counterexample found.
A command returns its exit code and its result, as a JSON object (None for
text only) and as text lines, or raises on bad input.  `main` alone writes
the result, and it alone turns bad input into one `error: ` line and exit 3.

The model layers (models, search and its core) are imported inside the
commands that run them, so that `replay` and `corpus` start without them.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from typing import TYPE_CHECKING

from .corpus import BUILTIN_PATH, CorpusError, load_corpus
from .kernel import verify_corpus

if TYPE_CHECKING:
    from .models import Witness

EXIT_OK = 0
EXIT_PROOF_FAILURE = 2
EXIT_INPUT_ERROR = 3
EXIT_COUNTEREXAMPLE = 4

BUDGET_HELP = (
    "search nodes for the whole run, 0 for unlimited; "
    "isomorph rejection and property checks are not bounded"
)


class _InputError(Exception):
    """Bad input that is not a CorpusError: `main` exits 3 with its message."""


def _emit(emit: str, obj: dict | None, lines: list[str]):
    """Write a command's one result: `obj` as one JSON line if `emit` is
    `json`, otherwise the text lines."""
    if emit == "json":
        sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    else:
        print(*lines, sep="\n")


def _witness_json(w: Witness) -> dict:
    return {
        "statement": w.statement_id,
        "assignment": dict(sorted(w.assignment.items())),
        "literals": [list(pair) for pair in w.literal_values],
    }


def _witness_text(w: Witness) -> str:
    vals = ", ".join(f"{k}={v}" for k, v in sorted(w.assignment.items()))
    return f"witness {vals}"


def _check_bounds(max_size: int, budget_nodes: int):
    """Raise an input error unless `--max-size` is a size the search can run
    and `--budget-nodes` is a node count."""
    from .models import MAX_SIZE

    if max_size < 1:
        raise _InputError("--max-size must be >= 1")
    if max_size > MAX_SIZE:
        raise _InputError(f"--max-size must be <= {MAX_SIZE}")
    if budget_nodes < 0:
        raise _InputError("--budget-nodes must be >= 0")


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def replay(script_path, show_id, emit):
    """Replay proof scripts and report per-statement status."""
    if show_id is not None and emit == "json":
        raise _InputError("--show prints text only; it takes no --emit json")
    corpus = load_corpus(script_path)
    if show_id is not None:
        try:
            script = corpus.script(show_id)
        except CorpusError:
            st = corpus.statement(show_id)
            return EXIT_OK, None, [f"{st.id}: {st}"]
        return EXIT_OK, None, script.show(corpus.statement(script.target))
    try:
        report = verify_corpus(corpus)
    except RecursionError:
        # the parser takes terms deeper than the kernel's comparisons can recurse
        raise _InputError("corpus file is nested too deeply") from None
    verified = sum(1 for _, status in report if status == "verified")
    scripts = [{"id": sid, "status": status} for sid, status in report]
    out = {"scripts": scripts, "verified": verified, "total": len(report)}
    lines = [*(f"{sid}: {status}" for sid, status in report), f"{verified}/{len(report)} verified"]
    return (EXIT_OK if verified == len(report) else EXIT_PROOF_FAILURE), out, lines


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def enumerate_cmd(axioms_name, max_size, property_ids, budget_nodes, timings):
    """Isomorph-free enumeration of all models up to a size bound."""
    from .models import model_to_json
    from .search import enumerate_sizes, first_counterexample

    corpus = load_corpus(None)
    system = corpus.axiom_system(axioms_name)
    props = [corpus.statement(pid) for pid in property_ids]
    _check_bounds(max_size, budget_nodes)
    sizes, properties, models = [], [], []
    lines = [
        f"axiom system: {system.name}",
        f"{'n':>3} {'count':>8} {'nodes':>12}" + (f" {'millis':>10}" if timings else ""),
    ]
    for n, found, nodes, exceeded, millis in enumerate_sizes(system, max_size, budget_nodes):
        count = None if exceeded else len(found)
        millis_json = round(millis, 3) if timings else None
        sizes.append({"n": n, "count": count, "nodes": nodes, "millis": millis_json, "exceeded": exceeded})
        timing = f" {millis:>10.1f}" if timings else ""
        lines.append(f"{n:>3} {'exceeded' if exceeded else count:>8} {nodes:>12}{timing}")
        models.extend(found)
    for prop in props:
        result = first_counterexample(models, prop)
        if result is None:
            properties.append({"id": prop.id, "status": "holds"})
            lines.append(f"property {prop.id}: holds in all enumerated models")
            continue
        model, witness = result
        out = {"id": prop.id, "status": "counterexample", "model": model_to_json(model),
               "witness": _witness_json(witness)}
        properties.append(out)
        lines.append(f"property {prop.id}: counterexample {out['model']}; {_witness_text(witness)}")
    return EXIT_OK, {"axioms": system.name, "sizes": sizes, "properties": properties}, lines


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def check(model_path, axioms_name, property_id):
    """Check a model file against an axiom system and optional property."""
    from .models import is_model, load_model, satisfies

    corpus = load_corpus(None)
    system = corpus.axiom_system(axioms_name)
    try:
        model = load_model(model_path)
    except ValueError as e:
        raise _InputError(e) from None
    prop = None if property_id is None else corpus.statement(property_id)
    ok, witness = is_model(model, system, corpus.statements)
    if not ok:
        out = {"model": "no", "axioms": axioms_name, "failed_axiom": witness.statement_id,
               "witness": _witness_json(witness)}
        return EXIT_COUNTEREXAMPLE, out, [f"model: no; {witness.statement_id} violated, {_witness_text(witness)}"]
    out = {"model": "yes", "axioms": axioms_name}
    lines = [f"model: yes ({axioms_name})"]
    holds = True
    if prop is not None:
        holds, pw = satisfies(model, prop)
        if holds:
            out["property"] = {"id": property_id, "status": "holds"}
            lines.append(f"{property_id}: holds")
        else:
            out["property"] = {"id": property_id, "status": "counterexample", "witness": _witness_json(pw)}
            lines.append(f"{property_id}: violated, {_witness_text(pw)}")
    return (EXIT_OK if holds else EXIT_COUNTEREXAMPLE), out, lines


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def search(axioms_name, property_id, max_size, budget_nodes):
    """Look for a model of the axioms that violates a property."""
    from .models import model_to_json
    from .search import enumerate_sizes, first_counterexample

    corpus = load_corpus(None)
    system = corpus.axiom_system(axioms_name)
    prop = corpus.statement(property_id)
    _check_bounds(max_size, budget_nodes)
    out = {"axioms": axioms_name, "violates": property_id, "max_size": max_size}
    for n, models, _, exceeded, _ in enumerate_sizes(system, max_size, budget_nodes):
        if exceeded:
            return EXIT_OK, {**out, "status": "exceeded", "size": n}, [f"node budget exceeded at size {n}"]
        result = first_counterexample(models, prop)
        if result is not None:
            model, witness = result
            out.update(status="counterexample", model=model_to_json(model), witness=_witness_json(witness))
            return EXIT_COUNTEREXAMPLE, out, [f"counterexample of size {n}: {out['model']}", _witness_text(witness)]
    return EXIT_OK, {**out, "status": "none"}, [f"none up to {max_size}"]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def oracle(axioms_name, size):
    """Brute-force labeled and iso-class counts (small sizes only)."""
    from .search import brute_force_models

    corpus = load_corpus(None)
    system = corpus.axiom_system(axioms_name)
    try:
        labeled, classes = brute_force_models(system, size, corpus.statements)
    except ValueError as e:
        raise _InputError(e) from None
    out = {"axioms": axioms_name, "size": size, "labeled": labeled, "classes": classes}
    return EXIT_OK, out, [f"labeled {labeled}, classes {classes}"]


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def corpus_export(out_path):
    """Write the built-in corpus file, byte for byte."""
    load_corpus(None)
    # read before out_path is truncated, which may be the built-in file itself
    data = BUILTIN_PATH.read_bytes()
    try:
        with open(out_path, "wb") as fh:
            fh.write(data)
    except OSError as e:
        raise _InputError(f"cannot write {out_path}: {e.strerror}") from None
    return EXIT_OK, None, [f"wrote {out_path}"]


def corpus_show(sid):
    """Print a statement or script in human-readable form."""
    corpus = load_corpus(None)
    lines = []
    try:
        st = corpus.statement(sid)
        lines.append(f"{st.id} ({st.kind}): {st}")
    except CorpusError:
        pass
    try:
        script = corpus.script(sid)
        lines.extend(script.show(corpus.statement(script.target)))
    except CorpusError:
        pass
    if not lines:
        raise _InputError(f"unknown id {sid!r}")
    return EXIT_OK, None, lines


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A malformed command line is an input error: one `error: ` line, exit 3.
    An option is only ever its full name: no abbreviations, no `-h`."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message):
        raise _InputError(message)


def _parser(prog: str | None) -> argparse.ArgumentParser:
    parser = _Parser(prog=prog, description="Verification workbench for implicative aBE algebras.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(group, name, run):
        sub = group.add_parser(name, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    def axioms(sub):
        sub.add_argument("--axioms", dest="axioms_name", required=True, metavar="NAME")

    def max_size(sub):
        sub.add_argument("--max-size", type=int, required=True, metavar="N")

    def emit(sub):
        sub.add_argument("--emit", choices=("text", "json"), default="text")

    def budget(sub):
        sub.add_argument("--budget-nodes", type=int, default=0, metavar="N", help=BUDGET_HELP)

    sub = command(commands, "replay", replay)
    sub.add_argument("--script", dest="script_path", metavar="PATH",
                     help="verify a corpus file instead of the built-in one")
    sub.add_argument("--show", dest="show_id", metavar="ID", help="pretty-print one script or statement and exit")
    emit(sub)

    sub = command(commands, "enumerate", enumerate_cmd)
    axioms(sub)
    max_size(sub)
    sub.add_argument("--property", dest="property_ids", action="append", default=[], metavar="ID",
                     help="also model-check these statement ids")
    emit(sub)
    budget(sub)
    sub.add_argument("--timings", action="store_true", help="include wall-clock timings (not byte-stable)")

    sub = command(commands, "check", check)
    sub.add_argument("--model", dest="model_path", required=True, metavar="PATH")
    axioms(sub)
    sub.add_argument("--property", dest="property_id", metavar="ID")
    emit(sub)

    sub = command(commands, "search", search)
    axioms(sub)
    sub.add_argument("--violates", dest="property_id", required=True, metavar="ID")
    max_size(sub)
    emit(sub)
    budget(sub)

    sub = command(commands, "oracle", oracle)
    axioms(sub)
    sub.add_argument("--size", type=int, required=True, metavar="N")
    emit(sub)

    doc = "Inspect or export the built-in corpus."
    corpus = commands.add_parser("corpus", help=doc, description=doc)
    corpus_commands = corpus.add_subparsers(metavar="COMMAND", required=True)
    sub = command(corpus_commands, "export", corpus_export)
    sub.add_argument("--out", dest="out_path", required=True, metavar="PATH")
    sub = command(corpus_commands, "show", corpus_show)
    sub.add_argument("sid", metavar="SID")
    return parser


def main(args=None, prog_name=None):
    """Run one command line, `sys.argv[1:]` by default, write its result or
    its one `error: ` line, and exit with its code."""
    # The collections at interpreter exit only free memory that the OS takes
    # back anyway; freezing every object first leaves them nothing to scan.
    # As an exit handler, it leaves a caller that catches SystemExit alone.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        try:
            options = vars(_parser(prog_name).parse_args(args))
            run = options.pop("run")
            # replay reads --emit only to refuse it with --show
            emit = options["emit"] if run is replay else options.pop("emit", "text")
            code, obj, lines = run(**options)
            _emit(emit, obj, lines)
        except (CorpusError, _InputError) as e:
            sys.stderr.write(f"error: {e}\n")
            code = EXIT_INPUT_ERROR
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone. Point stdout at the null device, so that the
        # flush at interpreter exit has somewhere to put what is buffered.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
