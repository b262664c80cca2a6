"""Command-line front end.

Exit codes: 0 ok, 2 proof failure, 3 input error, 4 counterexample found.
A malformed command line is an input error: one `error: ` line on stderr.

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

from .corpus import BUILTIN_PATH, Corpus, CorpusError, load_corpus
from .kernel import (
    ClauseInstantiate,
    ClauseLiteralRewrite,
    CloseConflict,
    CloseRefl,
    LiteralElim,
    ProofScript,
    Rewrite,
    Split,
    verify_corpus,
)
from .statements import Clause, Identity, QuasiIdentity
from .terms import format_term

if TYPE_CHECKING:
    from .models import Witness
    from .search import EnumerationReport

EXIT_OK = 0
EXIT_PROOF_FAILURE = 2
EXIT_INPUT_ERROR = 3
EXIT_COUNTEREXAMPLE = 4

BUDGET_HELP = (
    "search nodes for the whole run, 0 for unlimited; "
    "isomorph rejection and property checks are not bounded"
)


def _emit(emit: str, obj: dict, lines: list[str]):
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


def _input_error(message) -> int:
    """Print one `error: ` line on stderr; the input-error exit code."""
    sys.stderr.write(f"error: {message}\n")
    return EXIT_INPUT_ERROR


def _or_die(lookup, *args):
    """lookup(*args); on a CorpusError, print it and exit 3."""
    try:
        return lookup(*args)
    except CorpusError as e:
        sys.exit(_input_error(e))


def _check_max_size(max_size: int):
    """Exit 3 unless `--max-size` is a size the search can run."""
    from .models import MAX_SIZE

    if max_size < 1:
        sys.exit(_input_error("--max-size must be >= 1"))
    if max_size > MAX_SIZE:
        sys.exit(_input_error(f"--max-size must be <= {MAX_SIZE}"))


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def _substitution(step) -> str:
    return ", ".join(f"{v} := {format_term(t)}" for v, t in step.substitution.items())


def _show_step(step, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(step, Rewrite):
        by = f"hyp {step.justification}" if isinstance(step.justification, int) else step.justification
        at = step.position or "root"
        return [f"{pad}rewrite {by} [{_substitution(step)}] at {at} {step.direction}"]
    if isinstance(step, ClauseInstantiate):
        return [f"{pad}instantiate clause {step.clause} [{_substitution(step)}]"]
    if isinstance(step, LiteralElim):
        lines = [f"{pad}eliminate literal {step.index} by:"]
        for s in step.chain:
            lines.extend(_show_step(s, indent + 1))
        return lines
    if isinstance(step, ClauseLiteralRewrite):
        return [
            f"{pad}rewrite literal {step.index} with {step.justification} [{_substitution(step)}] "
            f"at {step.position} {step.direction}"
        ]
    if isinstance(step, Split):
        lines = [f"{pad}split on {step.clause} [{_substitution(step)}]"]
        for i, branch in enumerate(step.branches):
            lines.append(f"{pad}  branch {i}:")
            for s in branch:
                lines.extend(_show_step(s, indent + 2))
        return lines
    if isinstance(step, CloseConflict):
        return [f"{pad}close: conflicts hypothesis {step.hypothesis}"]
    if isinstance(step, CloseRefl):
        return [f"{pad}close: reflexivity"]
    return [f"{pad}{step!r}"]


def _show_script(corpus: Corpus, script: ProofScript) -> list[str]:
    target = corpus.statement(script.target)
    lines = [f"script {script.id}  (target {script.target}: {target})"]
    if script.comment:
        lines.append(f"  # {script.comment}")
    if script.constants:
        lines.append(f"  constants: {', '.join(script.constants)}")
    for i, h in enumerate(script.hypotheses):
        lines.append(f"  hypothesis {i}: {h}")
    if script.depends_on:
        lines.append(f"  depends on: {', '.join(script.depends_on)}")
    for s in script.steps:
        lines.extend(_show_step(s, 1))
    return lines


def replay(script_path, show_id, emit):
    """Replay proof scripts and report per-statement status."""
    if show_id and emit == "json":
        return _input_error("--show prints text only; it takes no --emit json")
    corpus = _or_die(load_corpus, script_path)
    if show_id:
        try:
            lines = _show_script(corpus, corpus.script(show_id))
        except CorpusError:
            st = _or_die(corpus.statement, show_id)
            lines = [f"{st.id}: {st}"]
        print(*lines, sep="\n")
        return EXIT_OK
    report = verify_corpus(corpus)
    verified = sum(1 for _, status in report if status == "verified")
    _emit(
        emit,
        {
            "scripts": [{"id": sid, "status": status} for sid, status in report],
            "verified": verified,
            "total": len(report),
        },
        [*(f"{sid}: {status}" for sid, status in report), f"{verified}/{len(report)} verified"],
    )
    return EXIT_OK if verified == len(report) else EXIT_PROOF_FAILURE


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _report_json(report: EnumerationReport, timings: bool) -> dict:
    from .models import model_to_json

    return {
        "axioms": report.axioms,
        "sizes": [
            {
                "n": s.size,
                "count": s.count,
                "nodes": s.nodes,
                "millis": round(s.millis, 3) if timings else None,
                "exceeded": s.exceeded,
            }
            for s in report.sizes
        ],
        "properties": [
            {
                "id": p.property_id,
                "status": p.status,
                **({"model": model_to_json(p.model)} if p.model else {}),
                **({"witness": _witness_json(p.witness)} if p.witness else {}),
            }
            for p in report.properties
        ],
    }


def _report_text(report: EnumerationReport, timings: bool) -> list[str]:
    from .models import model_to_json

    lines = [
        f"axiom system: {report.axioms}",
        f"{'n':>3} {'count':>8} {'nodes':>12}" + (f" {'millis':>10}" if timings else ""),
    ]
    for s in report.sizes:
        count = "exceeded" if s.exceeded else str(s.count)
        lines.append(f"{s.size:>3} {count:>8} {s.nodes:>12}" + (f" {s.millis:>10.1f}" if timings else ""))
    for p in report.properties:
        if p.status == "holds":
            lines.append(f"property {p.property_id}: holds in all enumerated models")
        else:
            lines.append(f"property {p.property_id}: counterexample {model_to_json(p.model)}; {_witness_text(p.witness)}")
    return lines


def enumerate_cmd(axioms_name, max_size, property_ids, emit, budget_nodes, timings):
    """Isomorph-free enumeration of all models up to a size bound."""
    from .search import run_enumeration_report

    corpus = _or_die(load_corpus, None)
    system = _or_die(corpus.axiom_system, axioms_name)
    _check_max_size(max_size)
    props = [_or_die(corpus.statement, pid) for pid in property_ids]
    report = run_enumeration_report(system, max_size, props, budget_nodes)
    _emit(emit, _report_json(report, timings), _report_text(report, timings))
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def check(model_path, axioms_name, property_id, emit):
    """Check a model file against an axiom system and optional property."""
    from .models import ModelFileError, is_model, load_model, satisfies

    corpus = _or_die(load_corpus, None)
    system = _or_die(corpus.axiom_system, axioms_name)
    try:
        model = load_model(model_path)
    except ModelFileError as e:
        return _input_error(e)
    prop = None if property_id is None else _or_die(corpus.statement, property_id)
    ok, witness = is_model(model, system, corpus.statements)
    if not ok:
        out = {"model": "no", "axioms": axioms_name, "failed_axiom": witness.statement_id,
               "witness": _witness_json(witness)}
        _emit(emit, out, [f"model: no; {witness.statement_id} violated, {_witness_text(witness)}"])
        return EXIT_COUNTEREXAMPLE
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
    _emit(emit, out, lines)
    return EXIT_OK if holds else EXIT_COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def search(axioms_name, property_id, max_size, emit, budget_nodes):
    """Look for a model of the axioms that violates a property."""
    from .models import model_to_json
    from .search import NodeBudgetExceeded, find_counterexample

    corpus = _or_die(load_corpus, None)
    system = _or_die(corpus.axiom_system, axioms_name)
    prop = _or_die(corpus.statement, property_id)
    _check_max_size(max_size)
    out = {"axioms": axioms_name, "violates": property_id, "max_size": max_size}
    try:
        result = find_counterexample(system, prop, max_size, budget_nodes)
    except NodeBudgetExceeded as e:
        _emit(emit, {**out, "status": "exceeded", "size": e.size}, [f"node budget exceeded at size {e.size}"])
        return EXIT_OK
    if result is None:
        _emit(emit, {**out, "status": "none"}, [f"none up to {max_size}"])
        return EXIT_OK
    model, witness = result
    out.update(status="counterexample", model=model_to_json(model), witness=_witness_json(witness))
    _emit(emit, out, [f"counterexample of size {model.size}: {out['model']}", _witness_text(witness)])
    return EXIT_COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def oracle(axioms_name, size, emit):
    """Brute-force labeled and iso-class counts (small sizes only)."""
    from .search import brute_force_models

    corpus = _or_die(load_corpus, None)
    system = _or_die(corpus.axiom_system, axioms_name)
    try:
        labeled, classes = brute_force_models(system, size, corpus.statements)
    except ValueError as e:  # BruteForceBoundError included
        return _input_error(e)
    _emit(
        emit,
        {"axioms": axioms_name, "size": size, "labeled": labeled, "classes": classes},
        [f"labeled {labeled}, classes {classes}"],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def corpus_export(out_path):
    """Write the built-in corpus file, byte for byte."""
    _or_die(load_corpus, None)
    # read before out_path is truncated, which may be the built-in file itself
    data = BUILTIN_PATH.read_bytes()
    try:
        with open(out_path, "wb") as fh:
            fh.write(data)
    except OSError as e:
        return _input_error(f"cannot write {out_path}: {e.strerror}")
    print(f"wrote {out_path}")
    return EXIT_OK


def corpus_show(sid):
    """Print a statement or script in human-readable form."""
    corpus = _or_die(load_corpus, None)
    lines = []
    try:
        st = corpus.statement(sid)
        kind = {Identity: "identity", Clause: "clause", QuasiIdentity: "quasi-identity"}[type(st)]
        lines.append(f"{st.id} ({kind}): {st}")
    except CorpusError:
        pass
    try:
        lines.extend(_show_script(corpus, corpus.script(sid)))
    except CorpusError:
        pass
    if not lines:
        return _input_error(f"unknown id {sid!r}")
    print(*lines, sep="\n")
    return EXIT_OK


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
        sys.exit(_input_error(message))


def _node_count(text: str) -> int:
    """A `--budget-nodes` value: an integer, 0 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {n}")
    return n


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
        sub.add_argument("--budget-nodes", type=_node_count, default=0, metavar="N", help=BUDGET_HELP)

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
    """Run one command line, `sys.argv[1:]` by default, and exit with its code."""
    # The collections at interpreter exit only free memory that the OS takes
    # back anyway; freezing every object first leaves them nothing to scan.
    # As an exit handler, it leaves a caller that catches SystemExit alone.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        try:
            options = vars(_parser(prog_name).parse_args(args))
            code = options.pop("run")(**options)
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
