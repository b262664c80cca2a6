import contextlib
import io
import json
import os
from pathlib import Path
from typing import NamedTuple

import hypothesis.strategies as st
import pytest

from abeforge.cli import main
from abeforge.corpus import Corpus, load_corpus
from abeforge.kernel import verify_corpus
from abeforge.terms import UNIT, Arrow, Const, Var
from mutate_util import mutated_script, mutation_sites

VAR_NAMES = ("x", "y", "z", "t", "w")
DATA_CORPUS = Path(__file__).resolve().parent.parent / "data" / "corpus.json"
SRC = Path(__file__).resolve().parent.parent / "src"


def terms(max_leaves: int = 12, with_constants: bool = False, names: tuple[str, ...] = VAR_NAMES):
    leaves = [st.sampled_from(names).map(Var), st.just(UNIT)]
    if with_constants:
        leaves.append(st.sampled_from(("a", "b", "c")).map(Const))
    return st.recursive(
        st.one_of(*leaves),
        lambda children: st.builds(Arrow, children, children),
        max_leaves=max_leaves,
    )


def read_corpus_json() -> dict:
    """A fresh parse of the built-in corpus file, free to edit."""
    return json.loads(DATA_CORPUS.read_text(encoding="utf-8"))


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run_cli(*args: str) -> CliResult:
    """`abeforge.cli.main(args)` in this process: the code it exits with,
    and what it wrote to stdout and to stderr, kept apart."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        main(list(args))
    return CliResult(exit_.value.code, out.getvalue(), err.getvalue())


def child_env() -> dict:
    """This environment with the checkout's src/ first on PYTHONPATH, for a
    child process that imports abeforge."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def replay_mutants(corpus, scripts, rng, per_site):
    """(script id, status) for `per_site` seeded mutants of every mutation
    site of each script in `scripts` (as JSON): the status `verify_corpus`
    gives the mutant replayed after the scripts of `corpus` ahead of it."""
    ids = [s.id for s in corpus.scripts]
    for script in scripts:
        before = corpus.scripts[: ids.index(script["id"])]
        for site in mutation_sites(script):
            for _ in range(per_site):
                mutant = mutated_script(script, site, rng)
                report = verify_corpus(Corpus(corpus.statements, corpus.axiom_systems, (*before, mutant)))
                yield script["id"], report[-1][1]


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture()
def corpus_json():
    return read_corpus_json()
