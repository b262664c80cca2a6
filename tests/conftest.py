import ast
import contextlib
import io
import json
import os
from pathlib import Path
from typing import NamedTuple

import hypothesis.strategies as st
import pytest

from abeforge.cli import main
from abeforge.corpus import AXIOM_IDS, Corpus, load_corpus
from abeforge.kernel import verify_corpus
from abeforge.models import FiniteAlgebra
from abeforge.terms import UNIT, Arrow, Const, Var
from mutate_util import mutated_script, mutation_sites

VAR_NAMES = ("x", "y", "z", "t", "w")
DATA_CORPUS = Path(__file__).resolve().parent.parent / "data" / "corpus.json"
SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Statements and scripts for the paper's corollaries, kept out of the
# built-in corpus
COROLLARIES = Path(__file__).resolve().parent / "corollaries.json"

# ax1 and ax2 follow from ax3 and ax6 (the scripts ax1-from-ax3-ax6 and
# ax2-from-ax3-ax6 in tests/corollaries.json)
BASIS = ("ax3", "ax4", "ax5", "ax6")

# Labeled tables of the complete search, recorded once; the orbit-counting
# identity in test_canonical checks every size, these pin the largest.
COMPLETE_LABELED = {("aBE", 5): 5153, ("implicative-aBE", 6): 91, ("implicative-aBE", 7): 631}


def terms(max_leaves: int = 12, with_constants: bool = False, names: tuple[str, ...] = VAR_NAMES):
    leaves = [st.sampled_from(names).map(Var), st.just(UNIT)]
    if with_constants:
        leaves.append(st.sampled_from(("a", "b", "c")).map(Const))
    return st.recursive(
        st.one_of(*leaves),
        lambda children: st.builds(Arrow, children, children),
        max_leaves=max_leaves,
    )


def random_algebra(draw_size=st.integers(2, 4)):
    @st.composite
    def build(draw):
        n = draw(draw_size)
        table = tuple(
            tuple(draw(st.integers(0, n - 1)) for _ in range(n)) for _ in range(n)
        )
        return FiniteAlgebra(n, draw(st.integers(0, n - 1)), table)

    return build()


def read_corpus_json() -> dict:
    """A fresh parse of the built-in corpus file, free to edit."""
    return json.loads(DATA_CORPUS.read_text(encoding="utf-8"))


def with_corollaries() -> dict:
    """The parsed built-in corpus file with the corollaries' axiom systems,
    statements and scripts added."""
    obj = read_corpus_json()
    extra = json.loads(COROLLARIES.read_text(encoding="utf-8"))
    obj["axiom_systems"].update(extra["axiom_systems"])
    obj["statements"] += extra["statements"]
    obj["scripts"] += extra["scripts"]
    return obj


def axiom_closures(corpus, basis=AXIOM_IDS):
    """{script id: the statements of `basis` that its declared dependencies
    lead down to}.  A dependency outside `basis` is read through the first
    script that proves it without citing it, such as ax5-from-tarski for ax5
    (ax5-clause cites ax5).  Raises ValueError when the proofs read that way
    go round in a circle, so that no basis recurses without end."""
    first = {}
    for script in corpus.scripts:
        if script.target not in script.depends_on:
            first.setdefault(script.target, script)

    def closure(script, path):
        # path: the dependencies being read through, outermost first
        above = [dep for dep in script.depends_on if dep not in basis]
        if set(above) & set(path):
            raise ValueError(f"the proofs of {' -> '.join(path)} go round")
        return {dep for dep in script.depends_on if dep in basis}.union(
            *(closure(first[dep], (*path, dep)) for dep in above)
        )

    return {script.id: closure(script, ()) for script in corpus.scripts}


def assigned(path: Path, name: str) -> ast.expr:
    """The expression that the top level of the file assigns to name."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def tracer_hooks() -> list[tuple[tuple, ast.Tuple]]:
    """((layer, module, attribute path), entry) for each entry of HOOKS in
    perfbench/tracer.py, read as source; the rest of an entry is code.  A
    function, so that a broken tracer fails only the tests that read it."""
    return [
        (tuple(ast.literal_eval(part) for part in hook.elts[:3]), hook)
        for hook in assigned(PERFBENCH / "tracer.py", "HOOKS").elts
    ]


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
