import json
from pathlib import Path

import hypothesis.strategies as st
import pytest

from abeforge.corpus import load_corpus
from abeforge.terms import UNIT, Arrow, Const, Var

VAR_NAMES = ("x", "y", "z", "t", "w")
DATA_CORPUS = Path(__file__).resolve().parent.parent / "data" / "corpus.json"


def terms(max_leaves: int = 12, with_constants: bool = False):
    leaves = [st.sampled_from(VAR_NAMES).map(Var), st.just(UNIT)]
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


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture()
def corpus_json():
    return read_corpus_json()
