import pytest

from abeforge.corpus import CorpusError, corpus_from_json
from abeforge.models import FiniteAlgebra, satisfies
from abeforge.statements import Literal, Statement, clauses_equal, instantiate, literal_eq
from abeforge.terms import format_term, parse_term

from conftest import merged_corpus, read_corpus_json


def lit(lhs, rhs, positive=True):
    return Literal(parse_term(lhs), parse_term(rhs), positive)


def read_statement(obj):
    """The statement that the corpus reader builds from the object, read
    beside the built-in corpus."""
    corpus = read_corpus_json()
    corpus["statements"].append(obj)
    return corpus_from_json(corpus).statement(obj["id"])


def json_literal(l):
    return {"lhs": format_term(l.lhs), "rhs": format_term(l.rhs), "polarity": "=" if l.positive else "!="}


def test_identity_clause_form_is_single_literal():
    st_ = read_statement({"kind": "identity", "id": "i", "lhs": "x -> y", "rhs": "y"})
    assert st_ == Statement("i", "identity", (lit("x -> y", "y"),))


def test_quasi_clause_form_negates_hypotheses(corpus):
    assert clauses_equal(
        corpus.statement("ax5").literals,
        (lit("x", "y"), lit("x -> y", "1", False), lit("y -> x", "1", False)),
    )


def test_trans_clause_form(corpus):
    assert clauses_equal(
        corpus.statement("trans").literals,
        (lit("x -> z", "1"), lit("x -> y", "1", False), lit("y -> z", "1", False)),
    )


def test_clause_form_stable(corpus):
    # each statement's literals, written back as a clause, read as the same literals
    for sid in ("ax1", "ax5", "trans", "lem8a", "lem18"):
        st_ = corpus.statement(sid)
        obj = {"kind": "clause", "id": "again", "literals": [json_literal(l) for l in st_.literals]}
        assert read_statement(obj).literals == st_.literals


def test_instantiate_with_no_substitution_is_the_clause_form():
    for st_ in merged_corpus().statements.values():
        assert instantiate(st_, {}) == st_.literals


@pytest.mark.parametrize(
    "sid, substitution, literals",
    [
        ("ax6", {"x": "x -> y", "y": "z -> x"}, [lit("((x -> y) -> (z -> x)) -> (x -> y)", "x -> y")]),
        (
            "ax5",
            {"y": "y -> x"},
            [lit("x", "y -> x"), lit("x -> (y -> x)", "1", False), lit("(y -> x) -> x", "1", False)],
        ),
        (
            "trans",
            {"x": "x -> y", "y": "1"},
            [lit("(x -> y) -> z", "1"), lit("(x -> y) -> 1", "1", False), lit("1 -> z", "1", False)],
        ),
    ],
    ids=["ax6", "ax5", "trans"],
)
def test_instantiate_substitutes_in_clause_form_order(corpus, sid, substitution, literals):
    # conclusion first, then the negated hypotheses, as the corpus reader orders them
    s = {v: parse_term(t) for v, t in substitution.items()}
    assert instantiate(corpus.statement(sid), s) == tuple(literals)


def test_quasi_parts_must_be_equations():
    bad = {
        "kind": "quasi",
        "id": "bad",
        "hypotheses": [{"lhs": "x", "rhs": "1", "polarity": "!="}],
        "conclusion": {"lhs": "x", "rhs": "y", "polarity": "="},
    }
    with pytest.raises(CorpusError, match="bad statement object: quasi-identity parts must be equations"):
        read_statement(bad)


def test_empty_clause_rejected():
    with pytest.raises(CorpusError, match="bad statement object: a clause needs at least one literal"):
        read_statement({"kind": "clause", "id": "empty", "literals": []})


def test_literal_eq_symmetry():
    assert literal_eq(lit("x", "y"), lit("y", "x"))
    assert not literal_eq(lit("x", "y"), lit("y", "x", False))


M2 = FiniteAlgebra(2, 1, ((1, 1), (0, 1)))


def as_clause(st_):
    return Statement(st_.id, "clause", st_.literals)


@pytest.mark.parametrize("sid", ["ax1", "ax2", "ax3", "ax4", "ax5", "ax6", "trans", "lem18"])
def test_statement_and_clause_form_agree_on_models(corpus, sid):
    # the kind only picks the rendering; the model checker reads the literals
    st_ = corpus.statement(sid)
    assert satisfies(M2, st_) == satisfies(M2, as_clause(st_))


def test_clause_form_agreement_on_falsifying_model(corpus):
    bad = FiniteAlgebra(2, 1, ((0, 1), (0, 1)))  # 0 -> 0 = 0 breaks ax3
    st_ = corpus.statement("ax3")
    assert satisfies(bad, st_)[0] is False
    assert satisfies(bad, as_clause(st_)) == satisfies(bad, st_)
