import pytest

from abeforge.corpus import corpus_from_json
from abeforge.models import FiniteAlgebra, satisfies
from abeforge.statements import (
    Clause,
    Identity,
    Literal,
    QuasiIdentity,
    clause_form,
    clauses_equal,
    instantiate,
    literal_eq,
)
from abeforge.terms import parse_term

from test_corpus import with_corollaries


def lit(lhs, rhs, positive=True):
    return Literal(parse_term(lhs), parse_term(rhs), positive)


def test_identity_clause_form_is_single_literal():
    st_ = Identity("i", parse_term("x -> y"), parse_term("y"))
    cf = clause_form(st_)
    assert cf.literals == (Literal(parse_term("x -> y"), parse_term("y")),)


def test_quasi_clause_form_negates_hypotheses(corpus):
    cf = clause_form(corpus.statement("ax5"))
    assert clauses_equal(
        cf.literals,
        (lit("x", "y"), lit("x -> y", "1", False), lit("y -> x", "1", False)),
    )


def test_trans_clause_form(corpus):
    cf = clause_form(corpus.statement("trans"))
    assert clauses_equal(
        cf.literals,
        (lit("x -> z", "1"), lit("x -> y", "1", False), lit("y -> z", "1", False)),
    )


def test_clause_form_stable(corpus):
    for sid in ("ax1", "ax5", "trans", "lem8a", "lem18"):
        cf = clause_form(corpus.statement(sid))
        assert clause_form(cf) == cf


def test_instantiate_with_no_substitution_is_the_clause_form():
    for st_ in corpus_from_json(with_corollaries()).statements.values():
        assert instantiate(st_, {}) == clause_form(st_).literals


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
    # conclusion first, then the negated hypotheses, as clause_form orders them
    s = {v: parse_term(t) for v, t in substitution.items()}
    assert instantiate(corpus.statement(sid), s) == tuple(literals)


def test_quasi_parts_must_be_equations():
    with pytest.raises(ValueError):
        QuasiIdentity("bad", (lit("x", "1", False),), lit("x", "y"))


def test_empty_clause_rejected():
    with pytest.raises(ValueError):
        Clause("empty", ())


def test_literal_eq_symmetry():
    assert literal_eq(lit("x", "y"), lit("y", "x"))
    assert not literal_eq(lit("x", "y"), lit("y", "x", False))


M2 = FiniteAlgebra(2, 1, ((1, 1), (0, 1)))


@pytest.mark.parametrize("sid", ["ax1", "ax2", "ax3", "ax4", "ax5", "ax6", "trans", "lem18"])
def test_statement_and_clause_form_agree_on_models(corpus, sid):
    st_ = corpus.statement(sid)
    assert satisfies(M2, st_)[0] == satisfies(M2, clause_form(st_))[0]


def test_clause_form_agreement_on_falsifying_model(corpus):
    bad = FiniteAlgebra(2, 1, ((0, 1), (0, 1)))  # 0 -> 0 = 0 breaks ax3
    st_ = corpus.statement("ax3")
    assert satisfies(bad, st_)[0] is False
    assert satisfies(bad, clause_form(st_))[0] is False
