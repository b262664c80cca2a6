import itertools

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from abeforge.models import (
    FiniteAlgebra,
    Witness,
    canonical_form,
    canonicalize,
    is_model,
    model_from_json,
    model_to_json,
    satisfies,
)
from abeforge.statements import Literal, Statement
from abeforge.terms import UNIT, Arrow, Const, Var, parse_term
from conftest import classes, merged_corpus, random_algebra, terms
from reference import evaluate, relabel

M2 = FiniteAlgebra(2, 1, ((1, 1), (0, 1)))
TRIVIAL = FiniteAlgebra(1, 0, ((0,),))


def permutations_of(model):
    return st.permutations(list(range(model.size)))


class TestEvaluate:
    def test_unit_row(self):
        assert evaluate(M2, parse_term("1 -> x"), {"x": 0}) == 0

    def test_table_walk(self):
        # (0 -> 1) -> 0 = 1 -> 0 = 0 in M2
        assert evaluate(M2, parse_term("(x -> y) -> x"), {"x": 0, "y": 1}) == 0

    def test_unit_constant(self):
        assert evaluate(M2, parse_term("1"), {}) == M2.unit

    def test_unbound_name(self):
        with pytest.raises(KeyError):
            evaluate(M2, parse_term("x -> y"), {"x": 0})

    @given(random_algebra(), st.integers(0, 3), st.integers(0, 3))
    def test_substitution_compatibility(self, model, i, j):
        t = parse_term("(x -> y) -> (y -> x)")
        sigma = {"x": parse_term("y -> y"), "y": parse_term("x -> 1")}
        a = {"x": i % model.size, "y": j % model.size}
        a2 = {v: evaluate(model, img, a) for v, img in sigma.items()}
        from abeforge.terms import substitute

        assert evaluate(model, substitute(t, sigma), a) == evaluate(model, t, a2)


class TestSatisfies:
    def test_m2_satisfies_axioms(self, corpus):
        for sid in ("ax1", "ax2", "ax3", "ax4", "ax5", "ax6"):
            ok, _ = satisfies(M2, corpus.statement(sid))
            assert ok, sid

    def test_m2_satisfies_trans_vs_brute_force(self, corpus):
        # independent oracle: enumerate all assignments and check the
        # implication directly on the table
        trans = corpus.statement("trans")
        expected = all(
            not (M2.table[x][y] == M2.unit and M2.table[y][z] == M2.unit)
            or M2.table[x][z] == M2.unit
            for x, y, z in itertools.product(range(2), repeat=3)
        )
        assert satisfies(M2, trans)[0] == expected is True

    def test_violation_witness_is_first_in_order(self, corpus):
        bad = FiniteAlgebra(2, 1, ((0, 1), (0, 1)))  # 0 -> 0 = 0
        ok, witness = satisfies(bad, corpus.statement("ax3"))
        assert not ok
        assert witness.assignment == {"x": 0}

    def test_witness_replays(self, corpus):
        bad = FiniteAlgebra(3, 2, ((0, 2, 2), (2, 2, 2), (0, 1, 2)))
        for sid in ("ax3", "ax4", "trans"):
            ok, witness = satisfies(bad, corpus.statement(sid))
            if ok:
                continue
            for lit, (lv, rv) in zip(corpus.statement(sid).literals, witness.literal_values):
                assert evaluate(bad, lit.lhs, witness.assignment) == lv
                assert evaluate(bad, lit.rhs, witness.assignment) == rv
                assert (lv == rv) != lit.positive

    @given(random_algebra(), st.permutations(list(range(4))))
    def test_relabeling_invariance(self, corpus, model, perm):
        perm = [p % model.size for p in perm[: model.size]]
        if sorted(perm) != list(range(model.size)):
            return
        other = relabel(model, perm)
        for sid in ("ax3", "ax4", "ax5", "trans"):
            st_ = corpus.statement(sid)
            assert satisfies(model, st_)[0] == satisfies(other, st_)[0]


def reference_satisfies(model, st_):
    """The uncompiled loop: a fresh assignment dict per assignment and a
    recursive evaluate per literal side."""
    names = sorted(st_.free_variables())
    for values in itertools.product(range(model.size), repeat=len(names)):
        assignment = dict(zip(names, values))
        evals = []
        ok = False
        for lit in st_.literals:
            lv = evaluate(model, lit.lhs, assignment)
            rv = evaluate(model, lit.rhs, assignment)
            evals.append((lv, rv))
            if (lv == rv) == lit.positive:
                ok = True
                break
        if not ok:
            return False, Witness(st_.id, assignment, tuple(evals))
    return True, None


def identity(sid, lhs, rhs):
    return Statement(sid, "identity", (Literal(lhs, rhs),))


def drawn_clauses():
    literal = st.builds(Literal, terms(max_leaves=5), terms(max_leaves=5), st.booleans())
    return st.lists(literal, min_size=1, max_size=3).map(
        lambda lits: Statement("drawn", "clause", tuple(lits))
    )


def deep_identity(depth=300):
    """An identity whose sides nest `depth` arrows deep, leftward and rightward."""
    lhs, rhs = Var("x"), Var("y")
    for i in range(depth):
        lhs = Arrow(lhs, Var("y") if i % 3 else UNIT)
        rhs = Arrow(Var("x"), rhs)
    return identity("deep", lhs, rhs)


DEEP = deep_identity()


def wide_term(k):
    """x00 -> x01 -> ... over k variables, nested to the left."""
    term = Var("x00")
    for i in range(1, k):
        term = Arrow(term, Var(f"x{i:02d}"))
    return term


class TestCompiledSatisfies:
    @given(random_algebra(st.integers(1, 4)))
    def test_corpus_statements_match_reference(self, corpus, model):
        for st_ in corpus.statements.values():
            assert satisfies(model, st_) == reference_satisfies(model, st_), st_.id

    @given(random_algebra(st.integers(1, 4)), drawn_clauses())
    def test_drawn_clauses_match_reference(self, model, clause):
        assert satisfies(model, clause) == reference_satisfies(model, clause)

    @settings(max_examples=25)
    @given(random_algebra(st.integers(1, 3)))
    def test_terms_nesting_past_the_parser_limit(self, model):
        # as one expression, the compiled check would pass CPython's
        # 200-level nesting limit
        assert satisfies(model, DEEP) == reference_satisfies(model, DEEP)

    @given(random_algebra(st.integers(1, 4)))
    def test_ground_statement(self, model):
        for ground in (
            identity("g", Arrow(UNIT, UNIT), UNIT),
            Statement("h", "clause", (Literal(Arrow(UNIT, UNIT), UNIT, False), Literal(UNIT, Arrow(UNIT, UNIT)))),
        ):
            assert satisfies(model, ground) == reference_satisfies(model, ground)
        broken = FiniteAlgebra(2, 1, ((1, 1), (0, 0)))  # 1 -> 1 = 0
        assert satisfies(broken, identity("g", Arrow(UNIT, UNIT), UNIT)) == (
            False,
            Witness("g", {}, ((0, 1),)),
        )

    def test_constants_are_refused(self):
        # the second literal is never reached, as the first always holds
        behind_true = Statement(
            "c",
            "clause",
            (
                Literal(Arrow(Var("x"), Var("y")), Arrow(Var("x"), Var("y"))),
                Literal(Arrow(Const("a"), Var("x")), Var("y")),
            ),
        )
        for st_ in (identity("c", Arrow(Const("a"), Var("x")), Var("x")), behind_true):
            for model in (TRIVIAL, M2):
                with pytest.raises(ValueError, match="constant 'a'"):
                    satisfies(model, st_)

    def test_as_many_variables_as_nested_blocks(self):
        # CPython compiles at most 20 nested blocks into one function
        term = wide_term(20)
        # M2 fails these at the first and third assignment
        for wide in (identity("wide", term, Var("x00")), identity("wide", term, UNIT)):
            for model in (TRIVIAL, M2):
                assert satisfies(model, wide) == reference_satisfies(model, wide)

    def test_more_variables_than_nested_blocks_are_refused(self):
        term = wide_term(21)
        with pytest.raises(ValueError, match="over 21 variables"):
            satisfies(TRIVIAL, identity("wide", term, term))

    def test_statements_sharing_an_id_do_not_share_a_closure(self):
        holds = identity("p", Arrow(Var("x"), Var("x")), UNIT)
        fails = identity("p", Var("x"), Arrow(Var("x"), Var("x")))
        assert satisfies(M2, holds) == (True, None)
        assert satisfies(M2, fails) == (False, Witness("p", {"x": 0}, ((0, 1),)))
        assert satisfies(M2, holds) == (True, None)

    def test_lookup_does_not_hash_the_statement(self):
        # hashing a frozen statement walks its term tree
        class Unhashable(Statement):
            def __hash__(self):
                raise AssertionError("the statement was hashed")

        st_ = Unhashable("u", "identity", (Literal(Arrow(Var("x"), Var("x")), UNIT),))
        assert satisfies(M2, st_) == (True, None)
        assert satisfies(M2, st_) == (True, None)


TRANS = merged_corpus().statement("trans")
COMMUTATIVITY = merged_corpus().statement("commutativity")
SWAP = identity("swap", Arrow(Var("x"), Var("y")), Arrow(Var("y"), Var("x")))


def horn_clauses():
    """Clauses of 0-2 negated equations and 0-1 positive one, not both
    none, over terms in x, y, z and 1 with at most 4 leaves."""
    term = terms(max_leaves=4, names=("x", "y", "z"))

    def literals(positive, most):
        return st.lists(st.builds(Literal, term, term, st.just(positive)), max_size=most)

    return st.tuples(literals(False, 2), literals(True, 1)).filter(any).map(
        lambda parts: Statement("horn", "clause", (*parts[0], *parts[1]))
    )


class TestHornAtSizeTwo:
    """Each implicative aBE algebra embeds in a power of the 2-element one
    (Abbott), and a Horn clause holds in subalgebras and products of models
    of it, so it holds at size 2 exactly when it holds in every class.  This
    stays a test: a command that decided statements at size 2 would assume
    the theorem that the kernel proves."""

    @settings(max_examples=300, deadline=None)
    @given(clause=horn_clauses())
    @example(clause=TRANS)
    @example(clause=COMMUTATIVITY)
    @example(clause=SWAP)
    def test_size_two_decides(self, corpus, clause):
        members = corpus.axiom_system("implicative-aBE").members
        two = classes(members, 2)[0][0]
        holds = satisfies(two, clause)[0]
        assert reference_satisfies(two, clause)[0] == holds
        # the same verdict in every class of sizes 1..7
        assert all(satisfies(m, clause)[0] for n in range(1, 8) for m in classes(members, n)[0]) == holds

    def test_the_examples_verdicts(self, corpus):
        two = classes(corpus.axiom_system("implicative-aBE").members, 2)[0][0]
        assert [satisfies(two, clause)[0] for clause in (TRANS, COMMUTATIVITY, SWAP)] == [True, True, False]


class TestIsModel:
    def test_m2_is_implicative_abe(self, corpus):
        ok, _ = is_model(M2, corpus.axiom_system("implicative-aBE"))
        assert ok

    def test_broken_unit_row_fails_at_ax1(self, corpus):
        broken = FiniteAlgebra(2, 1, ((1, 1), (1, 1)))
        ok, witness = is_model(broken, corpus.axiom_system("aBE"))
        assert not ok
        assert witness.statement_id == "ax1"

    def test_trivial_algebra(self, corpus):
        ok, _ = is_model(TRIVIAL, corpus.axiom_system("implicative-aBE"))
        assert ok


class TestCanonical:
    def test_relabel_preserves_isomorphism(self):
        m = FiniteAlgebra(3, 2, ((2, 0, 2), (0, 2, 2), (0, 1, 2)))
        for perm in itertools.permutations(range(3)):
            assert canonical_form(relabel(m, list(perm))) == canonical_form(m)

    def test_different_sizes_never_isomorphic(self):
        assert canonical_form(M2) != canonical_form(TRIVIAL)

    def test_canonical_unit_is_last_index(self):
        m = FiniteAlgebra(3, 0, ((0, 1, 2), (0, 0, 2), (0, 0, 0)))
        assert canonicalize(m).unit == 2

    def test_canonicalize_idempotent(self):
        m = FiniteAlgebra(3, 1, ((1, 1, 0), (0, 1, 0), (0, 1, 1)))
        c = canonicalize(m)
        assert canonicalize(c) == c
        assert canonical_form(c) == canonical_form(m)

    def test_canonical_separates_nonisomorphic(self):
        # same size, different number of idempotent-like cells
        a = FiniteAlgebra(2, 1, ((1, 1), (0, 1)))
        b = FiniteAlgebra(2, 1, ((0, 1), (0, 1)))
        assert canonical_form(a) != canonical_form(b)


class TestModelFiles:
    def test_round_trip(self):
        assert model_from_json(model_to_json(M2)) == M2

    def test_bad_file(self):
        with pytest.raises(ValueError, match="^bad model file: unit out of range$"):
            model_from_json({"size": 2, "unit": 5, "table": [[0, 0], [0, 0]]})
        with pytest.raises(ValueError, match="^model file must be a JSON object$"):
            model_from_json([1, 2, 3])

    def test_table_entry_out_of_range(self):
        with pytest.raises(ValueError, match="^bad model file: table entry out of range$"):
            model_from_json({"size": 2, "unit": 1, "table": [[2, 1], [0, 1]]})

    def test_invalid_table_shape(self):
        with pytest.raises(ValueError, match="^bad model file: table must be size x size$"):
            model_from_json({"size": 2, "unit": 0, "table": [[0, 0]]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"size": 2, "unit": 1, "table": [[1.7, 1], [0, 1]]},
            {"size": 2, "unit": 1, "table": [[1.0, 1], [0, 1]]},
            {"size": 2, "unit": 1, "table": [[True, 1], [0, 1]]},
            {"size": 2, "unit": 1, "table": [["1", 1], [0, 1]]},
            {"size": 2, "unit": 1, "table": ["11", "01"]},
            {"size": "2", "unit": 1, "table": [[1, 1], [0, 1]]},
            {"size": 2, "unit": True, "table": [[1, 1], [0, 1]]},
        ],
    )
    def test_only_integers_accepted(self, obj):
        with pytest.raises(ValueError, match="^bad model file: "):
            model_from_json(obj)
