import itertools

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from abeforge.corpus import load_corpus
from abeforge.models import (
    FiniteAlgebra,
    ModelFileError,
    Witness,
    canonical_form,
    canonicalize,
    is_model,
    model_from_json,
    model_to_json,
    satisfies,
)
from abeforge.search import enumerate_with_stats
from abeforge.statements import Clause, Identity, Literal, clause_form
from abeforge.terms import UNIT, Arrow, Const, Var, parse_term
from conftest import terms
from reference import evaluate, relabel

M2 = FiniteAlgebra(2, 1, ((1, 1), (0, 1)))
TRIVIAL = FiniteAlgebra(1, 0, ((0,),))


def random_algebra(draw_size=st.integers(2, 4)):
    @st.composite
    def build(draw):
        n = draw(draw_size)
        table = tuple(
            tuple(draw(st.integers(0, n - 1)) for _ in range(n)) for _ in range(n)
        )
        return FiniteAlgebra(n, draw(st.integers(0, n - 1)), table)

    return build()


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
            clause = clause_form(corpus.statement(sid))
            for lit, (lv, rv) in zip(clause.literals, witness.literal_values):
                assert evaluate(bad, lit.lhs, witness.assignment) == lv
                assert evaluate(bad, lit.rhs, witness.assignment) == rv
                assert (lv == rv) != lit.positive

    @given(random_algebra(), st.permutations(list(range(4))))
    def test_relabeling_invariance(self, model, perm):
        from abeforge.corpus import load_corpus

        corpus = load_corpus()
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
    clause = clause_form(st_)
    names = sorted(st_.free_variables())
    for values in itertools.product(range(model.size), repeat=len(names)):
        assignment = dict(zip(names, values))
        evals = []
        ok = False
        for lit in clause.literals:
            lv = evaluate(model, lit.lhs, assignment)
            rv = evaluate(model, lit.rhs, assignment)
            evals.append((lv, rv))
            if (lv == rv) == lit.positive:
                ok = True
                break
        if not ok:
            return False, Witness(st_.id, assignment, tuple(evals))
    return True, None


def drawn_clauses():
    literal = st.builds(Literal, terms(max_leaves=5), terms(max_leaves=5), st.booleans())
    return st.lists(literal, min_size=1, max_size=3).map(
        lambda lits: Clause("drawn", tuple(lits))
    )


def deep_identity(depth=300):
    """An identity whose sides nest `depth` arrows deep, leftward and rightward."""
    lhs, rhs = Var("x"), Var("y")
    for i in range(depth):
        lhs = Arrow(lhs, Var("y") if i % 3 else UNIT)
        rhs = Arrow(Var("x"), rhs)
    return Identity("deep", lhs, rhs)


DEEP = deep_identity()


def wide_term(k):
    """x00 -> x01 -> ... over k variables, nested to the left."""
    term = Var("x00")
    for i in range(1, k):
        term = Arrow(term, Var(f"x{i:02d}"))
    return term


class TestCompiledSatisfies:
    @given(random_algebra(st.integers(1, 4)))
    def test_corpus_statements_match_reference(self, model):
        for st_ in load_corpus().statements.values():
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
            Identity("g", Arrow(UNIT, UNIT), UNIT),
            Clause("h", (Literal(Arrow(UNIT, UNIT), UNIT, False), Literal(UNIT, Arrow(UNIT, UNIT)))),
        ):
            assert satisfies(model, ground) == reference_satisfies(model, ground)
        broken = FiniteAlgebra(2, 1, ((1, 1), (0, 0)))  # 1 -> 1 = 0
        assert satisfies(broken, Identity("g", Arrow(UNIT, UNIT), UNIT)) == (
            False,
            Witness("g", {}, ((0, 1),)),
        )

    def test_constants_are_refused(self):
        # the second literal is never reached, as the first always holds
        behind_true = Clause(
            "c",
            (
                Literal(Arrow(Var("x"), Var("y")), Arrow(Var("x"), Var("y"))),
                Literal(Arrow(Const("a"), Var("x")), Var("y")),
            ),
        )
        for st_ in (Identity("c", Arrow(Const("a"), Var("x")), Var("x")), behind_true):
            for model in (TRIVIAL, M2):
                with pytest.raises(ValueError, match="constant 'a'"):
                    satisfies(model, st_)

    def test_as_many_variables_as_nested_blocks(self):
        # CPython compiles at most 20 nested blocks into one function
        term = wide_term(20)
        # M2 fails these at the first and third assignment
        for wide in (Identity("wide", term, Var("x00")), Identity("wide", term, UNIT)):
            for model in (TRIVIAL, M2):
                assert satisfies(model, wide) == reference_satisfies(model, wide)

    def test_more_variables_than_nested_blocks_are_refused(self):
        term = wide_term(21)
        with pytest.raises(ValueError, match="over 21 variables"):
            satisfies(TRIVIAL, Identity("wide", term, term))

    def test_statements_sharing_an_id_do_not_share_a_closure(self):
        holds = Identity("p", Arrow(Var("x"), Var("x")), UNIT)
        fails = Identity("p", Var("x"), Arrow(Var("x"), Var("x")))
        assert satisfies(M2, holds) == (True, None)
        assert satisfies(M2, fails) == (False, Witness("p", {"x": 0}, ((0, 1),)))
        assert satisfies(M2, holds) == (True, None)

    def test_lookup_does_not_hash_the_statement(self):
        # hashing a frozen statement walks its term tree
        class Unhashable(Identity):
            def __hash__(self):
                raise AssertionError("the statement was hashed")

        st_ = Unhashable("u", Arrow(Var("x"), Var("x")), UNIT)
        assert satisfies(M2, st_) == (True, None)
        assert satisfies(M2, st_) == (True, None)


TRANS = load_corpus().statement("trans")
COMMUTATIVITY = load_corpus().statement("commutativity")
SWAP = Identity("swap", Arrow(Var("x"), Var("y")), Arrow(Var("y"), Var("x")))


def horn_clauses():
    """Clauses of 0-2 negated equations and 0-1 positive one, not both
    none, over terms in x, y, z and 1 with at most 4 leaves."""
    term = terms(max_leaves=4, names=("x", "y", "z"))

    def literals(positive, most):
        return st.lists(st.builds(Literal, term, term, st.just(positive)), max_size=most)

    return st.tuples(literals(False, 2), literals(True, 1)).filter(any).map(
        lambda parts: Clause("horn", (*parts[0], *parts[1]))
    )


@pytest.fixture(scope="module")
def implicative_classes(corpus):
    """The implicative-aBE classes of sizes 1..7."""
    system = corpus.axiom_system("implicative-aBE")
    return [m for n in range(1, 8) for m in enumerate_with_stats(system, n)[0]]


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
    def test_size_two_decides(self, implicative_classes, clause):
        two = next(m for m in implicative_classes if m.size == 2)
        holds = satisfies(two, clause)[0]
        assert reference_satisfies(two, clause)[0] == holds
        assert all(satisfies(m, clause)[0] for m in implicative_classes) == holds

    def test_the_examples_verdicts(self, implicative_classes):
        two = next(m for m in implicative_classes if m.size == 2)
        assert [satisfies(two, clause)[0] for clause in (TRANS, COMMUTATIVITY, SWAP)] == [True, True, False]


class TestIsModel:
    def test_m2_is_implicative_abe(self, corpus):
        ok, _ = is_model(M2, corpus.axiom_system("implicative-aBE"), corpus.statements)
        assert ok

    def test_broken_unit_row_fails_at_ax1(self, corpus):
        broken = FiniteAlgebra(2, 1, ((1, 1), (1, 1)))
        ok, witness = is_model(broken, corpus.axiom_system("aBE"), corpus.statements)
        assert not ok
        assert witness.statement_id == "ax1"

    def test_trivial_algebra(self, corpus):
        ok, _ = is_model(TRIVIAL, corpus.axiom_system("implicative-aBE"), corpus.statements)
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
        with pytest.raises(ModelFileError):
            model_from_json({"size": 2, "unit": 5, "table": [[0, 0], [0, 0]]})
        with pytest.raises(ModelFileError):
            model_from_json([1, 2, 3])

    def test_table_entry_out_of_range(self):
        with pytest.raises(ModelFileError, match="^bad model file: table entry out of range$"):
            model_from_json({"size": 2, "unit": 1, "table": [[2, 1], [0, 1]]})

    def test_invalid_table_shape(self):
        with pytest.raises(ModelFileError):
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
        with pytest.raises(ModelFileError):
            model_from_json(obj)
