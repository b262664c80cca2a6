import pytest
from hypothesis import given

from abeforge.terms import (
    UNIT,
    Arrow,
    Const,
    Var,
    format_term,
    match_pattern,
    parse_term,
    replace_at,
    substitute,
    subterm_at,
)

from conftest import terms
from reference import positions

x, y, z = Var("x"), Var("y"), Var("z")


class TestParse:
    def test_explicit_parens(self):
        assert parse_term("x -> (y -> z)") == Arrow(x, Arrow(y, z))

    def test_right_associative(self):
        assert parse_term("x -> y -> z") == Arrow(x, Arrow(y, z))

    def test_parens_override(self):
        assert parse_term("(x -> y) -> x") == Arrow(Arrow(x, y), x)

    def test_unit(self):
        assert parse_term("1") == UNIT

    def test_constants_by_declaration(self):
        assert parse_term("a -> x", constants=["a"]) == Arrow(Const("a"), x)

    def test_whitespace_insignificant(self):
        assert parse_term("x->y   ->  z") == parse_term("x -> y -> z")
        assert parse_term("  x -> y  ") == parse_term("x -> y")

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ValueError, match=r"^unexpected character '@' \(at offset 5\)$"):
            parse_term("x -> @")

    def test_unexpected_token_named_with_its_offset(self):
        with pytest.raises(ValueError, match=r"^unexpected token '\)' \(at offset 5\)$"):
            parse_term("x -> )")

    def test_trailing_input_rejected(self):
        with pytest.raises(ValueError, match=r"^trailing input 'y' \(at offset 2\)$"):
            parse_term("x y")

    def test_unbalanced_paren(self):
        with pytest.raises(ValueError, match=r"^expected '\)' \(at offset 7\)$"):
            parse_term("(x -> y")

    def test_reserved_unit_name(self):
        with pytest.raises(ValueError):
            Var("1")
        with pytest.raises(ValueError):
            parse_term("x", constants=["1"])


class TestFormat:
    def test_left_nested_parenthesized(self):
        assert format_term(Arrow(Arrow(x, y), x)) == "(x -> y) -> x"

    def test_unit(self):
        assert format_term(UNIT) == "1"

    def test_right_assoc_omitted(self):
        assert format_term(Arrow(x, Arrow(y, z))) == "x -> y -> z"

    @given(terms(with_constants=True))
    def test_round_trip(self, t):
        assert parse_term(format_term(t), constants=("a", "b", "c")) == t


class TestSubstitute:
    def test_simple(self):
        assert substitute(parse_term("x -> y"), {"x": UNIT}) == parse_term("1 -> y")

    def test_two_variables(self):
        got = substitute(parse_term("(x -> y) -> x"), {"x": Var("a"), "y": Var("b")})
        assert got == parse_term("(a -> b) -> a")

    def test_simultaneous_no_resubstitution(self):
        s = {"x": parse_term("x -> y"), "y": z, "z": x}
        assert substitute(parse_term("x -> (y -> z)"), s) == parse_term("(x -> y) -> (z -> x)")


class TestMatch:
    def test_basic(self):
        got = match_pattern(parse_term("(x -> y) -> x"), parse_term("(a -> b) -> a"))
        assert got == {"x": Var("a"), "y": Var("b")}

    def test_nonlinear_mismatch(self):
        assert match_pattern(parse_term("(x -> y) -> x"), parse_term("(a -> b) -> b")) is None

    def test_binds_whole_subterm(self):
        got = match_pattern(parse_term("x -> 1"), parse_term("(a -> b) -> 1"))
        assert got == {"x": parse_term("a -> b")}

    def test_subject_variables_inert(self):
        assert match_pattern(parse_term("1"), x) is None

    @given(terms(max_leaves=6), terms(max_leaves=10))
    def test_soundness(self, pattern, subject):
        s = match_pattern(pattern, subject)
        if s is not None:
            assert substitute(pattern, s) == subject


class TestPositions:
    def test_subterm_right(self):
        t = parse_term("z -> ((x -> y) -> x)")
        assert subterm_at(t, "R") == parse_term("(x -> y) -> x")

    def test_replace_right(self):
        t = parse_term("z -> ((x -> y) -> x)")
        assert replace_at(t, "R", x) == parse_term("z -> x")

    def test_root(self):
        t = parse_term("x -> y")
        assert subterm_at(t, "") == t

    def test_invalid_position_names_selector(self):
        with pytest.raises(ValueError, match=r"^cannot descend 'L' into 'x' \(selector index 1\)$"):
            subterm_at(parse_term("x -> y"), "LL")

    def test_replace_below_a_leaf_names_the_selector(self):
        with pytest.raises(ValueError) as exc:
            replace_at(UNIT, "L", UNIT)
        assert str(exc.value) == "cannot descend 'L' into '1' (selector index 0)"

    def test_bad_selector_letter(self):
        with pytest.raises(ValueError, match=r"^bad selector 'Q' \(selector index 0\)$"):
            subterm_at(parse_term("x -> y"), "Q")

    @given(terms())
    def test_replace_with_own_subterm_is_identity(self, t):
        for p in positions(t):
            assert replace_at(t, p, subterm_at(t, p)) == t
