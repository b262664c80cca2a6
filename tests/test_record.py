"""The record contract, on the package's own classes: what their methods do
that no other test relies on directly.  (A clause without literals is
refused in test_statements.)"""

import pytest

from abeforge.kernel import L2R, ProofScript, Rewrite
from abeforge.models import FiniteAlgebra
from abeforge.search import EnumerationReport, SizeResult
from abeforge.statements import Clause, Literal
from abeforge.terms import UNIT, Arrow, Const, Var


def test_equality_needs_the_same_class():
    assert Var("x") != Const("x")
    assert Var("x") == Var("x")
    assert Arrow(Var("x"), UNIT) != Arrow(Const("x"), UNIT)


def test_equal_records_hash_equal():
    a = Arrow(Var("x"), Arrow(Const("c"), UNIT))
    b = Arrow(Var("x"), Arrow(Const("c"), UNIT))
    assert a is not b and hash(a) == hash(b)
    assert hash(Literal(a, UNIT)) == hash(Literal(b, UNIT, True))
    m = FiniteAlgebra(2, 1, ((1, 1), (0, 1)))
    assert hash(m) == hash(FiniteAlgebra(2, 1, ((1, 1), (0, 1))))
    assert len({Var("x"), Var("x"), Const("x")}) == 2


@pytest.mark.parametrize(
    "obj, name",
    [(Var("x"), "name"), (Arrow(UNIT, UNIT), "left"), (FiniteAlgebra(1, 0, ((0,),)), "unit")],
    ids=["Var", "Arrow", "FiniteAlgebra"],
)
def test_frozen_fields_refuse_assignment(obj, name):
    with pytest.raises(AttributeError):
        setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        delattr(obj, name)


@pytest.mark.parametrize("cls", [Var, Const])
def test_post_init_still_validates(cls):
    with pytest.raises(ValueError):
        cls("1x")


def test_defaults():
    rw = Rewrite("ax1", {})
    assert (rw.position, rw.direction) == ("", L2R)
    script = ProofScript("s", "lem10", ())
    assert (script.constants, script.hypotheses, script.depends_on, script.comment) == ((), (), (), "")
    assert ProofScript(id="s", target="lem10", steps=()) == script
    assert Literal(UNIT, UNIT).positive is True


def test_mutable_records_get_a_fresh_list_each():
    a, b = EnumerationReport("aBE"), EnumerationReport("aBE")
    a.sizes.append(SizeResult(1, 1, 0, 0.0))
    assert b.sizes == [] and b.properties == []
    assert a != b


def test_mutable_records_are_unhashable():
    with pytest.raises(TypeError):
        hash(EnumerationReport("aBE"))
    with pytest.raises(TypeError):
        hash(SizeResult(1, 1, 0, 0.0))


def test_repr_names_the_fields_unless_the_class_has_its_own():
    assert repr(SizeResult(3, None, 9, 0.5)) == "SizeResult(size=3, count=None, nodes=9, millis=0.5, exceeded=False)"
    assert repr(Arrow(Var("x"), UNIT)) == "Arrow(Var(x), Unit)"


def test_fields_are_the_annotations_of_the_class_body():
    # Statement annotates `id` for its subclasses, and Clause annotates it again
    assert Clause.__slots__ == ("id", "literals")
    with pytest.raises(TypeError):
        Clause("c", (Literal(UNIT, UNIT),), "extra")
