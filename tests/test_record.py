"""The record contract, on the package's own classes: what their methods do
that no other test relies on directly.  (A clause without literals is
refused in test_statements.)"""

import importlib
import inspect
import pkgutil

import pytest

import abeforge
from abeforge._record import record
from abeforge.corpus import load_corpus
from abeforge.kernel import L2R, ProofScript, Rewrite
from abeforge.models import FiniteAlgebra, Witness
from abeforge.statements import AxiomSystem, Clause, Literal
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
    [
        (Var("x"), "name"),
        (Arrow(UNIT, UNIT), "left"),
        (FiniteAlgebra(1, 0, ((0,),)), "unit"),
        (load_corpus(), "scripts"),
        (Witness("p", {"x": 0}, ((0, 1),)), "assignment"),
        (AxiomSystem("aBE", ("ax1",)), "members"),
    ],
    ids=["Var", "Arrow", "FiniteAlgebra", "Corpus", "Witness", "AxiomSystem"],
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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"lhs": UNIT}, "Literal.__init__() missing required argument 'rhs'"),
        ({"lhs": UNIT, "rhs": UNIT, "sides": 2}, "Literal.__init__() got unexpected or repeated keyword arguments ['sides']"),
    ],
    ids=["missing", "unexpected"],
)
def test_bad_keyword_arguments_name_the_field(kwargs, message):
    with pytest.raises(TypeError) as exc:
        Literal(**kwargs)
    assert str(exc.value) == message


def test_repr_names_the_fields_unless_the_class_has_its_own():
    assert repr(AxiomSystem("aBE", ("ax1", "ax2"))) == "AxiomSystem(name='aBE', members=('ax1', 'ax2'))"
    assert repr(Arrow(Var("x"), UNIT)) == "Arrow(Var(x), Unit)"
    assert repr(Const("a")) == "Const(a)"


def test_fields_are_the_annotations_of_the_class_body():
    # Statement annotates `id` for its subclasses, and Clause annotates it again
    assert Clause.__slots__ == ("id", "literals")
    with pytest.raises(TypeError):
        Clause("c", (Literal(UNIT, UNIT),), "extra")


def _package_records():
    """Every class that `record` made in a module of the package: the ones
    whose assignment is the one `record` refuses."""
    refuse = record(type("Probe", (), {})).__setattr__
    found = {}
    for info in pkgutil.iter_modules(abeforge.__path__, "abeforge."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__ and cls.__setattr__ is refuse:
                found[cls.__qualname__] = cls
    return found


def test_every_record_is_slotted_with_its_fields():
    records = _package_records()
    assert len(records) == 20, sorted(records)
    for cls in records.values():
        assert cls.__slots__ == tuple(cls.__dict__.get("__annotations__", ())), cls
        assert not hasattr(cls.__new__(cls), "__dict__"), cls
