"""The value semantics of the library's records: construction by position,
keyword and default, repr, equality, hashing, immutability and pickling."""

import copy
import pickle

import pytest

from hypercone.corrdyn import CombMulticone
from hypercone.multicone import CoreSet, CriterionReport
from hypercone.projgeom import ArcP1, MultiCone, ProjPoint
from hypercone.sl2core import Mat2
from hypercone.symdyn import Sft
from hypercone.tolerances import DEFAULT, Tolerances
from hypercone.twoshift import Degenerate, EllipticWitness, NonPrincipal, Principal
from hypercone.witness import BoundaryReport


def test_repr_names_every_field():
    assert repr(Mat2(1, 2, 3, 4)) == "Mat2(a=1, b=2, c=3, d=4)"
    assert repr(ProjPoint(4.0)) == "ProjPoint(angle=0.8584073464102069)"  # 4 - pi
    assert repr(Degenerate("x")) == "Degenerate(reason='x', value=0.0)"
    assert repr(BoundaryReport(kind="none")) == (
        "BoundaryReport(kind='none', elliptic=None, parabolic=None, "
        "heteroclinic=None, budgets={})")


def test_defaults_and_keywords():
    assert Tolerances() == DEFAULT and Tolerances().band == 1e-7
    narrow = Tolerances(band=0.0)
    assert narrow.band == 0.0 and narrow.angle == DEFAULT.angle
    assert narrow.as_dict() == dict(DEFAULT.as_dict(), band=0.0)
    assert CriterionReport(ok=True, reasons=()).constancy_length == 0
    assert CriterionReport(True, (), 3).constancy_length == 3
    assert CombMulticone(rank=3).even_is_u is True
    assert Mat2(a=1, b=2, c=3, d=4) == Mat2(1, 2, 3, 4)
    core = CoreSet(u_arcs=(), s_arcs=())
    assert (core.u_words, core.s_words, core.word_length) == ((), (), 0)
    with pytest.raises(TypeError):
        Degenerate()
    with pytest.raises(TypeError):
        Degenerate("x", 1.0, 2.0)
    with pytest.raises(TypeError):
        Degenerate("x", reason="y")
    with pytest.raises(TypeError):
        Degenerate("x", colour="y")


def test_each_report_has_its_own_budgets():
    first, second = BoundaryReport(kind="none"), BoundaryReport(kind="none")
    first.budgets["k"] = 1
    assert second.budgets == {}


def test_fields_cannot_be_assigned_or_deleted():
    m, arc = Mat2(1, 0, 0, 1), ArcP1.from_angles(0.25, 1.5)
    with pytest.raises(AttributeError):
        m.a = 2
    with pytest.raises(AttributeError):
        del m.a
    with pytest.raises(AttributeError):
        arc.length = 1.0
    assert m == Mat2(1, 0, 0, 1) and arc.length == 1.25


def test_equality_needs_the_same_class():
    assert Principal((1, 1), 0.5) == Principal((1, 1), 0.5)
    assert Principal((1, 1), 0.5) != Degenerate((1, 1), 0.5)
    assert ProjPoint(0.5) != (0.5,)
    assert Mat2(1, 0, 0, 1) != Mat2(1, 0, 0, -1)


def test_hash_is_the_hash_of_the_field_tuple():
    assert hash(Mat2(1, 2, 3, 4)) == hash((1, 2, 3, 4))
    assert hash(ProjPoint(0.5)) == hash((0.5,))
    assert hash(Degenerate("x")) == hash(("x", 0.0))
    full = Sft.full(2)
    assert hash(full) == hash((2, full.allowed))
    assert len({Mat2(1, 0, 0, 1), Mat2(1, 0, 0, 1), Mat2(2, 0, 0, 0.5)}) == 2


def test_records_survive_pickle_and_copy():
    cone = MultiCone((ArcP1.from_angles(2.0, 2.5), ArcP1.from_angles(0.5, 1.0)))
    for value in (Mat2(1, 2, 3, 7), ProjPoint(0.5), cone, Sft.full(2),
                  Tolerances(band=0.0), BoundaryReport(kind="none", budgets={"k": 1})):
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                     copy.deepcopy(value)):
            assert twin == value and repr(twin) == repr(value)
    assert pickle.loads(pickle.dumps(cone)).arcs[0].length == 0.5


VERDICTS = {
    "Principal(sign_pair=(1, -1), invariant=-2.5)": (Principal, ((1, -1), -2.5)),
    "NonPrincipal(fword='+-', sign_pair=(1, 1), orientation=-1, iterations=2, "
    "invariant=7.25)": (NonPrincipal, ("+-", (1, 1), -1, 2, 7.25)),
    "EllipticWitness(word='ABA', trace=1.5, iterations=1)": (EllipticWitness,
                                                            ("ABA", 1.5, 1)),
    "Degenerate(reason='tie', value=3.0)": (Degenerate, ("tie", 3.0)),
}


def test_verdicts_keep_the_record_semantics():
    # each verdict writes its own slots; by position or keyword it is the
    # same value, with the repr, hash, pickling and immutability of a Record
    for text, (cls, args) in VERDICTS.items():
        value = cls(*args)
        assert value == cls(**dict(zip(cls._fields, args)))
        assert value == cls(*args[:1], **dict(zip(cls._fields[1:], args[1:])))
        assert repr(value) == text and hash(value) == hash(args)
        assert value != cls(*args[:-1], "other")
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                     copy.deepcopy(value)):
            assert type(twin) is cls and twin == value and repr(twin) == text
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        for bad_args, bad_kwargs in ((args + (0,), {}), (args, {cls._fields[0]: args[0]}),
                                     (args, {"colour": "y"})):
            with pytest.raises(TypeError):
                cls(*bad_args, **bad_kwargs)
        if cls is not Degenerate:
            with pytest.raises(TypeError):
                cls(*args[:-1])
    assert Degenerate("tie") == Degenerate("tie", 0.0) == Degenerate(reason="tie")
    assert Degenerate("tie").value == 0.0
    assert pickle.loads(pickle.dumps(Degenerate("tie"))) == Degenerate("tie")
