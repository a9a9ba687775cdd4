"""Record parity: every record class compares, hashes, prints and refuses
assignment as its dataclass form did.

The expected texts and hashes were recorded with the dataclass records.
Value records compare and hash as the tuple of their fields; the mutable
cache holders (``Representation``, ``SpinSpace``) are equal only to
themselves; ``ExteriorElement`` keeps its own value equality and stays
unhashable.
"""

from fractions import Fraction as F

import pytest

from spinweave.bundles import ExteriorElement, QuadricPoint, RationalSpherePoint, TangentPair
from spinweave.charclass import BundleData, CohoClass, CohoRing, ManifoldData, builtin_catalog
from spinweave.clifford import Signature, volume
from spinweave.groups import KappaImage, OrthMatrix, frame_group
from spinweave.linalg import ExactMatrix
from spinweave.reps import Intertwiner, Representation, SpinSpace, build_rep, spin_space
from spinweave.scalars import ONE, sc


def _point():
    return RationalSpherePoint((F(3, 5), F(4, 5)))


def _pair():
    return TangentPair(_point(), (F(-4, 5), F(3, 5)))


def _pole_pair():
    return TangentPair(RationalSpherePoint((F(0), F(0), F(1))), (F(1), F(0), F(0)))


def _s1():
    return next(m for m in builtin_catalog() if m.name == "s1")


# factory, repr recorded on the dataclass form, a field to assign to
VALUE_RECORDS = {
    "Signature": (lambda: Signature(2, 1), "Signature(k=2, l=1)", "k"),
    "VolumeElement": (lambda: volume(Signature(1, 0)),
                      "VolumeElement(eta=e1, iota=ExactScalar(1))", "iota"),
    "Intertwiner": (lambda: Intertwiner(ExactMatrix([[ONE]]), True),
                    "Intertwiner(matrix=[1], invertible=True)", "invertible"),
    "KappaImage": (lambda: KappaImage(-1, sc(2)),
                   "KappaImage(sign=-1, scale=ExactScalar(2))", "sign"),
    "OrthMatrix": (lambda: OrthMatrix(Signature(1, 1), ExactMatrix.identity(2)),
                   "OrthMatrix(sig=Signature(k=1, l=1), mat=[1  0]\n[0  1])", "mat"),
    "RationalSpherePoint": (_point,
                            "RationalSpherePoint(coords=(Fraction(3, 5), Fraction(4, 5)))",
                            "coords"),
    "TangentPair": (_pair,
                    "TangentPair(point=RationalSpherePoint(coords=(Fraction(3, 5), "
                    "Fraction(4, 5))), y=(Fraction(-4, 5), Fraction(3, 5)))", "y"),
    "QuadricPoint": (lambda: QuadricPoint(_pair(), _pole_pair()),
                     "QuadricPoint(x=TangentPair(point=RationalSpherePoint(coords=("
                     "Fraction(3, 5), Fraction(4, 5))), y=(Fraction(-4, 5), Fraction(3, 5))), "
                     "y=TangentPair(point=RationalSpherePoint(coords=(Fraction(0, 1), "
                     "Fraction(0, 1), Fraction(1, 1))), y=(Fraction(1, 1), Fraction(0, 1), "
                     "Fraction(0, 1))))", "x"),
    "CohoClass": (lambda: CohoClass(1, (1, 0)), "CohoClass(degree=1, coords=(1, 0))", "coords"),
    "CohoRing": (lambda: CohoRing(("a",), ("a^2",), ((1,),)),
                 "CohoRing(basis1=('a',), basis2=('a^2',), sq=((1,),), cup={(0, 0): (1,)})",
                 "cup"),
    "BundleData": (lambda: BundleData("T", 2, CohoClass(1, (1,)), CohoClass(2, (1,))),
                   "BundleData(name='T', rank=2, w1=CohoClass(degree=1, coords=(1,)), "
                   "w2=CohoClass(degree=2, coords=(1,)), oriented=False)", "rank"),
    "ManifoldData": (_s1,
                     "ManifoldData(name='s1', dim=1, ring=CohoRing(basis1=('t',), basis2=(), "
                     "sq=((),), cup={(0, 0): ()}), tangent=BundleData(name='TS', rank=1, "
                     "w1=CohoClass(degree=1, coords=(0,)), w2=CohoClass(degree=2, coords=()), "
                     "oriented=False), liftable2=(), bundles=())", "dim"),
}
# the records holding a dict field cannot be hashed, as a frozen dataclass cannot
UNHASHABLE = {"CohoRing", "ManifoldData"}


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
class TestValueRecords:
    def test_equal_values_are_equal_and_hash_equal(self, name):
        make = VALUE_RECORDS[name][0]
        a, b = make(), make()
        assert type(a).__name__ == name
        assert a == b and not a != b and a == a
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_repr(self, name):
        make, text, _ = VALUE_RECORDS[name]
        assert repr(make()) == text

    def test_assignment_refused(self, name):
        make, _, field = VALUE_RECORDS[name]
        record = make()
        before = getattr(record, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert getattr(record, field) is before

    def test_other_types_are_unequal(self, name):
        record = VALUE_RECORDS[name][0]()
        assert record != object() and record != None  # noqa: E711


class TestValueSemantics:
    def test_hash_is_the_field_tuple_hash(self):
        assert hash(Signature(2, 1)) == hash((2, 1))
        assert hash(KappaImage(1)) == hash((1, None))
        assert hash(CohoClass(2, (0, 1))) == hash((2, (0, 1)))
        assert hash(_point()) == hash(((F(3, 5), F(4, 5)),))

    def test_fields_decide_equality(self):
        assert Signature(2, 1) != Signature(1, 2)
        assert KappaImage(1) != KappaImage(1, ONE)
        assert CohoClass(1, (1,)) != CohoClass(2, (1,))
        assert Signature(2, 1) != (2, 1)

    def test_keywords_and_defaults(self):
        assert Signature(k=2, l=1) == Signature(2, 1)
        assert KappaImage(1).scale is None and KappaImage(sign=1, scale=None) == KappaImage(1)
        bundle = BundleData(name="T", rank=2, w1=CohoClass(1, (0,)), w2=CohoClass(2, (0,)))
        assert bundle.oriented is False
        assert CohoRing((), (), ()).cup == {}
        s1 = _s1()
        assert ManifoldData(s1.name, s1.dim, s1.ring, s1.tangent, s1.liftable2) == s1
        assert ManifoldData(s1.name, s1.dim, s1.ring, s1.tangent, s1.liftable2).bundles == ()

    def test_normalised_fields(self):
        # CohoClass reduces its coordinates mod 2; CohoRing completes the cup table
        assert CohoClass(1, (3, 2)).coords == (1, 0)
        ring = CohoRing(("a", "b"), ("c",), ((1,), (0,)), {(0, 1): (1,)})
        assert ring.cup == {(0, 1): (1,), (1, 0): (1,), (0, 0): (1,), (1, 1): (0,)}

    @pytest.mark.parametrize("make", [
        lambda: Signature(0, 0),
        lambda: Signature(-1, 2),
        lambda: RationalSpherePoint((F(1), F(1))),
        lambda: TangentPair(_point(), (F(1),)),
        lambda: TangentPair(_point(), (F(1), F(1))),
        lambda: OrthMatrix(Signature(1, 1), ExactMatrix.identity(3)),
        lambda: OrthMatrix(Signature(1, 1), ExactMatrix([[ONE, ONE], [ONE, ONE]])),
        lambda: CohoClass(3, ()),
        lambda: CohoRing(("a",), (), ()),
        lambda: CohoRing(("a",), ("b",), ((1, 0),)),
        lambda: CohoRing(("a", "b"), ("c",), ((0,), (0,)), {(0, 1): (1,), (1, 0): (0,)}),
        lambda: CohoRing(("a",), ("c",), ((1,),), {(0, 0): (0,)}),
        lambda: BundleData("T", 0, CohoClass(1, ()), CohoClass(2, ())),
        lambda: ManifoldData("x", 1, _s1().ring, _s1().tangent, (), (
            BundleData("E", 2, CohoClass(1, (1,)), CohoClass(2, ()), oriented=True),)),
        lambda: ManifoldData("x", 2, _s1().ring, _s1().tangent, ()),
        lambda: ManifoldData("x", 1, _s1().ring, _s1().tangent, ((1,),)),
    ])
    def test_validation_kept(self, make):
        with pytest.raises(ValueError):
            make()


class TestIdentityRecords:
    def test_representation(self):
        a = build_rep(Signature(1, 0), "pauli")
        b = Representation(a.sig, a.kind, a.images, a.dim)
        assert a == a and a != b and hash(a) == object.__hash__(a)
        assert repr(b) == "Representation(sig=Signature(k=1, l=0), kind='pauli', images=([1],), dim=1)"
        b.kind = "other"  # mutable, as the dataclass was
        assert b.kind == "other"

    def test_spin_space(self):
        ss = spin_space(Signature(1, 0))
        twin = SpinSpace(ss.sig, ss.rep, ss.frame, ss.eta, ss.iota, ss.gamma)
        assert ss == ss and ss != twin and hash(twin) == object.__hash__(twin)
        assert repr(ss) == (
            "SpinSpace(sig=Signature(k=1, l=0), rep=Representation(sig=Signature(k=1, l=0), "
            "kind='cartan', images=([ 1   0]\n[ 0  -1],), dim=2), frame=([ 1   0]\n[ 0  -1],), "
            "eta=[ 1   0]\n[ 0  -1], iota=ExactScalar(1), gamma=[ 0  -1]\n[ 1   0])"
        )
        assert twin.gamma_inv == ss.gamma.inverse()  # the lazy inverse is stored on the record

    def test_exterior_element_compares_by_value_and_is_unhashable(self):
        a = ExteriorElement(2, {1: ONE})
        assert a == ExteriorElement(2, {1: ONE, 2: sc(0)}) and a != ExteriorElement(2, {2: ONE})
        assert ExteriorElement.__hash__ is None
        assert repr(a) == "ExteriorElement(m=2, terms={1: ExactScalar(1)})"
        a.m = 3
        assert a.m == 3

    def test_caches_keyed_by_signature_hit(self):
        assert frame_group(Signature(2, 1)) is frame_group(Signature(2, 1))
        assert spin_space(Signature(2, 1)) is spin_space(Signature(2, 1))
