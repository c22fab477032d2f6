"""Value semantics shared by every immutable record class of the package.

Each case gives one instance by keyword fields, in declaration order and
already canonical, so the expected repr can be spelled from the fields.
"""

import copy
import pickle

import pytest

from gaugedecomp import (
    AbelianGroup,
    BundleClassification,
    BundleFormula,
    ClassificationCase,
    CofibreDescriptor,
    ConnectedSumSpec,
    EquivalenceVerdict,
    GroupElement,
    IntMatrix,
    LieGroup,
    LoopSpace,
    MapStar,
    MixedMatrix,
    Modulus,
    OrbitCertificate,
    ProductExpr,
    Residue,
    SphereGauge,
    Sphere,
    SymbolicSum,
    TableEntry,
    WedgeSplitting,
    orbit_reduce,
)
from gaugedecomp.tables import GeneratorImage

Z12 = AbelianGroup(0, (12,))
UNIT = GroupElement(Z12, (1,))
SU2 = LieGroup("SU", 2)
CASE = ClassificationCase("SU_stable", "")
COFIBRE = CofibreDescriptor(1, 3, 7, (UNIT,), True)
CERT = orbit_reduce(Modulus(12), (6, 4))

CASES = [
    (Modulus, {"m": 12}),
    (Residue, {"modulus": Modulus(12), "value": 5}),
    (AbelianGroup, {"free_rank": 1, "torsion": (2, 4)}),
    (GroupElement, {"group": Z12, "coeffs": (5,)}),
    (Sphere, {"dim": 3}),
    (LieGroup, {"family": "Sp", "rank": 2}),
    (TableEntry, {"space": Sphere(3), "degree": 6, "group": Z12, "citation": "Toda"}),
    (GeneratorImage, {"target": Z12, "coeffs": (1,), "citation": "Toda"}),
    (IntMatrix, {"rows": 2, "cols": 2, "entries": (1, 2, 3, 4)}),
    (MixedMatrix, {"rows": 1, "column_moduli": (Modulus(0), Modulus(12)), "entries": (7, 5)}),
    (OrbitCertificate, {"modulus": CERT.modulus, "transform": CERT.transform,
                        "canonical": CERT.canonical}),
    (ConnectedSumSpec, {"n": 4, "q": 3, "xi": (1, 0)}),
    (CofibreDescriptor, {"sphere_count": 1, "wedge_dim": 3, "cell_dim": 7,
                         "attaching": (UNIT,), "resolved": True}),
    (WedgeSplitting, {"spheres": ((5, 2), (4, 1)), "cofibre": COFIBRE}),
    (ClassificationCase, {"kind": "Unsupported", "reason": "why"}),
    (BundleFormula, {"terms": ((AbelianGroup(1, ()), 2),), "residual": "[Y_F, BG]"}),
    (BundleClassification, {"case": CASE, "free_rank": 2, "formula": None, "note": "n"}),
    (SphereGauge, {"group": SU2, "base_dim": 4, "level": 1}),
    (LoopSpace, {"space": SU2, "degree": 4}),
    (MapStar, {"cofibre": COFIBRE, "group": SU2}),
    (ProductExpr, {"factors": ((LoopSpace(SU2, 3), 1),)}),
    (EquivalenceVerdict, {"verdict": "Equivalent", "reason": "why"}),
    (SymbolicSum, {"known": Z12, "symbolic": ("pi_0(Map*(Y_F, SU(2)))",)}),
]
IDS = [cls.__name__ for cls, _ in CASES]


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
class TestRecordSemantics:

    def test_keyword_and_positional_construction_agree(self, cls, fields):
        obj = cls(**fields)
        assert cls(*fields.values()) == obj
        for name, value in fields.items():
            assert getattr(obj, name) == value

    def test_assignment_and_deletion_raise(self, cls, fields):
        obj = cls(**fields)
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(obj, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
        assert getattr(obj, name) == fields[name]

    def test_equal_fields_equal_objects_and_hashes(self, cls, fields):
        a, b = cls(**fields), cls(**fields)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_other_class_with_equal_fields_is_unequal(self, cls, fields):
        twin_cls = type("Twin", (cls,), {})
        obj, twin = cls(**fields), twin_cls(**fields)
        assert obj != twin and twin != obj
        assert obj.__eq__(twin) is NotImplemented

    def test_repr_in_dataclass_format(self, cls, fields):
        inner = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__qualname__}({inner})"

    def test_copies_and_pickle_round_trip(self, cls, fields):
        obj = cls(**fields)
        for other in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(other) is cls
            assert other == obj
            assert hash(other) == hash(obj)


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
class TestConstructorArguments:

    def test_one_positional_too_many(self, cls, fields):
        with pytest.raises(TypeError):
            cls(*fields.values(), None)

    def test_unknown_keyword(self, cls, fields):
        with pytest.raises(TypeError):
            cls(**fields, not_a_field=1)

    def test_field_given_by_position_and_keyword(self, cls, fields):
        name = next(iter(fields))
        with pytest.raises(TypeError):
            cls(*fields.values(), **{name: fields[name]})


# Every field of AbelianGroup has a default; every other class requires its first field.
@pytest.mark.parametrize("cls, fields", [c for c in CASES if c[0] is not AbelianGroup],
                         ids=[name for name in IDS if name != "AbelianGroup"])
def test_missing_field(cls, fields):
    with pytest.raises(TypeError):
        cls(**{name: fields[name] for name in list(fields)[1:]})


def test_shared_constructor_messages():
    with pytest.raises(TypeError, match="^LoopSpace has 2 fields, got 3 arguments$"):
        LoopSpace(SU2, 4, 5)
    with pytest.raises(TypeError, match="^LoopSpace is missing the field 'degree'$"):
        LoopSpace(SU2)
    with pytest.raises(TypeError, match="^LoopSpace has no field 'dim'$"):
        LoopSpace(SU2, 4, dim=4)
    with pytest.raises(TypeError, match="^LoopSpace got the field 'space' twice$"):
        LoopSpace(SU2, 4, space=SU2)
    assert LoopSpace(SU2, degree=4) == LoopSpace(degree=4, space=SU2) == LoopSpace(SU2, 4)


def test_cross_class_equal_fields_are_unequal():
    assert Sphere(3) != Modulus(3)
    assert ClassificationCase("a", "b") != EquivalenceVerdict("a", "b")


def test_literal_reprs():
    assert repr(Modulus(12)) == "Modulus(m=12)"
    assert repr(AbelianGroup(1, (2,))) == "AbelianGroup(free_rank=1, torsion=(2,))"


def test_keyword_defaults():
    assert AbelianGroup() == AbelianGroup(free_rank=0, torsion=())
    assert AbelianGroup(torsion=(2,)) == AbelianGroup(0, (2,))
    case = ClassificationCase("SU_stable")
    assert case.reason == ""
    assert case == ClassificationCase(kind="SU_stable", reason="")
    got = BundleClassification(case)
    assert (got.free_rank, got.formula, got.note) == (None, None, "")
    assert BundleClassification(case=case, note="x").note == "x"


def test_validation_still_runs_on_construction():
    with pytest.raises(ValueError, match="modulus must be non-negative, got -1"):
        Modulus(-1)
    with pytest.raises(ValueError, match="free rank must be non-negative"):
        AbelianGroup(-1, (4,))
    with pytest.raises(ValueError, match="divisibility chain, got 4 before 6"):
        AbelianGroup(0, (4, 6))
    with pytest.raises(ValueError, match="sphere dimensions must be >= 2"):
        ConnectedSumSpec(1, 3, ())
    assert Residue(Modulus(12), 17).value == 5
    assert ConnectedSumSpec(4, 3, [True, 2]).xi == (1, 2)
