import random
import re

import pytest

from gaugedecomp import (
    AbelianGroup,
    GroupElement,
    Sphere,
    TRIVIAL_GROUP,
    Z,
    cardinality,
    cyclic,
    direct_sum,
)
from gaugedecomp.tables import table_from_data


class TestGroupConstruction:

    def test_chain_validated(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, (4, 6))
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            AbelianGroup(-1, ())

    def test_from_orders_normalizes(self):
        assert AbelianGroup.from_orders(0, (4, 6)) == AbelianGroup(0, (2, 12))
        assert AbelianGroup.from_orders(0, (0, 3)) == AbelianGroup(1, (3,))
        assert AbelianGroup.from_orders(2, (1, 1)) == AbelianGroup(2, ())

    @pytest.mark.parametrize("make", [
        lambda: AbelianGroup(0, (12.0,)),
        lambda: AbelianGroup(1.0, ()),
        lambda: AbelianGroup("1", ()),
        lambda: AbelianGroup(0, ("12",)),
    ])
    def test_non_integers_raise_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    def test_bools_read_as_zero_or_one(self):
        g = AbelianGroup(True, [2])
        assert g == AbelianGroup(1, (2,)) and str(g) == "Z (+) Z/2"
        assert type(g.free_rank) is int and type(g.torsion) is tuple

    def test_rendering(self):
        assert str(TRIVIAL_GROUP) == "0"
        assert str(Z) == "Z"
        assert str(AbelianGroup(2, (2, 12))) == "Z^2 (+) Z/2 (+) Z/12"
        assert str(cyclic(12)) == "Z/12"


class TestDirectSum:

    def test_examples(self):
        assert direct_sum([Z, Z]) == AbelianGroup(2, ())
        assert direct_sum([cyclic(2), cyclic(2), Z]) == AbelianGroup(1, (2, 2))
        assert direct_sum([cyclic(4), cyclic(6)]) == AbelianGroup(0, (2, 12))

    def test_empty_sum_is_trivial(self):
        assert direct_sum([]) == TRIVIAL_GROUP

    def test_associative_commutative(self):
        rng = random.Random(11)
        pool = [Z, cyclic(2), cyclic(4), cyclic(6), cyclic(9), cyclic(12),
                AbelianGroup(1, (3,))]
        for _ in range(100):
            a, b, c = (rng.choice(pool) for _ in range(3))
            left = direct_sum([direct_sum([a, b]), c])
            right = direct_sum([a, direct_sum([b, c])])
            assert left == right
            shuffled = direct_sum([c, a, b])
            assert shuffled == left


class TestElements:

    def test_coefficients_reduced(self):
        g = AbelianGroup(1, (4,))
        x = GroupElement(g, (-2, 9))
        assert x.coeffs == (-2, 1)

    def test_length_checked(self):
        with pytest.raises(ValueError):
            GroupElement(cyclic(4), (1, 2))

    @pytest.mark.parametrize("coeffs", [(1.5,), ("1",)])
    def test_non_integer_coefficients_raise_type_error(self, coeffs):
        with pytest.raises(TypeError):
            GroupElement(AbelianGroup(1), coeffs)

    def test_bool_coefficients_read_as_zero_or_one(self):
        x = GroupElement(AbelianGroup(1, (4,)), [True, 5])
        assert x.coeffs == (1, 1) and all(type(c) is int for c in x.coeffs)

    def test_arithmetic(self):
        g = AbelianGroup(1, (5,))
        x = GroupElement(g, (2, 3))
        y = GroupElement(g, (1, 4))
        assert (x + y).coeffs == (3, 2)
        assert (3 * x).coeffs == (6, 4)

    def test_cross_group_addition_rejected(self):
        with pytest.raises(ValueError):
            GroupElement(cyclic(4), (1,)) + GroupElement(cyclic(8), (1,))


class TestCardinality:

    def test_examples(self):
        assert cardinality(cyclic(12)) == 12
        assert cardinality(TRIVIAL_GROUP) == 1
        assert cardinality(AbelianGroup(0, (2, 2))) == 4
        assert cardinality(Z) == 0


class TestFromDict:
    """Group data ``{"free": rank, "torsion": [orders]}``, read as a table file reads it."""

    @staticmethod
    def read(group):
        entry = {"space": {"sphere": 9}, "degree": 9, "group": group, "citation": "test"}
        return table_from_data([entry]).lookup_pi(Sphere(9), 9)

    def test_int_data(self):
        assert self.read({"free": 1, "torsion": [6, 4]}) == AbelianGroup(1, (2, 12))

    @pytest.mark.parametrize(
        "data, bad",
        [
            ({"free": 0, "torsion": [4.5, 2.9]}, "4.5"),
            ({"free": 1.7, "torsion": []}, "1.7"),
            ({"free": 0, "torsion": [True]}, "True"),
            ({"free": False}, "False"),
            ({"free": 0, "torsion": ["12"]}, "'12'"),
        ],
    )
    def test_non_int_data_is_rejected_by_value(self, data, bad):
        field = r"entries\[0\]\.group\.(free|torsion\[\d\])"
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {re.escape(bad)}$"):
            self.read(data)
