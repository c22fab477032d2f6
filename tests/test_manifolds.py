import json
import random
import re
from pathlib import Path

import pytest

from gaugedecomp import (
    ConnectedSumSpec,
    MissingTableError,
    MixedMatrix,
    Modulus,
    cofibre_space,
    gcd_mod,
    load_tables,
    row_echelon_mixed,
    suspension_rank,
    suspension_splitting,
)
from gaugedecomp.manifolds import _twist_column
from gaugedecomp.tables import default_table, table_from_data
from oracles import echelon_rank, elementary_orbit

DATA = Path(__file__).parent / "data"


class TestSpec:

    def test_validation(self):
        with pytest.raises(ValueError):
            ConnectedSumSpec(1, 3, (1,))
        with pytest.raises(ValueError):
            ConnectedSumSpec(4, 3, ())
        assert ConnectedSumSpec(4, 3, (1, 0)).r == 2

    def test_json_roundtrip(self):
        spec = ConnectedSumSpec.from_dict(json.loads('{"n":4,"q":3,"xi":[1,0]}'))
        assert spec == ConnectedSumSpec(4, 3, (1, 0))
        assert ConnectedSumSpec.from_dict({"n": 4, "q": 3, "xi": [1, 0]}) == spec

    @pytest.mark.parametrize("data, bad", [
        ({"n": 4.9, "q": 3, "xi": [1]}, "4.9"),
        ({"n": 4, "q": True, "xi": [1]}, "True"),
        ({"n": "4", "q": 3, "xi": [1]}, "'4'"),
        ({"n": 4, "q": 3, "xi": [1.5, True]}, "1.5"),
        ({"n": 4, "q": 3, "xi": [1, True]}, "True"),
        ({"n": 4, "q": 3, "xi": [12.7, "3"]}, "12.7"),
        ({"n": 4, "q": 3, "xi": [1, "3"]}, "'3'"),
    ])
    def test_from_dict_rejects_non_integers(self, data, bad):
        field = r"spec\.(n|q|xi\[\d\])"
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {re.escape(bad)}$"):
            ConnectedSumSpec.from_dict(data)

    def test_constructor_still_coerces(self):
        assert ConnectedSumSpec(4, 3, (1, False)).xi == (1, 0)

    @pytest.mark.parametrize("n, q, xi", [
        (4, 3, (1.5, 0)),  # truncated, this would be the coprime twist (1, 0)
        (4.0, 3, (1,)),
        (4, 3, ("7",)),
    ])
    def test_constructor_refuses_floats_and_strings(self, n, q, xi):
        with pytest.raises(TypeError):
            ConnectedSumSpec(n, q, xi)


def core_column(xi):
    return _twist_column(ConnectedSumSpec(4, 3, xi), default_table().suspended_image(4, 3))


class TestTwistingMatrix:
    # On the core table the image is 1 in Z/12, so the twist column is the
    # whole twist matrix.

    def test_unit_twist(self):
        nf = core_column((1, 0))
        assert nf.to_lists() == [[1], [0]]
        assert nf.column_moduli == (Modulus(12),)

    def test_zero_twists(self):
        nf = core_column((0, 0, 0))
        assert nf.to_lists() == [[0], [0], [0]]

    def test_mod_twelve_reduction(self):
        assert core_column((2, 3)).to_lists() == [[2], [3]]
        assert core_column((14, -1)).to_lists() == [[2], [11]]

    def test_missing_data_names_key(self):
        with pytest.raises(MissingTableError) as err:
            suspension_rank(ConnectedSumSpec(6, 5, (1, 2)))
        assert "pi_11(S^6)" in str(err.value)


class TestSuspensionRank:

    def test_examples(self):
        assert suspension_rank(ConnectedSumSpec(4, 3, (1, 0))) == 1
        assert suspension_rank(ConnectedSumSpec(4, 3, (12, 24))) == 0
        assert suspension_rank(ConnectedSumSpec(4, 3, (2, 3))) == 1

    def test_rank_via_elementary_oracle(self):
        # (2, 3) over Z/12 reduces to (1, 0) by elementary operations.
        assert (1, 0) in elementary_orbit(12, (2, 3))

    def test_zero_iff_all_divisible(self):
        for a in range(0, 24, 3):
            for b in range(0, 24, 4):
                spec = ConnectedSumSpec(4, 3, (a, b))
                expected = a % 12 == 0 and b % 12 == 0
                assert (suspension_rank(spec) == 0) == expected

    def test_invariances(self):
        rng = random.Random(21)
        for _ in range(100):
            r = rng.randint(2, 5)
            xi = tuple(rng.randint(-30, 30) for _ in range(r))
            spec = ConnectedSumSpec(4, 3, xi)
            base = suspension_rank(spec)
            shuffled = list(xi)
            rng.shuffle(shuffled)
            assert suspension_rank(ConnectedSumSpec(4, 3, tuple(shuffled))) == base
            bumped = list(xi)
            i = rng.randrange(r)
            bumped[i] += 12 * rng.randint(-3, 3)
            assert suspension_rank(ConnectedSumSpec(4, 3, tuple(bumped))) == base

    def test_zero_twists_need_no_tables(self):
        assert suspension_rank(ConnectedSumSpec(6, 5, (0, 0))) == 0


class TestCofibre:

    def test_coprime_twist_gives_unit(self):
        for xi in ((1, 0), (5, 7), (2, 3)):
            desc = cofibre_space(ConnectedSumSpec(4, 3, xi))
            assert desc.resolved
            assert desc.sphere_count == 1
            assert gcd_mod(Modulus(12), xi) == 1
            assert desc.attaching[0].coeffs == (1,)

    def test_noncoprime_pivot_is_gcd(self):
        desc = cofibre_space(ConnectedSumSpec(4, 3, (2, 6)))
        assert desc.attaching[0].coeffs == (2,)

    def test_degenerate_is_sphere(self):
        desc = cofibre_space(ConnectedSumSpec(4, 3, (0, 0)))
        assert desc.is_sphere
        assert desc.label() == "S^7"
        assert desc.label(suspended=True) == "S^8"
        assert desc.resolved

    def test_unresolved_without_attaching_image(self):
        # Rank data alone fixes the sphere count; the attaching images
        # stay unresolved instead of defaulting.
        table = table_from_data({"suspended_attaching_images": [
            {"n": 6, "q": 5, "target": {"free": 0, "torsion": [2]},
             "coeffs": [1], "citation": "test"}
        ]})
        desc = cofibre_space(ConnectedSumSpec(6, 5, (1, 2)), table)
        assert (desc.sphere_count, desc.attaching, desc.resolved) == (1, (), False)

    def test_suspended_order_must_divide_unsuspended_order(self):
        # c = 1 in Z/4 cannot be the suspension of c' = 1 in Z/2, so the
        # table is refused when it is loaded, naming the file once, (n, q)
        # and both orders, before any query could attach a sphere by 0 in Z/2.
        path = DATA / "table_bad_suspension.json"
        with pytest.raises(ValueError) as refused:
            load_tables([path])
        assert str(refused.value) == (
            f"table file {path}: (n, q)=(6, 5): the suspended image has order 4, "
            "which does not divide the order 2 of the unsuspended image"
        )

    @pytest.mark.parametrize("unsuspended, suspended, ok", [
        ({"torsion": [2]}, {"free": 1}, False),  # infinite does not divide 2
        ({"free": 1}, {"torsion": [4]}, True),  # every order divides infinite
        ({"free": 1}, {"free": 1}, True),
        ({"torsion": [12]}, {"torsion": [4]}, True),
        ({"torsion": [2]}, {"torsion": []}, True),  # c = 0 is never hit
    ])
    def test_order_check_reads_zero_as_infinite(self, unsuspended, suspended, ok):
        def image(target):
            coeffs = [1] * (target.get("free", 0) + len(target.get("torsion", [])))
            return {"n": 6, "q": 5, "target": target, "coeffs": coeffs, "citation": "test"}

        data = {
            "attaching_images": [image(unsuspended)],
            "suspended_attaching_images": [image(suspended)],
        }
        if ok:
            assert cofibre_space(ConnectedSumSpec(6, 5, (1, 2)), table_from_data(data)).resolved
        else:
            with pytest.raises(ValueError, match="order infinite, which does not divide the order 2 "):
                table_from_data(data)

    def test_reads_each_image_once(self, image_reads):
        cofibre_space(ConnectedSumSpec(4, 3, (1, 0)))
        assert image_reads == {"suspended_image": 1, "attaching_image": 1}


class TestSplitting:

    def test_two_summands(self):
        s = suspension_splitting(ConnectedSumSpec(4, 3, (1, 0)))
        assert str(s) == "S^5 v S^5 v S^4 v Sigma Y_F"

    def test_single_untwisted_summand(self):
        s = suspension_splitting(ConnectedSumSpec(4, 3, (0,)))
        assert str(s) == "S^5 v S^4 v S^8"

    def test_three_unit_summands(self):
        s = suspension_splitting(ConnectedSumSpec(4, 3, (1, 1, 1)))
        assert str(s) == "S^5 v S^5 v S^5 v S^4 v S^4 v Sigma Y_F"

    @pytest.mark.parametrize("spec, expected", [
        (ConnectedSumSpec(3, 5, (0, 0)), "S^6 v S^6 v S^4 v S^4 v S^9"),
        (ConnectedSumSpec(3, 3, (0, 0)), "S^4 v S^4 v S^4 v S^4 v S^7"),
    ])
    def test_zero_twists_sort_and_merge_spheres_without_a_table(self, spec, expected):
        # With n <= q, which no corpus entry has, the q + 1 spheres come
        # first or merge with the n + 1 ones.
        s = suspension_splitting(spec, table_from_data({}))
        assert str(s) == expected


def twist_matrix(spec, image):
    """The r x k twist matrix, row i the image xi_i * c over the target's
    column moduli, built here so that the check reads no package column."""
    target = image.target
    moduli = [Modulus(0)] * target.free_rank + [Modulus(s) for s in target.torsion]
    return MixedMatrix.from_rows(moduli, [[v * c for c in image.coeffs] for v in spec.xi])


def test_rank_bounded_by_summands_and_generators():
    # On the one-column core target the echelon rank of the whole twist
    # matrix is the suspension rank.
    image = default_table().suspended_image(4, 3)
    rng = random.Random(22)
    for _ in range(100):
        r = rng.randint(1, 6)
        xi = tuple(rng.randint(-40, 40) for _ in range(r))
        spec = ConnectedSumSpec(4, 3, xi)
        rank = suspension_rank(spec)
        assert 0 <= rank <= min(r, 1)
        nf = twist_matrix(spec, image)
        assert rank <= nf.cols
        _, reduced = row_echelon_mixed(nf)
        assert rank == min(r, echelon_rank(reduced))
