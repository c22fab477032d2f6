import json
import random

import pytest

from gaugedecomp import (
    E6,
    E7,
    E8,
    F4,
    G2,
    AbelianGroup,
    ConnectedSumSpec,
    HomotopyTable,
    LieGroup,
    MissingTableError,
    Sp,
    Sphere,
    Spin,
    SU,
    TRIVIAL_GROUP,
    Z,
    canonical_space,
    cyclic,
    default_table,
    gauge_decomposition,
    is_simply_connected_simple_compact,
    load_tables,
    pi6_order,
    stable_condition,
)
from gaugedecomp.tables import GeneratorImage, space_from_dict, space_to_dict, table_from_data
from oracles import rational_degrees

CORE = default_table()


def stable_pi_rule(space, n, q, degree):
    """Stable-range values: Z in degree n-1, trivial in degrees q-1 and n+q-1."""
    if stable_condition(space, n, q) is None or degree not in (q - 1, n - 1, n + q - 1):
        raise ValueError(f"no stable value for pi_{degree}({space}) at (n, q)=({n}, {q})")
    return Z if degree == n - 1 else TRIVIAL_GROUP


class TestSpaceIds:

    def test_validation(self):
        with pytest.raises(ValueError):
            Sphere(0)
        with pytest.raises(ValueError):
            SU(1)
        with pytest.raises(ValueError):
            Spin(2)
        with pytest.raises(ValueError):
            LieGroup("G2", 3)
        with pytest.raises(ValueError):
            LieGroup("SO", 3)

    def test_canonical_folding(self):
        assert canonical_space(Sp(1)) == SU(2)
        assert canonical_space(Spin(3)) == SU(2)
        assert canonical_space(Spin(5)) == Sp(2)
        assert canonical_space(Spin(6)) == SU(4)
        assert canonical_space(Spin(7)) == Spin(7)
        assert canonical_space(Sphere(3)) == Sphere(3)

    def test_folding_and_pi6_construct_no_groups(self, monkeypatch):
        spaces = [Sp(1), Spin(3), Spin(4), Spin(5), Spin(6), Spin(7), SU(3), G2, Sphere(3)]
        groups = [g for g in spaces if is_simply_connected_simple_compact(g)]
        spec = ConnectedSumSpec(4, 3, (1, 0))
        su2 = SU(2)
        built = []
        init = LieGroup.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LieGroup, "__init__", counting_init)
        for space in spaces:
            canonical_space(space)
        for g in groups:
            pi6_order(g, CORE)
        gauge_decomposition(su2, spec, (5, 7), CORE)
        assert built == []

    def test_simplicity(self):
        assert is_simply_connected_simple_compact(SU(2))
        assert is_simply_connected_simple_compact(E8)
        assert not is_simply_connected_simple_compact(Spin(4))
        assert not is_simply_connected_simple_compact(Sphere(4))

    def test_json_roundtrip(self):
        for space in (Sphere(3), SU(2), G2, Spin(7)):
            assert space_from_dict(space_to_dict(space)) == space


class TestLookups:

    def test_sphere_values(self):
        assert CORE.lookup_pi(Sphere(3), 6) == cyclic(12)
        assert CORE.lookup_pi(Sphere(3), 3) == Z
        assert CORE.lookup_pi(Sphere(5), 6) == cyclic(2)
        assert CORE.lookup_pi(Sphere(4), 7) == AbelianGroup(1, (12,))

    def test_table_one_values(self):
        assert CORE.lookup_pi(SU(2), 6) == cyclic(12)
        assert CORE.lookup_pi(SU(3), 6) == cyclic(6)
        assert CORE.lookup_pi(G2, 6) == cyclic(3)

    def test_absent_is_unknown(self):
        assert CORE.lookup_pi(Sphere(3), 40) is None
        assert CORE.lookup_pi(SU(8), 19) is None

    def test_absent_keys_never_default(self):
        rng = random.Random(13)
        table = default_table()
        for _ in range(300):
            if rng.random() < 0.5:
                space = Sphere(rng.randint(8, 40))
            else:
                space = SU(rng.randint(9, 40))
            degree = rng.randint(0, 60)
            assert table.lookup_pi(space, degree) is None

    def test_every_entry_cites(self):
        for entry in default_table().entries():
            assert entry.citation.strip()

    def test_low_rank_isomorphism_lookup(self):
        assert CORE.lookup_pi(Sp(1), 6) == cyclic(12)
        assert CORE.lookup_pi(Spin(5), 4) == cyclic(2)
        assert CORE.lookup_pi(Spin(6), 4) == AbelianGroup(0, ())


@pytest.mark.parametrize(
    "lookup, args",
    [
        ("entry", (Sphere(3), 40)),
        ("lookup_pi", (Sphere(3), 40)),
        ("connecting_order", (SU(3), 6)),
        ("connecting_citation", (SU(3), 6)),
        ("attaching_image", (6, 5)),
        ("suspended_image", (6, 5)),
    ],
)
def test_every_lookup_marks_an_absent_key_with_none(lookup, args):
    assert getattr(CORE, lookup)(*args) is None


class TestPi6Order:

    def test_table_one(self):
        assert pi6_order(SU(2)) == 12
        assert pi6_order(SU(3)) == 6
        assert pi6_order(G2) == 3

    def test_everything_else_is_one(self):
        for g in (SU(4), SU(7), Sp(2), Sp(9), Spin(7), Spin(11), E8):
            assert pi6_order(g) == 1

    def test_low_rank_isomorphisms(self):
        assert pi6_order(Sp(1)) == 12
        assert pi6_order(Spin(3)) == 12

    def test_rejects_non_lie(self):
        with pytest.raises(ValueError):
            pi6_order(Sphere(3))
        with pytest.raises(ValueError):
            pi6_order(Spin(4))


class TestConnectingOrders:

    def test_su2_over_s4(self):
        assert CORE.connecting_order(SU(2), 4) == 12
        assert CORE.connecting_order(Sp(1), 4) == 12

    def test_absent(self):
        assert CORE.connecting_order(SU(3), 6) is None

    def test_user_override(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({
            "connecting_orders": [
                {"lie": {"family": "SU", "rank": 3}, "n": 6, "order": 60,
                 "citation": "user supplied"}
            ]
        }))
        table = load_tables([path])
        assert table.connecting_order(SU(3), 6) == 60
        assert table.connecting_order(SU(2), 4) == 12  # core still present

    def test_user_entry_overrides_core(self, tmp_path):
        path = tmp_path / "override.json"
        path.write_text(json.dumps({
            "entries": [
                {"space": {"lie": {"family": "SU", "rank": 3}}, "degree": 6,
                 "group": {"free": 0, "torsion": [6, 6]},
                 "citation": "user supplied"}
            ]
        }))
        table = load_tables([path])
        assert table.lookup_pi(SU(3), 6) == AbelianGroup(0, (6, 6))


class TestLoading:

    def test_duplicate_entry_rejected(self):
        data = {"entries": [
            {"space": {"sphere": 3}, "degree": 6,
             "group": {"free": 0, "torsion": [12]}, "citation": "a"},
            {"space": {"sphere": 3}, "degree": 6,
             "group": {"free": 0, "torsion": [12]}, "citation": "b"},
        ]}
        with pytest.raises(ValueError):
            table_from_data(data)

    def test_bare_array_is_entries(self):
        table = table_from_data([
            {"space": {"sphere": 9}, "degree": 9,
             "group": {"free": 1, "torsion": []}, "citation": "degree"}
        ])
        assert table.lookup_pi(Sphere(9), 9) == Z


class TestStableRule:

    def test_condition_detection(self):
        assert stable_condition(SU(5), 6, 3) == "SU"
        assert stable_condition(Sp(3), 4, 3) == "Sp"
        assert stable_condition(SU(2), 6, 3) is None
        assert stable_condition(SU(5), 6, 4) is None

    def test_values(self):
        assert stable_pi_rule(SU(5), 6, 3, 5) == Z
        assert stable_pi_rule(SU(5), 6, 3, 2) == AbelianGroup(0, ())
        assert stable_pi_rule(SU(5), 6, 3, 8) == AbelianGroup(0, ())
        assert stable_pi_rule(Sp(3), 4, 3, 3) == Z

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            stable_pi_rule(SU(2), 6, 3, 5)
        with pytest.raises(ValueError):
            stable_pi_rule(SU(5), 6, 3, 4)

    def test_agrees_with_shipped_entries(self):
        cases = [
            (SU(5), 6, 3), (SU(6), 6, 3), (SU(4), 4, 3), (Sp(2), 4, 3),
            (Sp(3), 4, 3), (SU(6), 6, 5), (SU(8), 8, 3),
        ]
        for group, n, q in cases:
            if stable_condition(group, n, q) is None:
                continue
            for degree in (q - 1, n - 1, n + q - 1):
                shipped = CORE.lookup_pi(group, degree)
                if shipped is None:
                    continue
                assert stable_pi_rule(group, n, q, degree) == shipped


def test_stable_rule_sweep_against_all_shipped_entries():
    table = default_table()
    groups = sorted(
        {e.space for e in table.entries() if not isinstance(e.space, Sphere)},
        key=str,
    )
    checked = 0
    for group in groups:
        for n in (4, 6, 8, 10, 12):
            for q in (3, 5, 7):
                if stable_condition(group, n, q) is None:
                    continue
                for degree in (q - 1, n - 1, n + q - 1):
                    shipped = table.lookup_pi(group, degree)
                    if shipped is None:
                        continue
                    assert stable_pi_rule(group, n, q, degree) == shipped, (
                        group, n, q, degree,
                    )
                    checked += 1
    assert checked > 20


def test_connecting_order_must_be_positive():
    with pytest.raises(ValueError):
        table_from_data({
            "connecting_orders": [
                {"lie": {"family": "SU", "rank": 2}, "n": 4, "order": 0,
                 "citation": "bad"}
            ]
        })


@pytest.mark.parametrize("coeffs", [(1.5,), (12.0,), ("1",)])
def test_generator_image_refuses_non_integer_coefficients(coeffs):
    with pytest.raises(TypeError):
        GeneratorImage(AbelianGroup(0, (12,)), coeffs, "x")


def test_generator_image_stores_exact_integer_coefficients():
    image = GeneratorImage(AbelianGroup(1, (12,)), [True, 13], "x")
    assert image.coeffs == (1, 13)
    assert type(image.coeffs) is tuple and all(type(c) is int for c in image.coeffs)


@pytest.mark.parametrize(
    "group, rank, dim",
    [(SU(m), m - 1, m * m - 1) for m in (2, 3, 8)]
    + [(Sp(m), m, m * (2 * m + 1)) for m in (1, 2, 4)]
    + [(Spin(m), m // 2, m * (m - 1) // 2) for m in (3, 4, 7, 8, 10, 12)]
    + [(G2, 2, 14), (F4, 4, 52), (E6, 6, 78), (E7, 7, 133), (E8, 8, 248)],
)
def test_rational_degrees_count_the_rank_and_sum_to_the_dimension(group, rank, dim):
    # A compact Lie group is rationally a product of one odd sphere per
    # generator: as many as its rank, whose dimensions add up to its own.
    degrees = rational_degrees(group)
    assert len(degrees) == rank and sum(degrees) == dim


def test_every_core_entry_has_the_rational_free_rank():
    # Rational homotopy fixes each entry's free rank without the table:
    # Borel's generator degrees for the groups, Serre's rule for the spheres.
    entries = default_table().entries()
    assert {type(e.space) for e in entries} == {Sphere, LieGroup}
    for e in entries:
        assert e.group.free_rank == rational_degrees(e.space).count(e.degree), (str(e.space), e.degree)
