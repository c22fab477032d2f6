import json
import math
import random
import tracemalloc
from pathlib import Path

import pytest

from gaugedecomp import manifolds
from gaugedecomp import (
    AbelianGroup,
    CofibreDescriptor,
    ConnectedSumSpec,
    E8,
    F4,
    G2,
    LoopSpace,
    MapStar,
    Modulus,
    ProductExpr,
    Sp,
    SphereGauge,
    Spin,
    SU,
    Sphere,
    classify_conditions,
    default_table,
    gauge_decomposition,
    gauge_equivalent,
    load_tables,
    pointed_gauge_decomposition,
    pointed_gauge_pi,
    same_orbit,
    suspension_splitting,
    wedge_gauge_decomposition,
)
from gaugedecomp.cli import main
from gaugedecomp.tables import load_table_file, table_from_data

SPEC = ConnectedSumSpec(4, 3, (1, 0))


def factor_map(expr):
    return dict(expr.factors)


class TestLevel:

    def test_gauge_level_canonicalizes(self):
        a = gauge_decomposition(SU(2), SPEC, (2, 6))
        b = gauge_decomposition(SU(2), SPEC, (14, 6))
        assert a == b
        assert str(a).startswith("G^2(S^4) x ")
        sym = gauge_decomposition(SU(5), ConnectedSumSpec(6, 3, (0, 0)), (4, 6))
        assert str(sym).startswith("G^gcd(o(d_1), 2)(S^6) x ")


class TestBuild:
    # Each decomposition lists its factors in formula order, and never two
    # equal ones (no bijective clause admits n <= q), so build only filters.

    def test_keeps_caller_order_and_drops_nonpositive_multiplicities(self):
        maps = MapStar(CofibreDescriptor(1, 3, 7, (), True), SU(2))
        pairs = [
            (maps, 1),
            (LoopSpace(SU(2), 3), 2),
            (SphereGauge(SU(2), 4, 12), 0),
            (LoopSpace(SU(2), 4), 1),
            (SphereGauge(SU(2), 4, 3), -1),
            (LoopSpace(SU(2), 3), 3),
        ]
        product = ProductExpr.build(pairs)
        assert product.factors == (
            (maps, 1),
            (LoopSpace(SU(2), 3), 2),
            (LoopSpace(SU(2), 4), 1),
            (LoopSpace(SU(2), 3), 3),
        )
        assert str(product) == "Map*(Y_F, SU(2)) x Omega^3 SU(2)^2 x Omega^4 SU(2) x Omega^3 SU(2)^3"
        assert ProductExpr.build([]).factors == () and str(ProductExpr.build([])) == "1"
        assert str(ProductExpr.build([(maps, 0)])) == "1"


class TestUnpointed:

    def test_su2_example(self):
        expr = gauge_decomposition(SU(2), SPEC, (5, 7))
        fm = factor_map(expr)
        gauge = [f for f in fm if isinstance(f, SphereGauge)]
        assert len(gauge) == 1 and gauge[0].level == 1
        assert gauge[0].base_dim == 4
        assert fm[LoopSpace(SU(2), 4)] == 1
        assert fm[LoopSpace(SU(2), 3)] == 1
        assert any(isinstance(f, MapStar) for f in fm)
        assert str(expr) == (
            "G^1(S^4) x Omega^4 SU(2) x Omega^3 SU(2) x Map*(Y_F, SU(2))"
        )

    def test_su5_symbolic_level(self):
        spec = ConnectedSumSpec(6, 3, (0, 0))
        expr = gauge_decomposition(SU(5), spec, (0, 0))
        fm = factor_map(expr)
        gauge = [f for f in fm if isinstance(f, SphereGauge)][0]
        assert gauge.level == "gcd(o(d_1), 0)"
        assert gauge.base_dim == 6
        assert fm[LoopSpace(SU(5), 6)] == 1
        assert fm[LoopSpace(SU(5), 3)] == 2  # rank 0 keeps both copies

    def test_canonical_equality(self):
        assert gauge_decomposition(SU(2), SPEC, (1, 0)) == gauge_decomposition(
            SU(2), SPEC, (0, 1)
        )

    def test_unsupported_raises(self):
        with pytest.raises(ValueError):
            gauge_decomposition(SU(2), ConnectedSumSpec(4, 3, (2, 2)), (1, 0))

    def test_k_length_checked(self):
        with pytest.raises(ValueError):
            gauge_decomposition(SU(2), SPEC, (1, 2, 3))

    @pytest.mark.parametrize("call", [
        lambda: wedge_gauge_decomposition(SU(2), 4, 2, (1, 2, 3)),
        lambda: pointed_gauge_decomposition(SU(2), SPEC, (1, 2, 3)),
        lambda: gauge_equivalent(SU(2), SPEC, (1, 2, 3), (1, 0)),
        lambda: gauge_equivalent(SU(2), SPEC, (1, 0), (1, 2, 3)),
    ], ids=["wedge", "pointed", "equivalent-first", "equivalent-second"])
    def test_every_length_check_shares_one_message(self, call):
        with pytest.raises(ValueError, match=r"^expected 2 classifying integers, got 3$"):
            call()

    def test_single_summand_degenerates(self):
        # One summand is a sphere bundle, not S^4: the general formula with
        # r = 1 and rank 1 keeps the residual Map* factor, which the pointed
        # gauge group (the fibre of evaluation) carries too.
        spec = ConnectedSumSpec(4, 3, (5,))
        expr = gauge_decomposition(SU(2), spec, (6,))
        assert str(expr) == "G^6(S^4) x Map*(Y_F, SU(2))"
        assert str(pointed_gauge_decomposition(SU(2), spec)) == (
            "Omega^4 SU(2) x Map*(Y_F, SU(2))"
        )

    def test_equality_iff_level_matches(self):
        exprs = {}
        for k1 in range(12):
            for k2 in range(12):
                exprs[(k1, k2)] = gauge_decomposition(SU(2), SPEC, (k1, k2))
        for ka, ea in exprs.items():
            for kb, eb in exprs.items():
                same_level = math.gcd(12, *ka) == math.gcd(12, *kb)
                assert (ea == eb) == same_level


class TestPointed:

    def test_su2_example(self):
        expr = pointed_gauge_decomposition(SU(2), SPEC)
        assert str(expr) == (
            "Omega^4 SU(2)^2 x Omega^3 SU(2) x Map*(Y_F, SU(2))"
        )

    def test_k_independent(self):
        assert pointed_gauge_decomposition(SU(2), SPEC, (5, 7)) \
            == pointed_gauge_decomposition(SU(2), SPEC, (0, 0))

    def test_sp2_condition(self):
        spec = ConnectedSumSpec(4, 3, (1, 0))
        expr = pointed_gauge_decomposition(Sp(2), spec)
        fm = factor_map(expr)
        assert fm[LoopSpace(Sp(2), 4)] == 2
        assert fm[LoopSpace(Sp(2), 3)] == 1


class TestWedge:

    def test_example(self):
        expr = wedge_gauge_decomposition(SU(2), 4, 3, (4, 6, 0))
        assert str(expr) == "G^2(S^4) x Omega^4 SU(2)^2"

    def test_single_sphere(self):
        expr = wedge_gauge_decomposition(SU(2), 4, 1, (5,))
        assert str(expr) == "G^1(S^4)"

    def test_unit_level(self):
        expr = wedge_gauge_decomposition(SU(2), 4, 2, (1, 9))
        assert str(expr).startswith("G^1(S^4)")


class TestDomainGate:

    GROUPS = (
        SU(2), SU(3), SU(4), SU(5), Sp(1), Sp(2), Sp(3), G2, F4, E8,
        Spin(4), Spin(7), Sphere(3),
    )
    DIMS = ((4, 3), (6, 3), (6, 5), (8, 3), (9, 5))
    TWISTS = ((0,), (1,), (2,), (5,), (6,), (0, 0), (1, 0), (2, 2), (3, 6), (2, 4, 6), (1, 0, 0))

    def test_every_entry_point_rejects_non_bijective_specs(self):
        rejected = set()
        for group in self.GROUPS:
            for n, q in self.DIMS:
                for xi in self.TWISTS:
                    spec = ConnectedSumSpec(n, q, xi)
                    if classify_conditions(group, spec).is_bijective:
                        continue
                    ks = (1,) * spec.r
                    calls = (
                        lambda: gauge_decomposition(group, spec, ks),
                        lambda: pointed_gauge_decomposition(group, spec),
                        lambda: gauge_equivalent(group, spec, ks, ks),
                        lambda: pointed_gauge_pi(group, spec, 0),
                    )
                    for call in calls:
                        with pytest.raises(ValueError):
                            call()
                    rejected.add(spec.r)
        assert rejected == {1, 2, 3}


class TestEquivalent:

    def test_iff_branch(self):
        assert gauge_equivalent(SU(2), SPEC, (5, 7), (1, 0)).verdict == "Equivalent"
        out = gauge_equivalent(SU(2), SPEC, (2, 6), (3, 9))
        assert out.verdict == "NotEquivalent"
        assert out.reason

    def test_unknown_branch(self):
        spec = ConnectedSumSpec(6, 3, (0, 0))
        assert gauge_equivalent(SU(5), spec, (2, 4), (3, 5)).verdict == "Unknown"
        assert gauge_equivalent(SU(5), spec, (2, 4), (4, 2)).verdict == "Equivalent"

    def test_not_equivalent_only_on_su2_branch(self):
        spec = ConnectedSumSpec(4, 3, (1, 0))
        rng = random.Random(61)
        for group in (SU(3), G2, Sp(2), Spin(7)):
            for _ in range(50):
                ks = tuple(rng.randint(-20, 20) for _ in range(2))
                ks2 = tuple(rng.randint(-20, 20) for _ in range(2))
                verdict = gauge_equivalent(group, spec, ks, ks2).verdict
                assert verdict in ("Equivalent", "Unknown")

    def test_su2_reason_credits_the_table(self):
        # A user table that supplies SU(2)'s order over S^4 is the one cited.
        table = table_from_data({"connecting_orders": [
            {"lie": {"family": "SU", "rank": 2}, "n": 4, "order": 12,
             "citation": "fixture"}
        ]}).merged_over(default_table())
        out = gauge_equivalent(SU(2), SPEC, (5, 7), (1, 0), table)
        assert out.verdict == "Equivalent"
        assert "has order 12 (fixture)" in out.reason
        core = gauge_equivalent(SU(2), SPEC, (5, 7), (1, 0)).reason
        assert "(Kono (1991), A note on the homotopy type of certain gauge groups)" in core

    def test_su2_presentations_share_branch(self):
        # Sp(1) and Spin(3) are SU(2); the iff branch applies to them too.
        spec = ConnectedSumSpec(4, 3, (1, 0))
        assert gauge_equivalent(Sp(1), spec, (2, 6), (3, 9)).verdict \
            == "NotEquivalent"

    def test_not_equivalent_comes_from_the_table_row(self):
        # The core's own data without its sphere_gauge_invariants row: the
        # levels still differ, but no fact tells the gauge groups apart.
        data = json.loads((Path(manifolds.__file__).parent / "data" / "core_tables.json").read_text())
        del data["sphere_gauge_invariants"]
        bare = table_from_data(data)
        assert gauge_equivalent(SU(2), SPEC, (2, 6), (3, 9)).verdict == "NotEquivalent"
        assert gauge_equivalent(SU(2), SPEC, (2, 6), (3, 9), bare).verdict == "Unknown"
        assert gauge_equivalent(SU(2), SPEC, (5, 7), (1, 0), bare) \
            == gauge_equivalent(SU(2), SPEC, (5, 7), (1, 0))

    def test_a_user_row_decides_for_its_group(self):
        su3 = {"family": "SU", "rank": 3}
        table = table_from_data({
            "connecting_orders": [{"lie": su3, "n": 4, "order": 24,
                                   "citation": "Hamanaka-Kono (2006)"}],
            "sphere_gauge_invariants": [{"lie": su3, "n": 4, "j": 2, "m": 6,
                                         "citation": "user row"}],
        }).merged_over(default_table())
        # gcd(6, K) = 2 and gcd(6, K') = 3.
        out = gauge_equivalent(SU(3), SPEC, (2, 4), (3, 9), table)
        assert out.verdict == "NotEquivalent"
        assert "pi_2(G^k(S^4)) = Z/gcd(6, k) (user row) is Z/2 at K and Z/3 at K'" in out.reason
        # gcd(24, K) = 2 and gcd(24, K') = 8 differ, but gcd(6, .) = 2 for both.
        out = gauge_equivalent(SU(3), SPEC, (2, 4), (8, 16), table)
        assert out.verdict == "Unknown"
        assert "gcd(24, K) = 2 != 8 = gcd(24, K')" in out.reason
        assert "has order 24 (Hamanaka-Kono (2006))" in out.reason
        # Without the user file, SU(3) has neither the order nor the row.
        assert gauge_equivalent(SU(3), SPEC, (2, 4), (3, 9)).verdict == "Unknown"

    def test_matches_orbit_invariant(self):
        rng = random.Random(62)
        for _ in range(500):
            ks = tuple(rng.randint(-40, 40) for _ in range(2))
            ks2 = tuple(rng.randint(-40, 40) for _ in range(2))
            verdict = gauge_equivalent(SU(2), SPEC, ks, ks2).verdict
            expected = same_orbit(Modulus(12), ks, ks2)
            assert (verdict == "Equivalent") == expected


class TestPointedPi:

    def test_su2_remark_row(self):
        out = pointed_gauge_pi(SU(2), SPEC, 0)
        assert out.is_resolved
        assert out.known == AbelianGroup(1, (2, 2))

    def test_su3_remark_row(self):
        out = pointed_gauge_pi(SU(3), SPEC, 0)
        assert out.is_resolved
        assert out.known == AbelianGroup(1, ())

    def test_remark_modulus_comes_from_the_attaching_target(self):
        # 13 is 1 mod |pi_6(S^3)| = 12, but not mod 24 in a table whose
        # (4, 3) attaching target is Z/24; an infinite target never
        # claims the remark shape.
        def with_target(target):
            return table_from_data({"attaching_images": [
                {"n": 4, "q": 3, "target": target, "coeffs": [1],
                 "citation": "test fixture"}
            ]}).merged_over(default_table())

        z24 = with_target({"free": 0, "torsion": [24]})
        spec = ConnectedSumSpec(4, 3, (13, 0))
        assert pointed_gauge_pi(SU(2), spec, 0).is_resolved
        assert not pointed_gauge_pi(SU(2), spec, 0, z24).is_resolved
        assert pointed_gauge_pi(SU(2), ConnectedSumSpec(4, 3, (25, 24)), 0, z24).is_resolved
        assert not pointed_gauge_pi(SU(2), SPEC, 0, with_target({"free": 1})).is_resolved

    def test_generic_twist_keeps_symbolic_term(self):
        out = pointed_gauge_pi(SU(2), ConnectedSumSpec(4, 3, (5, 7)), 0)
        assert not out.is_resolved
        assert out.known == AbelianGroup(1, (2, 2))
        assert out.symbolic == ("pi_0(Map*(Y_F, SU(2)))",)

    def test_degenerate_cofibre_resolves_through_tables(self):
        # All twists vanish mod 12, so the cofibre is S^7 and the residual
        # is pi_7(SU(4)) = Z; pi_4(SU(4)) = 0 and pi_3 contributes Z^2.
        out = pointed_gauge_pi(SU(4), ConnectedSumSpec(4, 3, (12, 12)), 0)
        assert out.is_resolved
        assert out.known == AbelianGroup(3, ())

    def test_k_independence_is_structural(self):
        # No classifying tuple enters the computation at all.
        out1 = pointed_gauge_pi(SU(2), SPEC, 1)
        out2 = pointed_gauge_pi(SU(2), SPEC, 1)
        assert out1 == out2

    def test_unknown_entries_stay_symbolic(self):
        out = pointed_gauge_pi(SU(2), SPEC, 5)
        assert "pi_9(SU(2))" in " ".join(out.symbolic)


class TestImagesThatAreNoSuspension:
    """A table whose suspended image c cannot be the suspension of its
    unsuspended image c' is refused when it is loaded, so every command
    refuses it with one message naming the file once, whatever the twists."""

    BAD = Path(__file__).parent / "data" / "table_bad_suspension.json"
    QUERIES = (
        ["classify", "--group", "SU6"],
        ["decompose", "--group", "SU6", "--k", "1,1"],
        ["decompose", "--group", "SU6", "--pointed"],
        ["pi", "--group", "SU6", "--j", "0"],
        ["equivalent", "--group", "SU6", "--k", "1,1", "--k2", "1,2"],
        ["splitting"],
    )
    REFUSED = {(1, "", f"domain error: table file {BAD}: (n, q)=(6, 5): the suspended image "
                        "has order 4, which does not divide the order 2 of the unsuspended image\n")}

    def outcomes(self, capsys, xi):
        spec = ["--spec", json.dumps({"n": 6, "q": 5, "xi": xi})]
        got = set()
        for argv in [*(query + spec for query in self.QUERIES), ["tables"]]:
            code = main(argv + ["--tables", str(self.BAD)])
            got.add((code, *capsys.readouterr()))
        return got

    def test_every_query_refuses_a_hit_twist_with_one_message(self, capsys):
        assert self.outcomes(capsys, [2, 4]) == self.REFUSED  # t-bar = 1

    def test_every_query_refuses_twists_that_miss_c(self, capsys):
        assert self.outcomes(capsys, [4, 8]) == self.REFUSED  # t-bar = 0

    def test_a_clash_made_by_the_merge_names_the_file_once(self, tmp_path):
        # The file alone is consistent: it declares only c, of order 24 at
        # (4, 3), over the core table's c' of order 12.
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"suspended_attaching_images": [
            {"n": 4, "q": 3, "target": {"torsion": [24]}, "coeffs": [1], "citation": "t"}
        ]}))
        assert load_table_file(path).suspended_image(4, 3)._order[1] == 24
        with pytest.raises(ValueError) as refused:
            load_tables([path])
        assert str(refused.value) == (
            f"table file {path}: (n, q)=(4, 3): the suspended image has order 24, "
            "which does not divide the order 12 of the unsuspended image"
        )


@pytest.mark.parametrize("query", [
    lambda: pointed_gauge_pi(SU(2), SPEC, 1),
    lambda: gauge_equivalent(SU(2), SPEC, (1, 1), (2, 2)),
], ids=["pi", "equivalent"])
def test_pi_and_equivalent_read_the_suspended_image_once(image_reads, query):
    # t-bar = 1 at SPEC, and the table was checked when built, so neither
    # query reads the unsuspended image.
    query()
    assert image_reads == {"suspended_image": 1, "attaching_image": 0}


def test_equivalent_runs_no_echelon_and_pi_one_on_the_core_table(monkeypatch):
    calls = []
    echelon = manifolds.row_echelon_mixed
    monkeypatch.setattr(manifolds, "row_echelon_mixed", lambda a: calls.append(a) or echelon(a))
    for xi in ((1, 0), (5, 7), (1, 4, 6), (13, 24)):
        spec = ConnectedSumSpec(4, 3, xi)
        gauge_equivalent(SU(2), spec, (1,) * spec.r, (2,) * spec.r)
        assert calls == []
        pointed_gauge_pi(SU(2), spec, 1)
        assert len(calls) == 1
        calls.clear()


def test_wedge_requires_lie_group():
    from gaugedecomp import Sphere

    with pytest.raises(ValueError):
        wedge_gauge_decomposition(Sphere(3), 4, 2, (1, 2))


class TestBoundedMemory:
    """A wide connected sum costs memory linear in r: no query holds an r x r
    transform.  Dense transforms at r = 2000 would peak above 30 MB."""

    @pytest.mark.parametrize("query", [
        lambda spec, table: gauge_decomposition(SU(2), spec, [1] * spec.r, table),
        lambda spec, table: suspension_splitting(spec, table),
        lambda spec, table: pointed_gauge_pi(SU(2), spec, 3, table),
    ], ids=["decompose", "splitting", "pointed_pi"])
    def test_r2000_peaks_below_4mb(self, query):
        rng = random.Random(2000)
        # 16-bit twists; the leading unit keeps gcd(12, xi) = 1.
        spec = ConnectedSumSpec(4, 3, (1, *(rng.getrandbits(16) for _ in range(1999))))
        table = default_table()
        tracemalloc.start()
        try:
            query(spec, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
