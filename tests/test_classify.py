import json
import math
import random

import pytest

from gaugedecomp import classify
from gaugedecomp.cli import main
from gaugedecomp.tables import pi6_order
from gaugedecomp import (
    DIM7_PI6_COPRIME,
    G2,
    SP_STABLE,
    STABLE_WEDGE,
    SU_STABLE,
    UNSUPPORTED,
    AbelianGroup,
    ConnectedSumSpec,
    E6,
    E7,
    E8,
    F4,
    Sp,
    Sphere,
    Spin,
    SU,
    Z,
    classify_conditions,
    principal_bundles,
    stable_wedge_formula,
)


class TestDispatch:

    def test_su_stable(self):
        case = classify_conditions(SU(5), ConnectedSumSpec(6, 3, (0, 0)))
        assert case.kind == SU_STABLE

    def test_dim7(self):
        case = classify_conditions(SU(2), ConnectedSumSpec(4, 3, (1, 0)))
        assert case.kind == DIM7_PI6_COPRIME

    def test_unsupported_when_gcd_fails(self):
        case = classify_conditions(SU(2), ConnectedSumSpec(4, 3, (2, 2)))
        assert case.kind == UNSUPPORTED
        assert case.reason

    @pytest.mark.parametrize("xi", [(1, 0), (2, 2)])
    def test_pi6_order_read_once(self, monkeypatch, xi):
        calls = []

        def counted(group, table=None):
            calls.append(group)
            return pi6_order(group, table)

        monkeypatch.setattr(classify, "pi6_order", counted)
        case = classify_conditions(SU(2), ConnectedSumSpec(4, 3, xi))
        assert calls == [SU(2)]
        if xi == (2, 2):
            assert case.reason == "gcd(|pi_6(SU(2))|, xi) = 2 != 1 and no stable clause applies"

    def test_sp_stable(self):
        case = classify_conditions(Sp(3), ConnectedSumSpec(8, 3, (1, 2)))
        assert case.kind == SP_STABLE

    def test_dim7_preferred_over_stable(self):
        # Sp(2) at (4, 3) satisfies both the symplectic stable clause and
        # the seven-dimensional one; the latter is reported.
        case = classify_conditions(Sp(2), ConnectedSumSpec(4, 3, (1, 1)))
        assert case.kind == DIM7_PI6_COPRIME

    def test_wedge_range(self):
        case = classify_conditions(SU(4), ConnectedSumSpec(5, 3, (1, 2)))
        assert case.kind == STABLE_WEDGE

    @pytest.mark.parametrize("names", [(SU(2), Sp(1), Spin(3)), (Sp(2), Spin(5)), (SU(4), Spin(6))],
                             ids=["SU2", "Sp2", "SU4"])
    def test_every_name_of_a_group_gets_one_verdict(self, names):
        for n in range(2, 13):
            for q in range(2, 13):
                for xi in ((1, 0), (2, 4), (0, 0)):
                    spec = ConnectedSumSpec(n, q, xi)
                    kinds = {classify_conditions(g, spec).kind for g in names}
                    assert len(kinds) == 1, (names, n, q, xi, kinds)

    def test_an_alias_reaches_the_wedge_range_of_its_other_names(self):
        # Sp(1) meets 4m >= n + q - 2 at (4, 2); SU(2) alone would not meet 2m >= n + q.
        for g in (SU(2), Sp(1), Spin(3)):
            assert classify_conditions(g, ConnectedSumSpec(4, 2, (1, 0))).kind == STABLE_WEDGE
        assert classify_conditions(Spin(6), ConnectedSumSpec(5, 3, (1, 0))).kind == STABLE_WEDGE
        assert classify_conditions(Spin(5), ConnectedSumSpec(6, 3, (1, 0))).kind == STABLE_WEDGE

    def test_sphere_group_unsupported(self):
        case = classify_conditions(Sphere(3), ConnectedSumSpec(4, 3, (1, 0)))
        assert case.kind == UNSUPPORTED

    def test_exceptional_dim7(self):
        assert classify_conditions(G2, ConnectedSumSpec(4, 3, (1, 0))).kind \
            == DIM7_PI6_COPRIME
        assert classify_conditions(G2, ConnectedSumSpec(4, 3, (3, 6))).kind \
            == UNSUPPORTED

    def test_permutation_invariant(self):
        rng = random.Random(31)
        for _ in range(50):
            xi = [rng.randint(-10, 10) for _ in range(3)]
            spec = classify_conditions(SU(2), ConnectedSumSpec(4, 3, tuple(xi)))
            rng.shuffle(xi)
            assert classify_conditions(
                SU(2), ConnectedSumSpec(4, 3, tuple(xi))
            ).kind == spec.kind

    def test_pi6_gate_shift_invariance(self):
        # The seven-dimensional clause reads xi only through
        # gcd(|pi_6(G)|, xi), so shifting a twist by the order changes nothing.
        rng = random.Random(32)
        for group in (SU(2), SU(3), G2):
            order = {SU(2): 12, SU(3): 6, G2: 3}[group]
            for _ in range(50):
                xi = [rng.randint(-20, 20) for _ in range(3)]
                base = classify_conditions(group, ConnectedSumSpec(4, 3, tuple(xi)))
                i = rng.randrange(3)
                xi[i] += order * rng.randint(-4, 4)
                case = classify_conditions(group, ConnectedSumSpec(4, 3, tuple(xi)))
                assert case == base
                assert (case.kind == DIM7_PI6_COPRIME) == (math.gcd(order, *xi) == 1)

    def test_no_bijective_clause_admits_n_at_most_q(self):
        # ProductExpr.build keeps its caller's factors unmerged on this fact:
        # with n > q, Omega^n G and Omega^q G are never the same factor.
        # xi = (1,) passes the seven-dimensional gate wherever it can.
        groups = (
            [SU(m) for m in range(2, 13)] + [Sp(m) for m in range(1, 7)]
            + [Spin(m) for m in range(3, 13)] + [G2, F4, E6, E7, E8]
        )
        bijective = [
            (group, n, q, case.kind)
            for group in groups
            for n in range(2, 30)
            for q in range(2, 30)
            if (case := classify_conditions(group, ConnectedSumSpec(n, q, (1,)))).is_bijective
        ]
        assert {kind for *_, kind in bijective} == {SU_STABLE, SP_STABLE, DIM7_PI6_COPRIME}
        assert [(g, n, q) for g, n, q, _ in bijective if n <= q] == []
        assert len(bijective) == 134


class TestPrincipalBundles:

    def test_su_stable_rank(self):
        result = principal_bundles(SU(5), ConnectedSumSpec(6, 3, (0, 0)))
        assert result.free_rank == 2
        assert "bijection" in result.note

    def test_dim7_rank(self):
        result = principal_bundles(SU(2), ConnectedSumSpec(4, 3, (1, 0)))
        assert result.free_rank == 2

    def test_rank_equals_summands(self):
        for r in (1, 2, 3, 4):
            xi = (1,) + (0,) * (r - 1)
            result = principal_bundles(SU(2), ConnectedSumSpec(4, 3, xi))
            assert result.free_rank == r

    def test_unsupported_raises(self):
        with pytest.raises(ValueError):
            principal_bundles(SU(2), ConnectedSumSpec(4, 3, (2, 2)))


class TestWedgeFormula:

    def test_su6_over_6_5(self):
        formula = stable_wedge_formula(SU(6), ConnectedSumSpec(6, 5, (1, 2)))
        assert formula.terms == (
            (Z, 2),
            (AbelianGroup(0, ()), 2),
        )
        assert formula.residual == "[Y_F, BG]"

    def test_wedge_case_routed_through_formula(self):
        result = principal_bundles(SU(4), ConnectedSumSpec(5, 3, (1, 2)))
        assert result.free_rank is None
        assert result.formula is not None
        assert result.formula.residual == "[Y_F, BG]"

    def test_known_rank_used_when_available(self):
        # (4, 3) has built-in twist data, so the multiplicity is r - rank.
        formula = stable_wedge_formula(SU(4), ConnectedSumSpec(4, 3, (12, 24)))
        assert formula.terms[1][1] == 2  # rank 0: both copies survive
        formula = stable_wedge_formula(SU(4), ConnectedSumSpec(4, 3, (1, 0)))
        assert formula.terms[1][1] == 1  # rank 1 removes one copy

    def test_a_table_whose_images_clash_is_refused_before_the_formula(self, tmp_path, capsys):
        # At (6, 4), c = 1 in Z/4 is no suspension of c' = 1 in Z/2.  The
        # formula would read r - t-bar off that c; the table is refused when
        # loaded instead, as by every other command.
        path = tmp_path / "t.json"
        image = {"n": 6, "q": 4, "coeffs": [1], "citation": "t"}
        path.write_text(json.dumps({
            "attaching_images": [{**image, "target": {"torsion": [2]}}],
            "suspended_attaching_images": [{**image, "target": {"torsion": [4]}}],
        }))
        spec = '{"n":6,"q":4,"xi":[2,4]}'
        code = main(["classify", "--group", "SU5", "--spec", spec, "--tables", str(path)])
        assert (code, *capsys.readouterr()) == (1, "", (
            f"domain error: table file {path}: (n, q)=(6, 4): the suspended image has order 4, "
            "which does not divide the order 2 of the unsuspended image\n"
        ))
