import json
import math
import random
import sys
import threading
from pathlib import Path

import pytest

from gaugedecomp import (
    GroupElement,
    IntMatrix,
    MixedMatrix,
    Modulus,
    Residue,
    Z,
    cyclic,
    direct_sum,
    gcd_mod,
    is_echelon,
    matrix_action,
    orbit_reduce,
    row_echelon_int,
    row_echelon_mixed,
    same_orbit,
    smith_invariants,
)
from oracles import (
    check_reads_as_eager,
    determinantal_invariants,
    diagonal,
    echelon_rank,
    elementary_orbit,
    random_unimodular,
    smith_by_factorization,
    unimodular_generators,
    unread,
)


def entries_mod(mat, moduli):
    return [
        [moduli[j].reduce(mat.entry(i, j)) for j in range(mat.cols)]
        for i in range(mat.rows)
    ]


class TestIntMatrixEntries:

    @pytest.mark.parametrize("entries", [[True, 3], (True, 3)])
    def test_bools_are_stored_as_exact_ints(self, entries):
        m = IntMatrix(1, 2, entries)
        assert m.entries == (1, 3)
        assert type(m.entries) is tuple
        assert all(type(v) is int for v in m.entries)

    def test_list_entries_are_stored_as_a_tuple(self):
        m = IntMatrix(2, 2, [1, 2, 3, 4])
        assert type(m.entries) is tuple
        assert m.entries == (1, 2, 3, 4)

    def test_float_entries_are_refused(self):
        with pytest.raises(TypeError):
            IntMatrix(1, 1, (2.9,))


class TestOrbitReduce:

    def test_example_mod12(self):
        cert = orbit_reduce(Modulus(12), (6, 4))
        assert [r.value for r in cert.canonical] == [2, 0]
        assert cert.transform.det() in (1, -1)
        assert cert.verify((6, 4))
        # Independent check: (2, 0) is reachable from (6, 4) by single
        # elementary row operations.
        assert (2, 0) in elementary_orbit(12, (6, 4))

    def test_example_zero_vector(self):
        cert = orbit_reduce(Modulus(0), (0, 0, 0))
        assert [r.value for r in cert.canonical] == [0, 0, 0]
        assert cert.transform.to_lists() == diagonal([1] * 3).to_lists()

    def test_example_mod5(self):
        cert = orbit_reduce(Modulus(5), (3, 0))
        assert [r.value for r in cert.canonical] == [1, 0]
        assert cert.verify((3, 0))
        assert cert.transform.det() in (1, -1)

    def test_rejects_short_vectors(self):
        with pytest.raises(ValueError):
            orbit_reduce(Modulus(12), (6,))

    @pytest.mark.parametrize("call", [
        orbit_reduce,
        gcd_mod,
        lambda m, x: orbit_reduce(m, (6, 4)).verify(x),
        lambda m, x: same_orbit(m, x, (6, 4)),
    ])
    def test_residue_inputs_raise_type_error(self, call):
        m = Modulus(12)
        with pytest.raises(TypeError):
            call(m, (Residue(m, 6), Residue(m, 4)))

    def test_certificates_random(self):
        rng = random.Random(41)
        for _ in range(300):
            m = rng.choice([0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
            r = rng.choice([2, 3, 4])
            x = tuple(rng.randint(-(10**6), 10**6) for _ in range(r))
            cert = orbit_reduce(Modulus(m), x)
            assert cert.transform.det() in (1, -1)
            assert cert.verify(x)
            assert cert.divisor == gcd_mod(Modulus(m), x)


class TestSameOrbit:

    def test_examples(self):
        assert same_orbit(Modulus(12), (1, 0), (5, 7))
        assert not same_orbit(Modulus(12), (2, 6), (3, 9))
        assert same_orbit(Modulus(0), (4, 6), (2, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            same_orbit(Modulus(12), (1, 0), (1, 0, 0))


class TestEchelonInt:

    def test_identity(self):
        a = diagonal([1] * 3)
        d, b = row_echelon_int(a)
        assert b.to_lists() == a.to_lists()
        assert d.to_lists() == a.to_lists()

    def test_golden_2x2(self):
        a = IntMatrix.from_rows([[2, 4], [3, 5]])
        d, b = row_echelon_int(a)
        assert b.to_lists() == [[1, 1], [0, 2]]
        assert (d @ a).to_lists() == b.to_lists()
        assert d.det() in (1, -1)
        assert is_echelon(b)

    def test_zero_matrix(self):
        a = IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
        d, b = row_echelon_int(a)
        assert b.to_lists() == a.to_lists()
        assert d.to_lists() == diagonal([1] * 2).to_lists()

    def test_random_soundness(self):
        rng = random.Random(42)
        for _ in range(200):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            a = IntMatrix(
                rows, cols,
                tuple(rng.randint(-30, 30) for _ in range(rows * cols)),
            )
            d, b = row_echelon_int(a)
            assert (d @ a).to_lists() == b.to_lists()
            assert d.det() in (1, -1)
            assert is_echelon(b)


class TestEchelonMixed:

    def test_bools_are_stored_as_exact_ints(self):
        a = MixedMatrix.from_rows([Modulus(0), Modulus(12)], [[True, 17], [False, -3]])
        assert a.entries == (1, 5, 0, 9)
        assert all(type(v) is int for v in a.entries)

    def test_float_entries_are_refused(self):
        with pytest.raises(TypeError):
            MixedMatrix(1, (Modulus(12),), (14.7,))

    def test_zero_columns_are_refused(self):
        # IntMatrix refuses this shape with the same message.
        with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
            MixedMatrix(1, (), ())
        with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
            MixedMatrix.from_rows([], [[], [], []])

    def test_z_and_z12_columns(self):
        moduli = [Modulus(0), Modulus(12)]
        a = MixedMatrix.from_rows(moduli, [[2, 6], [4, 0]])
        d, b = row_echelon_mixed(a)
        assert b.to_lists() == [[2, 6], [0, 0]]
        assert echelon_rank(b) == 1
        assert d.det() in (1, -1)
        product = d @ IntMatrix.from_rows(a.to_lists())
        assert entries_mod(product, moduli) == b.to_lists()

    def test_single_z12_column(self):
        a = MixedMatrix.from_rows([Modulus(12)], [[2], [3]])
        d, b = row_echelon_mixed(a)
        assert b.to_lists() == [[1], [0]]
        assert d.det() in (1, -1)

    def test_all_zero(self):
        a = MixedMatrix.from_rows([Modulus(4), Modulus(0)], [[0, 0], [0, 0]])
        d, b = row_echelon_mixed(a)
        assert b.to_lists() == a.to_lists()
        assert d.to_lists() == diagonal([1] * 2).to_lists()

    def test_random_soundness(self):
        rng = random.Random(43)
        for _ in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            moduli = [Modulus(rng.choice([0, 2, 4, 12])) for _ in range(cols)]
            a = MixedMatrix.from_rows(
                moduli,
                [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)],
            )
            d, b = row_echelon_mixed(a)
            assert d.det() in (1, -1)
            assert is_echelon(b)
            product = d @ IntMatrix.from_rows(a.to_lists())
            assert entries_mod(product, moduli) == b.to_lists()


class TestPivotTies:
    """The Euclid pass pivots on the lowest of equally small rows.

    D and B are pinned: a pivot search that broke ties another way would
    still give an echelon form, but a different D.
    """

    @pytest.mark.parametrize("m", [0, 12])
    def test_tie_between_rows_one_and_two(self, m):
        d, b = row_echelon_mixed(MixedMatrix.from_rows([Modulus(m)], [[6], [4], [4]]))
        assert d.to_lists() == [[1, -1, 0], [-2, 3, 0], [0, -1, 1]]
        assert b.to_lists() == [[2], [0], [0]]
        assert d.det() == 1

    def test_tie_over_z_in_an_integer_matrix(self):
        d, b = row_echelon_int(IntMatrix.from_rows([[6], [4], [4]]))
        assert d.to_lists() == [[1, -1, 0], [-2, 3, 0], [0, -1, 1]]
        assert b.to_lists() == [[2], [0], [0]]

    @pytest.mark.parametrize("m", [0, 12])
    def test_tie_that_ends_with_a_swap(self, m):
        d, b = row_echelon_mixed(MixedMatrix.from_rows([Modulus(m)], [[9], [3], [6], [3]]))
        assert d.to_lists() == [[0, 1, 0, 0], [1, -3, 0, 0], [0, -2, 1, 0], [0, -1, 0, 1]]
        assert b.to_lists() == [[3], [0], [0], [0]]
        assert d.det() == -1


class TestEchelonRank:
    """The rank oracle in ``oracles`` that the echelon checks read."""

    def test_examples(self):
        assert echelon_rank(IntMatrix.from_rows([[0, 0], [0, 0]])) == 0
        assert echelon_rank(diagonal([1] * 3)) == 3
        mixed = MixedMatrix.from_rows(
            [Modulus(0), Modulus(12)], [[2, 6], [0, 0]]
        )
        assert echelon_rank(mixed) == 1


class TestIsEchelon:

    def test_rejects_non_echelon(self):
        bad = IntMatrix.from_rows([[0, 1], [1, 0]])
        zero_row_first = IntMatrix.from_rows([[0, 0], [1, 0]])
        same_lead = MixedMatrix.from_rows([Modulus(0), Modulus(12)], [[2, 6], [4, 0]])
        for b in (bad, zero_row_first, same_lead):
            assert not is_echelon(b)
            with pytest.raises(ValueError):
                echelon_rank(b)


class TestMatrixAction:

    def test_shear_on_free_rank_two(self):
        q, t = unimodular_generators(2)
        h = direct_sum([Z, Z])
        k1 = GroupElement(h, (3, 0))
        k2 = GroupElement(h, (0, 5))
        out = matrix_action(q, (k1, k2))
        assert out[0] == k1
        assert out[1] == k1 + k2

    def test_identity(self):
        h = cyclic(12)
        v = (GroupElement(h, (3,)), GroupElement(h, (7,)))
        out = matrix_action(diagonal([1] * 2), v)
        assert out == v

    def test_cycle_negates(self):
        _, t = unimodular_generators(2)
        h = direct_sum([Z, Z])
        k1 = GroupElement(h, (2, 0))
        k2 = GroupElement(h, (0, 9))
        out = matrix_action(t, (k1, k2))
        assert out[0] == -k2
        assert out[1] == -k1

    def test_size_mismatch(self):
        h = cyclic(4)
        with pytest.raises(ValueError):
            matrix_action(diagonal([1] * 3), (GroupElement(h, (1,)),))

    def test_composition_law(self):
        rng = random.Random(45)
        for _ in range(50):
            r = rng.choice([2, 3, 4])
            a = random_unimodular(rng, r)
            a2 = random_unimodular(rng, r)
            h = cyclic(rng.randint(2, 12)) if rng.random() < 0.5 else Z
            v = tuple(
                GroupElement(h, (rng.randint(-9, 9),)) for _ in range(r)
            )
            assert matrix_action(a2 @ a, v) == matrix_action(
                a2, matrix_action(a, v)
            )

    def test_factors_through_exponent(self):
        rng = random.Random(46)
        for _ in range(50):
            r = rng.choice([2, 3])
            d = rng.randint(2, 12)
            h = cyclic(d)
            a = random_unimodular(rng, r)
            shifted = IntMatrix(
                r, r,
                tuple(
                    v + d * rng.randint(-3, 3) for v in a.entries
                ),
            )
            v = tuple(GroupElement(h, (rng.randint(0, d - 1),)) for _ in range(r))
            assert matrix_action(a, v) == matrix_action(shifted, v)


class TestSmithInvariants:

    def test_diag_4_6(self):
        assert smith_invariants(diagonal([4, 6])) == (2, 12)
        assert smith_by_factorization([4, 6]) == (2, 12)

    def test_against_factorization_oracle(self):
        rng = random.Random(47)
        for _ in range(100):
            orders = [rng.randint(2, 60) for _ in range(rng.randint(1, 4))]
            got = smith_invariants(diagonal(orders))
            want = smith_by_factorization(orders)
            assert tuple(s for s in got if s > 1) == want

    def test_against_determinantal_oracle(self):
        # Shapes 1 x n, n x 1 and up to 5 x 5; rank-deficient matrices; entries
        # of 31-80 bits, whose columns the echelons defer to a one-column reducer.
        rng = random.Random(48)
        cases = [
            ([[2, 1], [0, 2]], (1, 4)),  # three rounds; the first alone reads (2, 2)
            ([[4, 2], [0, 3]], (1, 12)),  # four rounds; the first two alone read (2, 6)
            ([[0] * 4] * 3, ()),
        ]
        for _ in range(240):
            shape = rng.randrange(4)  # 0: one row, 1: one column, else any
            rows = 1 if shape == 0 else rng.randint(1, 5)
            cols = 1 if shape == 1 else rng.randint(1, 5)
            bits = rng.choice([4, rng.randint(31, 80)])
            mat = [[rng.randint(-(1 << bits), 1 << bits) for _ in range(cols)] for _ in range(rows)]
            if rows > 1 and rng.random() < 0.25:
                mat[1] = [2 * v for v in mat[0]]
            cases.append((mat, None))
        for mat, want in cases:
            a = IntMatrix.from_rows(mat)
            got = smith_invariants(a)
            assert got == determinantal_invariants(a), mat
            assert want in (None, got)


class TestCrossPathConsistency:

    def test_orbit_pivot_matches_column_echelon(self):
        # Reducing an r x 1 matrix and orbit-reducing the same vector must
        # land on the same leading divisor.
        rng = random.Random(49)
        for _ in range(300):
            m = rng.choice([0, 2, 3, 4, 6, 8, 12])
            r = rng.randint(2, 5)
            x = [rng.randint(-99, 99) for _ in range(r)]
            cert = orbit_reduce(Modulus(m), x)
            col = MixedMatrix.from_rows([Modulus(m)], [[v] for v in x])
            _, b = row_echelon_mixed(col)
            pivot = b.entry(0, 0)
            head = cert.canonical[0].value
            assert pivot == head

    def test_bezout_fold_with_leading_survivor(self):
        # Single nonzero coordinate in the first slot whose value is not
        # yet the gcd with the modulus: the fold must still land on it.
        cert = orbit_reduce(Modulus(12), (8, 0))
        assert [r.value for r in cert.canonical] == [4, 0]
        assert cert.verify((8, 0))

    def test_above_pivot_entries_reduced(self):
        rng = random.Random(50)
        for _ in range(100):
            rows = rng.randint(2, 5)
            cols = rng.randint(2, 5)
            a = IntMatrix(
                rows, cols,
                tuple(rng.randint(-40, 40) for _ in range(rows * cols)),
            )
            _, b = row_echelon_int(a)
            leads = []
            for i in range(b.rows):
                row = b.row(i)
                lead = next((j for j, v in enumerate(row) if v != 0), None)
                if lead is not None:
                    leads.append((i, lead))
            for i, lead in leads:
                pivot = b.entry(i, lead)
                assert pivot > 0
                for above in range(i):
                    assert 0 <= b.entry(above, lead) < pivot


GOLDEN = json.loads((Path(__file__).parent / "data" / "echelon_golden.json").read_text())


class TestGoldenReplay:
    """The kernel's outputs on seeded inputs replay exactly as recorded.

    ``tests/data/echelon_golden.json`` holds 51 echelon inputs and 12
    orbit-reduce vectors.  The first 40 echelon inputs (r = 1..64, Z and
    Z/m columns with m up to 2^61 - 1, negative entries, entries at or above
    m, zero rows, single-column twist matrices over Z/12, bools in Z
    columns) and the orbit vectors carry the D, B or transform that the
    kernel returned before it stopped re-reducing its entries.  The last 11
    carry the D and B returned before each column was reduced on its own
    values: square Z and mixed matrices of 8 x 8 (64 and 256 bits), 12 x 12
    (64 bits) and 16 x 16 (8 bits) drawn as the dense-kernel benchmark draws
    them, a 3 x 6 mixed matrix, a singular 5 x 5 one over Z, and a mixed
    6 x 6 one whose zero first column places no pivot.
    Comparing JSON text makes a bool or a reordered row a failure.
    """

    @pytest.mark.parametrize("case", GOLDEN["echelon"])
    def test_echelon(self, case):
        if case["kind"] == "int":
            d, b = row_echelon_int(IntMatrix.from_rows(case["rows"]))
        else:
            moduli = [Modulus(m) for m in case["moduli"]]
            d, b = row_echelon_mixed(MixedMatrix.from_rows(moduli, case["rows"]))
        assert json.dumps([d.to_lists(), b.to_lists()]) == json.dumps([case["d"], case["b"]])

    @pytest.mark.parametrize("case", GOLDEN["orbit_reduce"])
    def test_orbit_reduce(self, case):
        cert = orbit_reduce(Modulus(case["modulus"]), case["x"])
        got = [cert.transform.to_lists(), [c.value for c in cert.canonical], cert.divisor, cert.det]
        want = [case["transform"], case["canonical"], case["gcd"], case["det"]]
        assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("case", GOLDEN["echelon"])
    def test_echelon_transform_reads_as_eager(self, case):
        # D is built on first read; until then no entry exists, and once
        # built it is the recorded D in every reader's eyes.
        if case["kind"] == "int":
            d, _ = row_echelon_int(IntMatrix.from_rows(case["rows"]))
        else:
            moduli = [Modulus(m) for m in case["moduli"]]
            d, _ = row_echelon_mixed(MixedMatrix.from_rows(moduli, case["rows"]))
        assert unread(d)
        check_reads_as_eager(d)
        assert d == IntMatrix.from_rows(case["d"])

    @pytest.mark.parametrize("case", GOLDEN["orbit_reduce"])
    def test_orbit_transform_reads_as_eager(self, case):
        cert = orbit_reduce(Modulus(case["modulus"]), case["x"])
        assert unread(cert.transform)  # the certificate's det check used the tracked sign
        check_reads_as_eager(cert.transform)
        assert cert.transform == IntMatrix.from_rows(case["transform"])


class TestTransformOnDemand:

    def test_threads_reading_one_transform_agree(self):
        # Threads that race to build one D's entries must all read them,
        # equal, with no error: more threads than cores, switching often.
        rng = random.Random(12)
        rows = [[rng.getrandbits(16)] for _ in range(300)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                d, _ = row_echelon_mixed(MixedMatrix.from_rows([Modulus(12)], rows))
                got, errors = [], []

                def read():
                    try:
                        got.append(d.entries)
                    except Exception as e:  # a lost race surfaces here
                        errors.append(e)

                threads = [threading.Thread(target=read) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert errors == [] and len(got) == 6
                assert all(e == got[0] for e in got) and d.entries == got[0]
        finally:
            sys.setswitchinterval(old)
