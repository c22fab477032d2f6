import math
import random

import pytest

from gaugedecomp import Modulus, Residue, bezout, gcd_mod


def test_bezout_zero_zero():
    assert bezout(0, 0) == (0, 0, 0)


def test_bezout_known_pairs():
    g, u, v = bezout(3, 5)
    assert g == 1 and 3 * u + 5 * v == 1
    g, u, v = bezout(8, 12)
    assert g == 4 and 8 * u + 12 * v == 4


def test_bezout_certificate_random():
    rng = random.Random(2024)
    for _ in range(500):
        a = rng.randint(-(2**63), 2**63)
        b = rng.randint(-(2**63), 2**63)
        g, u, v = bezout(a, b)
        assert g == math.gcd(a, b)
        assert u * a + v * b == g


def test_modulus_validation():
    with pytest.raises(ValueError):
        Modulus(-1)


def test_residue_canonical():
    assert Residue(Modulus(12), -5).value == 7
    assert Residue(Modulus(12), 25).value == 1
    assert Residue(Modulus(0), -5).value == -5


@pytest.mark.parametrize("make", [
    lambda: Modulus(12.0),
    lambda: Modulus(2.5),
    lambda: Residue(Modulus(12), 2.5),
])
def test_non_integers_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_bools_read_as_zero_or_one():
    assert Modulus(True).m == 1 and type(Modulus(True).m) is int
    assert Residue(Modulus(12), True).value == 1


def test_gcd_mod_examples():
    assert gcd_mod(Modulus(12), [8, 4]) == 4
    assert gcd_mod(Modulus(0), [6, 4]) == 2
    assert gcd_mod(Modulus(5), [0, 0]) == 5
    assert gcd_mod(Modulus(0), [0, 0]) == 0
    assert gcd_mod(Modulus(0), [-6, 4]) == 2
    assert gcd_mod(Modulus(0), [-6]) == 6
    assert gcd_mod(Modulus(12), [-8]) == 4


def test_gcd_mod_permutation_invariant():
    rng = random.Random(7)
    for _ in range(200):
        m = Modulus(rng.choice([0, 2, 5, 12]))
        xs = [rng.randint(-100, 100) for _ in range(rng.randint(1, 5))]
        shuffled = xs[:]
        rng.shuffle(shuffled)
        assert gcd_mod(m, xs) == gcd_mod(m, shuffled)


def test_gcd_mod_representative_independent():
    rng = random.Random(8)
    for _ in range(200):
        m = rng.choice([2, 3, 7, 12])
        xs = [rng.randint(0, m - 1) for _ in range(3)]
        i = rng.randrange(3)
        bumped = xs[:]
        bumped[i] += m * rng.randint(-4, 4)
        assert gcd_mod(Modulus(m), xs) == gcd_mod(Modulus(m), bumped)


def test_gcd_mod_divides_modulus():
    rng = random.Random(9)
    for _ in range(100):
        m = rng.randint(2, 40)
        xs = [rng.randint(-99, 99) for _ in range(4)]
        assert m % gcd_mod(Modulus(m), xs) == 0
