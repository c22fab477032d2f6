"""Exact integer and residue arithmetic.

A modulus is a non-negative integer; modulus 0 stands for the ring of
integers itself, so a single code path covers both Z and Z/m.  All values
are Python ints, hence arbitrary precision.  ``invariant_factors`` puts a
sum of finite cyclic groups into invariant-factor form.  Moduli and
residues are immutable, so they hash and compare by value.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from operator import index

from ._record import Record, set_field


class Modulus(Record):
    """A residue modulus; ``m == 0`` means "work over the integers"."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        m = index(m)
        if m < 0:
            raise ValueError(f"modulus must be non-negative, got {m}")
        set_field(self, "m", m)

    def reduce(self, value: int) -> int:
        """Canonical representative: in [0, m) for m > 0, the value itself for m == 0."""
        return value if self.m == 0 else value % self.m


INTEGERS = Modulus(0)


class Residue(Record):
    """An element of Z/m (of Z when m == 0), stored canonically.

    Canonical storage makes residues hashable and directly comparable.  It
    is the form of an orbit certificate's canonical vector; the functions
    that take residue vectors take their int representatives.
    """

    __slots__ = ("modulus", "value")

    def __init__(self, modulus: Modulus, value: int):
        set_field(self, "modulus", modulus)
        set_field(self, "value", modulus.reduce(index(value)))


def bezout(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, u, v) with u*a + v*b == g == gcd(a, b) >= 0.

    gcd(0, 0) is 0 by convention, certified by (0, 0, 0).
    """
    if a == 0 and b == 0:
        return 0, 0, 0
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def gcd_mod(modulus: Modulus, xs: Iterable[int]) -> int:
    """gcd of the integers ``xs`` together with the modulus itself.

    For m == 0 this is the plain gcd of the values; for m > 0 the result
    divides m.  An all-zero input over Z gives 0 (the "infinite order"
    marker used throughout the package).  The result does not depend on
    the choice of representatives mod m.
    """
    return math.gcd(modulus.m, *xs)


def invariant_factors(orders: Iterable[int]) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... | dk of the sum of the Z/|s|, s != 0.

    One entry per input, units included.  The orders, smallest first, go
    into the chain from the top: each entry the carry meets is traded by
    Z/a (+) Z/b = Z/gcd(a, b) (+) Z/lcm(a, b) until the entry below
    divides the carry, and a carry of 1 goes to the bottom.

    >>> invariant_factors([4, 6, 1])
    (1, 2, 12)
    """
    chain: list[int] = []
    for c in sorted(abs(s) for s in orders):
        i = len(chain)
        while i and c > 1 and c % chain[i - 1]:
            i -= 1
            chain[i], c = math.lcm(chain[i], c), math.gcd(chain[i], c)
        chain.insert(0 if c == 1 else i, c)
    return tuple(chain)
