"""Finitely generated abelian groups in invariant-factor form.

A group is stored as ``Z^free_rank (+) Z/s1 (+) ... (+) Z/sk`` with
``2 <= s1 | s2 | ... | sk``, which makes structural equality literal
equality.  Infinite cardinality and infinite element order are both
encoded as 0, matching the modulus-0 convention of the residue layer.
Groups and their elements are immutable; arithmetic returns new elements.

>>> print(direct_sum([cyclic(4), cyclic(6)]))
Z/2 (+) Z/12
>>> cardinality(AbelianGroup(0, (2, 2)))
4
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from operator import index

from ._record import Record, set_field
from .residues import invariant_factors


class AbelianGroup(Record):
    """A finitely generated abelian group in invariant-factor form."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()):
        free_rank, torsion = index(free_rank), tuple(map(index, torsion))
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        for s in torsion:
            if s < 2:
                raise ValueError(f"torsion orders must be >= 2, got {s}")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(
                    f"torsion orders must form a divisibility chain, got {a} before {b}"
                )
        set_field(self, "free_rank", free_rank)
        set_field(self, "torsion", torsion)

    @classmethod
    def from_orders(cls, free_rank: int = 0, orders: Sequence[int] = ()) -> "AbelianGroup":
        """Normalize a list of cyclic orders to invariant factors.

        An order 0 adds a Z summand; the signs of the others are ignored,
        and they are folded into a divisibility chain by gcd/lcm pairs
        (``residues.invariant_factors``), whose unit entries are dropped.
        """
        orders = list(orders)
        free = free_rank + orders.count(0)
        chain = invariant_factors(s for s in orders if s)
        return cls(free, tuple(s for s in chain if s > 1))

    @property
    def generator_count(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def to_dict(self) -> dict:
        return {"free": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{s}" for s in self.torsion)
        return " (+) ".join(parts) if parts else "0"


Z = AbelianGroup(1, ())
TRIVIAL_GROUP = AbelianGroup(0, ())


def cyclic(m: int) -> AbelianGroup:
    """The cyclic group Z/m; m == 0 gives Z and m == 1 the trivial group."""
    return AbelianGroup.from_orders(0, (m,))


class GroupElement(Record):
    """An element given by coefficients over the group's generators.

    Free coordinates come first, then one coordinate per torsion order,
    reduced into [0, s_j).
    """

    __slots__ = ("group", "coeffs")

    def __init__(self, group: AbelianGroup, coeffs: tuple[int, ...]):
        coeffs = tuple(map(index, coeffs))
        if len(coeffs) != group.generator_count:
            raise ValueError(f"expected {group.generator_count} coefficients, got {len(coeffs)}")
        free = group.free_rank
        reduced = coeffs[:free] + tuple(
            c % s for c, s in zip(coeffs[free:], group.torsion)
        )
        set_field(self, "group", group)
        set_field(self, "coeffs", reduced)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.group != self.group:
            raise ValueError("elements live in different groups")
        return GroupElement(
            self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-c for c in self.coeffs))

    def __rmul__(self, c: int) -> "GroupElement":
        if not isinstance(c, int):
            return NotImplemented
        return GroupElement(self.group, tuple(c * v for v in self.coeffs))

    __mul__ = __rmul__


def direct_sum(groups: Iterable[AbelianGroup]) -> AbelianGroup:
    """Direct sum, renormalized to invariant-factor form.

    Free ranks add up; the torsion orders of all summands go through one
    ``AbelianGroup.from_orders`` fold.

    >>> print(direct_sum([Z, Z]))
    Z^2
    >>> direct_sum([cyclic(2), cyclic(2), Z]).torsion
    (2, 2)
    """
    free = 0
    orders: list[int] = []
    for g in groups:
        free += g.free_rank
        orders.extend(g.torsion)
    return AbelianGroup.from_orders(free, orders)


def cardinality(g: AbelianGroup) -> int:
    """Number of elements, or 0 for an infinite group."""
    if g.free_rank > 0:
        return 0
    return math.prod(g.torsion)
