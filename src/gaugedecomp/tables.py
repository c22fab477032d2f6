"""Data-driven tables of homotopy groups, connecting-map orders and gauge invariants.

This module is the only source of topological constants in the package,
the Lie family rows too: each family's least rank, and the stable range of
SU and Sp from which classify reads its stable clauses.
Every shipped value carries a citation, lookups of absent keys return
``None`` instead of a default, and user table files are merged over the
built-in core.  A table is checked once, when it is built, and queries
trust it.  Spaces, entries, images and tables are immutable.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from functools import lru_cache
from operator import index

from ._record import Record, decode_json, exact, read_field, read_file, read_ints, set_field
from .abelian import AbelianGroup, cardinality
from .residues import Modulus

MAX_ORDERS, MAX_ORDER_BITS = 64, 4096  # per torsion list; invariant factors cost O(orders^2)
# One row per Lie family: (least rank, whether it is the only rank, stable range).
# For G(m) = SU(m) or Sp(m) the stable range (p, least k', slack) gives classify's
# clauses: the bijective one for n = pk, q = pk' - 1, least k' <= k' <= k and
# k + k' <= m, and the wedge formula for pm >= n + q - slack, the connectivity
# of BG(m) -> BG (Bott 1959).
LIE_FAMILIES = {
    "SU": (2, False, (2, 2, 0)), "Sp": (1, False, (4, 1, 2)), "Spin": (3, False, None),
    "G2": (2, True, None), "F4": (4, True, None), "E6": (6, True, None),
    "E7": (7, True, None), "E8": (8, True, None),
}


class MissingTableError(LookupError):
    """A required table entry is absent."""

    def __init__(self, key: str):
        super().__init__(f"missing table entry: {key}")


class Sphere(Record):
    __slots__ = ("dim",)

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("sphere dimension must be >= 1")
        set_field(self, "dim", dim)

    def __str__(self):
        return f"S^{self.dim}"


class LieGroup(Record):
    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in LIE_FAMILIES:
            raise ValueError(f"unknown Lie family {family!r}")
        least, fixed, _ = LIE_FAMILIES[family]
        if fixed and rank != least:
            raise ValueError(f"{family} has rank {least}")
        if rank < least:
            raise ValueError(f"{family}(m) needs m >= {least}")
        set_field(self, "family", family)
        set_field(self, "rank", rank)

    def __str__(self):
        return self.family if LIE_FAMILIES[self.family][1] else f"{self.family}({self.rank})"


SpaceId = Sphere | LieGroup

G2, F4, E6, E7, E8 = (LieGroup(f, row[0]) for f, row in LIE_FAMILIES.items() if row[1])


def SU(m: int) -> LieGroup:
    return LieGroup("SU", m)


def Sp(m: int) -> LieGroup:
    return LieGroup("Sp", m)


def Spin(m: int) -> LieGroup:
    return LieGroup("Spin", m)


_ALIASES = {Sp(1): SU(2), Spin(3): SU(2), Spin(5): Sp(2), Spin(6): SU(4)}
# Every name of a group with aliases, its canonical form first, by each of its names.
_NAMES = {g: (g, *[a for a, b in _ALIASES.items() if b == g]) for g in _ALIASES.values()}
_NAMES.update({a: _NAMES[g] for a, g in _ALIASES.items()})
# The groups whose pi_6 is nonzero; every other simply connected simple
# compact group has pi_6 = 0.  Stable range by Bott periodicity (Bott 1959):
# pi_6(SU(m)) = 0 for m >= 4, pi_6(Sp(m)) = 0 for m >= 2, pi_6(Spin(m)) = 0
# for m >= 9.  Low rank and the exceptional groups by Mimura 1967, "The
# homotopy groups of Lie groups of low rank": pi_6(SU(2)) = Z/12,
# pi_6(SU(3)) = Z/6, pi_6(G2) = Z/3, and 0 for Spin(7), Spin(8), F4, E6-E8.
_PI6_NONTRIVIAL = (SU(2), SU(3), G2)


def canonical_space(space: SpaceId) -> SpaceId:
    """Fold the classical low-rank isomorphisms onto one representative.

    Sp(1) and Spin(3) are SU(2); Spin(5) is Sp(2); Spin(6) is SU(4).
    Spin(4) is not simple and is left untouched.
    """
    return _ALIASES.get(space, space)


def is_simply_connected_simple_compact(space: SpaceId) -> bool:
    return isinstance(space, LieGroup) and (space.family, space.rank) != ("Spin", 4)  # SU(2)^2


def space_to_dict(space: SpaceId) -> dict:
    if isinstance(space, Sphere):
        return {"sphere": space.dim}
    return {"lie": {"family": space.family, "rank": space.rank}}


def _named(where: str, make, *args):
    """``make(*args)``; a ValueError it raises names ``where``."""
    try:
        return make(*args)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def space_from_dict(data: dict, where: str = "space") -> SpaceId:
    if "sphere" in data:
        return _named(where, Sphere, read_field(data, "sphere", int, where))
    lie = read_field(data, "lie", dict, where)
    where += ".lie"
    family, rank = read_field(lie, "family", str, where), read_field(lie, "rank", int, where)
    return _named(where, LieGroup, family, rank)


class TableEntry(Record):
    __slots__ = ("space", "degree", "group", "citation")


class _Order(Record):
    __slots__ = ("_order",)  # the image's order o, as (Modulus(o), o): not a field


class GeneratorImage(_Order):
    """Image of the standard twist generator inside a presented target group.

    ``target`` is the receiving group in invariant-factor form and
    ``coeffs`` are the image's coefficients over its generators.  Its order
    is 0 if a free coefficient is nonzero, else lcm_j s_j / gcd(s_j, c_j).
    """

    __slots__ = ("target", "coeffs", "citation")

    def __init__(self, target: AbelianGroup, coeffs: tuple[int, ...], citation: str):
        coeffs = tuple(map(index, coeffs))
        if len(coeffs) != target.generator_count:
            raise ValueError("image coefficients do not match the target generators")
        set_field(self, "target", target)
        set_field(self, "coeffs", coeffs)
        set_field(self, "citation", citation)
        free = target.free_rank
        o = 0 if any(coeffs[:free]) else math.lcm(
            *[s // math.gcd(s, c) for s, c in zip(target.torsion, coeffs[free:])]
        )
        set_field(self, "_order", (Modulus(o), o))


class HomotopyTable:
    """Immutable store of the table-file sections, each a dict of items by key."""

    def __init__(self, sections: dict[str, dict] | None = None):
        self._sections = {name: dict((sections or {}).get(name, ())) for name in _SECTIONS}
        orders = self._sections["connecting_orders"]
        for (space, n), (j, m, _) in self._sections["sphere_gauge_invariants"].items():
            if orders.get((space, n), (0,))[0] % m:  # gcd(m, k) must depend on gcd(o, k) alone
                raise ValueError(f"{space} over S^{n}: pi_{j} = Z/gcd({m}, k) needs {m} to divide "
                                 f"the connecting-map order {orders[space, n][0]}")
        unsuspended = self._sections["attaching_images"]
        for key, image in self._sections["suspended_attaching_images"].items():
            # As c = Sigma c', ord(c) divides ord(c').  Order 0 is infinite, and every
            # order divides it; a missing c' checks nothing.
            o_c, o = image._order[1], unsuspended[key]._order[1] if key in unsuspended else 0
            if o % o_c if o_c else o:
                raise ValueError(f"(n, q)={key}: the suspended image has order "
                                 f"{o_c or 'infinite'}, which does not divide the order "
                                 f"{o or 'infinite'} of the unsuspended image")

    def entries(self) -> list[TableEntry]:
        return sorted(self._sections["entries"].values(), key=lambda e: (str(e.space), e.degree))

    def entry(self, space: SpaceId, degree: int) -> TableEntry | None:
        return self._sections["entries"].get((canonical_space(space), degree))

    def lookup_pi(self, space: SpaceId, degree: int) -> AbelianGroup | None:
        """The homotopy group pi_degree(space), or None when not shipped."""
        e = self.entry(space, degree)
        return None if e is None else e.group

    def connecting_order(self, space: SpaceId, n: int) -> int | None:
        """Order of the connecting map of the evaluation fibration over S^n."""
        got = self._sections["connecting_orders"].get((canonical_space(space), n))
        return None if got is None else got[0]

    def connecting_citation(self, space: SpaceId, n: int) -> str | None:
        got = self._sections["connecting_orders"].get((canonical_space(space), n))
        return got[1] if got is not None else None

    def sphere_gauge_invariant(self, space: SpaceId, n: int) -> tuple[int, int, str] | None:
        """(j, m, citation) of a row pi_j(G^k(S^n)) = Z/gcd(m, k), if declared."""
        return self._sections["sphere_gauge_invariants"].get((canonical_space(space), n))

    def attaching_image(self, n: int, q: int) -> GeneratorImage | None:
        """Twist-generator image in pi_{n+q-1}(S^q), if declared."""
        return self._sections["attaching_images"].get((n, q))

    def suspended_image(self, n: int, q: int) -> GeneratorImage | None:
        """Suspended twist-generator image in pi_{n+q}(S^{q+1}), if declared."""
        return self._sections["suspended_attaching_images"].get((n, q))

    def merged_over(self, base: "HomotopyTable") -> "HomotopyTable":
        """New table: this table's values taking precedence over ``base``."""
        return HomotopyTable(
            {name: {**base._sections[name], **own} for name, own in self._sections.items()}
        )


def _group(item: dict, key: str, where: str) -> AbelianGroup:
    """``{"free": rank, "torsion": [orders]}``, both optional, as invariant factors."""
    data = read_field(item, key, dict, where)
    where += f".{key}"
    free, torsion = read_field(data, "free", int, where, 0), read_ints(data, "torsion", where, ())
    if len(torsion) > MAX_ORDERS or sum(map(int.bit_length, torsion)) > MAX_ORDER_BITS:
        raise ValueError(f"{where}.torsion must have at most {MAX_ORDERS} orders, "
                         f"of at most {MAX_ORDER_BITS} bits in all")
    return _named(where, AbelianGroup.from_orders, free, torsion)


def _at_least(item: dict, name: str, where: str, least: int) -> int:
    """The integer field ``name``, refused below ``least``."""
    value = read_field(item, name, int, where)
    if value < least:
        want = ("non-negative", "a positive integer")[least] if least < 2 else f"at least {least}"
        raise ValueError(f"{where}.{name} must be {want}, got {value}")
    return value


def _entry(item: dict, where: str):
    space = space_from_dict(read_field(item, "space", dict, where), f"{where}.space")
    degree = _at_least(item, "degree", where, 0)
    citation = read_field(item, "citation", str, where)
    group = _group(item, "group", where)
    if degree % 2 == 0 and group.free_rank and isinstance(space, LieGroup):  # pi_even(G) (x) Q = 0
        raise ValueError(f"{where}.group: pi_{degree}({space}) of a Lie group is finite, got {group}")
    return (canonical_space(space), degree), TableEntry(space, degree, group, citation)


def _over_sphere(item: dict, where: str, *fields: tuple[str, int]):
    """Key (G, n), n a sphere's dimension; value the integer ``fields``, each
    a (name, least value) pair, and the citation."""
    space = space_from_dict({"lie": read_field(item, "lie", dict, where)}, where)
    n = _at_least(item, "n", where, 1)
    values = [_at_least(item, name, where, least) for name, least in fields]
    return (canonical_space(space), n), (*values, read_field(item, "citation", str, where))


def _image(item: dict, where: str):
    key = (_at_least(item, "n", where, 2), _at_least(item, "q", where, 2))  # as in a spec
    target, coeffs = _group(item, "target", where), read_ints(item, "coeffs", where)
    citation = read_field(item, "citation", str, where)
    return key, _named(f"{where}.coeffs", GeneratorImage, target, coeffs, citation)


# The table-file format: each section and the parser of one item to (key, value).
_SECTIONS = {
    "entries": _entry,
    # A connecting map's order, and m of Z/gcd(m, k), are finite: at least 1.
    "connecting_orders": lambda item, where: _over_sphere(item, where, ("order", 1)),
    "sphere_gauge_invariants": lambda item, where: _over_sphere(item, where, ("j", 0), ("m", 1)),
    "attaching_images": _image,
    "suspended_attaching_images": _image,
}


def table_from_data(data) -> HomotopyTable:
    """Build a table from parsed table-file JSON; a bare array is the entries.

    A wrong shape or JSON type, an unknown section or a repeated key is a
    ValueError naming the field; no value is coerced.
    """
    if type(data) is list:
        data = {"entries": data}
    exact(data, dict, "table")
    sections = {}
    for name, items in data.items():
        parse = _SECTIONS.get(name)
        if parse is None:
            raise ValueError(f"table has an unknown section {name!r}")
        section = sections[name] = {}
        for i, item in enumerate(exact(items, list, name)):
            where = f"{name}[{i}]"
            key, value = parse(exact(item, dict, where), where)
            if key in section:
                raise ValueError(f"{where} repeats the key of an earlier item")
            section[key] = value
    return HomotopyTable(sections)


def load_table_file(path: str | os.PathLike) -> HomotopyTable:
    """A user table file: an unreadable or oversized file or invalid JSON is a
    ParseError, wrong content a ValueError."""
    where = f"table file {path}"
    try:
        return table_from_data(decode_json(read_file(path, "table file"), where))
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


@lru_cache(maxsize=1)
def default_table() -> HomotopyTable:
    """The built-in core table shipped with the package."""
    path = os.path.join(os.path.dirname(__file__), "data", "core_tables.json")
    return table_from_data(decode_json(read_file(path, "core table"), "core table"))


def load_tables(paths: Sequence[str | os.PathLike] = ()) -> HomotopyTable:
    """Merge table files over the core; later paths take precedence.  A file
    whose images clash with those beneath it is a ValueError naming it."""
    table = default_table()
    for path in paths:
        table = _named(f"table file {path}", load_table_file(path).merged_over, table)
    return table


def _require_table(table: HomotopyTable | None) -> HomotopyTable:
    return table if table is not None else default_table()


def pi6_order(space: SpaceId, table: HomotopyTable | None = None) -> int:
    """|pi_6(G)| for a simply connected simple compact Lie group G.

    Shipped table entries are consulted first; beyond them the only groups
    with nontrivial pi_6 are SU(2), SU(3) and G2, so every other valid
    group yields 1: Bott periodicity (Bott 1959) for the stable range, and
    Mimura 1967 for low rank.
    """
    if not isinstance(space, LieGroup):
        raise ValueError(f"pi6_order needs a Lie group, got {space}")
    if not is_simply_connected_simple_compact(space):
        raise ValueError(f"{space} is not simply connected simple compact")
    g = canonical_space(space)
    got = _require_table(table).lookup_pi(g, 6)
    if got is not None:
        return cardinality(got)
    if g in _PI6_NONTRIVIAL:
        raise MissingTableError(f"pi_6({g})")
    return 1
