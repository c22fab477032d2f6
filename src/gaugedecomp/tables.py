"""Data-driven tables of homotopy groups and connecting-map orders.

This module is the only source of topological constants in the package.
Every shipped value carries a citation, lookups of absent keys return the
explicit ``UNKNOWN`` marker instead of a default, and user table files are
merged over the built-in core so values can be extended or overridden
without code changes.  Spaces, entries, images and tables are immutable.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from ._record import Record, set_field
from .abelian import AbelianGroup, cardinality

LIE_FAMILIES = ("SU", "Sp", "Spin", "G2", "F4", "E6", "E7", "E8")
_EXCEPTIONAL_RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}


class UnknownValue:
    """Explicit marker for data the tables do not contain."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unknown"


UNKNOWN = UnknownValue()


class MissingTableError(LookupError):
    """A required table entry is absent; ``key`` names what was needed."""

    def __init__(self, key: str):
        super().__init__(f"missing table entry: {key}")
        self.key = key


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
        if family in _EXCEPTIONAL_RANK:
            if rank != _EXCEPTIONAL_RANK[family]:
                raise ValueError(f"{family} has rank {_EXCEPTIONAL_RANK[family]}")
        elif family == "SU" and rank < 2:
            raise ValueError("SU(m) needs m >= 2")
        elif family == "Sp" and rank < 1:
            raise ValueError("Sp(m) needs m >= 1")
        elif family == "Spin" and rank < 3:
            raise ValueError("Spin(m) needs m >= 3")
        set_field(self, "family", family)
        set_field(self, "rank", rank)

    def __str__(self):
        if self.family in _EXCEPTIONAL_RANK:
            return self.family
        return f"{self.family}({self.rank})"


SpaceId = Sphere | LieGroup

G2 = LieGroup("G2", 2)
F4 = LieGroup("F4", 4)
E6 = LieGroup("E6", 6)
E7 = LieGroup("E7", 7)
E8 = LieGroup("E8", 8)


def SU(m: int) -> LieGroup:
    return LieGroup("SU", m)


def Sp(m: int) -> LieGroup:
    return LieGroup("Sp", m)


def Spin(m: int) -> LieGroup:
    return LieGroup("Spin", m)


_ALIASES = {Sp(1): SU(2), Spin(3): SU(2), Spin(5): Sp(2), Spin(6): SU(4)}
_PI6_NONTRIVIAL = (SU(2), SU(3), G2)


def canonical_space(space: SpaceId) -> SpaceId:
    """Fold the classical low-rank isomorphisms onto one representative.

    Sp(1) and Spin(3) are SU(2); Spin(5) is Sp(2); Spin(6) is SU(4).
    Spin(4) is not simple and is left untouched.
    """
    return _ALIASES.get(space, space)


def is_simply_connected_simple_compact(space: SpaceId) -> bool:
    if not isinstance(space, LieGroup):
        return False
    if space.family == "Spin" and space.rank == 4:
        return False
    return True


def space_to_dict(space: SpaceId) -> dict:
    if isinstance(space, Sphere):
        return {"sphere": space.dim}
    return {"lie": {"family": space.family, "rank": space.rank}}


def space_from_dict(data: dict) -> SpaceId:
    if "sphere" in data:
        return Sphere(int(data["sphere"]))
    if "lie" in data:
        lie = data["lie"]
        return LieGroup(str(lie["family"]), int(lie["rank"]))
    raise ValueError(f"cannot parse space id from {data!r}")


class TableEntry(Record):
    __slots__ = ("space", "degree", "group", "citation")

    def __init__(self, space: SpaceId, degree: int, group: AbelianGroup, citation: str):
        set_field(self, "space", space)
        set_field(self, "degree", degree)
        set_field(self, "group", group)
        set_field(self, "citation", citation)


class GeneratorImage(Record):
    """Image of the standard twist generator inside a presented target group.

    ``target`` is the receiving group in invariant-factor form and
    ``coeffs`` are the image's coefficients over its generators.
    """

    __slots__ = ("target", "coeffs", "citation")

    def __init__(self, target: AbelianGroup, coeffs: tuple[int, ...], citation: str):
        if len(coeffs) != target.generator_count:
            raise ValueError("image coefficients do not match the target generators")
        set_field(self, "target", target)
        set_field(self, "coeffs", coeffs)
        set_field(self, "citation", citation)


class HomotopyTable:
    """Immutable store of homotopy groups and connecting-map orders."""

    def __init__(
        self,
        entries: Iterable[TableEntry] = (),
        connecting: dict[tuple[SpaceId, int], tuple[int, str]] | None = None,
        attaching_images: dict[tuple[int, int], GeneratorImage] | None = None,
        suspended_images: dict[tuple[int, int], GeneratorImage] | None = None,
    ):
        self._entries: dict[tuple[SpaceId, int], TableEntry] = {}
        for e in entries:
            self._entries[(e.space, e.degree)] = e
        self._connecting = dict(connecting or {})
        self._attaching_images = dict(attaching_images or {})
        self._suspended_images = dict(suspended_images or {})

    def entries(self) -> list[TableEntry]:
        return sorted(self._entries.values(), key=lambda e: (str(e.space), e.degree))

    def entry(self, space: SpaceId, degree: int) -> TableEntry | None:
        return self._entries.get((canonical_space(space), degree))

    def lookup_pi(self, space: SpaceId, degree: int) -> AbelianGroup | UnknownValue:
        """The homotopy group pi_degree(space), or UNKNOWN when not shipped."""
        e = self.entry(space, degree)
        return e.group if e is not None else UNKNOWN

    def connecting_order(self, space: SpaceId, n: int) -> int | UnknownValue:
        """Order of the connecting map of the evaluation fibration over S^n."""
        got = self._connecting.get((canonical_space(space), n))
        return got[0] if got is not None else UNKNOWN

    def connecting_citation(self, space: SpaceId, n: int) -> str | None:
        got = self._connecting.get((canonical_space(space), n))
        return got[1] if got is not None else None

    def attaching_image(self, n: int, q: int) -> GeneratorImage | None:
        """Twist-generator image in pi_{n+q-1}(S^q), if declared."""
        return self._attaching_images.get((n, q))

    def suspended_image(self, n: int, q: int) -> GeneratorImage | None:
        """Suspended twist-generator image in pi_{n+q}(S^{q+1}), if declared."""
        return self._suspended_images.get((n, q))

    def merged_over(self, base: "HomotopyTable") -> "HomotopyTable":
        """New table: this table's values taking precedence over ``base``."""
        out = HomotopyTable()
        out._entries = {**base._entries, **self._entries}
        out._connecting = {**base._connecting, **self._connecting}
        out._attaching_images = {**base._attaching_images, **self._attaching_images}
        out._suspended_images = {**base._suspended_images, **self._suspended_images}
        return out


def _image_from_dict(item: dict) -> tuple[tuple[int, int], GeneratorImage]:
    key = (int(item["n"]), int(item["q"]))
    image = GeneratorImage(
        AbelianGroup.from_dict(item["target"]),
        tuple(int(c) for c in item["coeffs"]),
        str(item["citation"]),
    )
    return key, image


def table_from_data(data: dict | list) -> HomotopyTable:
    """Build a table from parsed JSON; duplicate keys within the data error."""
    if isinstance(data, list):
        data = {"entries": data}
    entries = {}
    for item in data.get("entries", ()):
        space = space_from_dict(item["space"])
        degree = int(item["degree"])
        key = (space, degree)
        if key in entries:
            raise ValueError(f"duplicate table key: pi_{degree}({space})")
        entries[key] = TableEntry(
            space, degree, AbelianGroup.from_dict(item["group"]), str(item["citation"])
        )
    connecting = {}
    for item in data.get("connecting_orders", ()):
        space = space_from_dict({"lie": item["lie"]})
        key = (space, int(item["n"]))
        if key in connecting:
            raise ValueError(f"duplicate connecting order for {space} over S^{item['n']}")
        order = int(item["order"])
        if order < 1:
            raise ValueError(
                f"connecting order for {space} over S^{item['n']} must be a "
                f"positive integer (it is always finite), got {order}"
            )
        connecting[key] = (order, str(item["citation"]))
    attaching = {}
    for item in data.get("attaching_images", ()):
        key, image = _image_from_dict(item)
        if key in attaching:
            raise ValueError(f"duplicate attaching image for (n, q)={key}")
        attaching[key] = image
    suspended = {}
    for item in data.get("suspended_attaching_images", ()):
        key, image = _image_from_dict(item)
        if key in suspended:
            raise ValueError(f"duplicate suspended attaching image for (n, q)={key}")
        suspended[key] = image
    return HomotopyTable(entries.values(), connecting, attaching, suspended)


def load_table_file(path: str | Path) -> HomotopyTable:
    with open(path) as f:
        return table_from_data(json.load(f))


@lru_cache(maxsize=1)
def default_table() -> HomotopyTable:
    """The built-in core table shipped with the package."""
    text = resources.files("gaugedecomp").joinpath("data/core_tables.json").read_text()
    return table_from_data(json.loads(text))


def load_tables(paths: Sequence[str | Path] = ()) -> HomotopyTable:
    """Merge table files over the core; later paths take precedence."""
    table = default_table()
    for path in paths:
        table = load_table_file(path).merged_over(table)
    return table


def _require_table(table: HomotopyTable | None) -> HomotopyTable:
    return table if table is not None else default_table()


def pi6_order(space: SpaceId, table: HomotopyTable | None = None) -> int:
    """|pi_6(G)| for a simply connected simple compact Lie group G.

    Shipped table entries are consulted first; beyond them the only groups
    with nontrivial pi_6 are SU(2), SU(3) and G2, so every other valid
    group yields 1.
    """
    if not isinstance(space, LieGroup):
        raise ValueError(f"pi6_order needs a Lie group, got {space}")
    if not is_simply_connected_simple_compact(space):
        raise ValueError(f"{space} is not simply connected simple compact")
    g = canonical_space(space)
    got = _require_table(table).lookup_pi(g, 6)
    if got is not UNKNOWN:
        size = cardinality(got)
        if size == 0:
            raise ValueError(f"table claims infinite pi_6({g}); it must be finite")
        return size
    if g in _PI6_NONTRIVIAL:
        raise MissingTableError(f"pi_6({g})")
    return 1


def stable_condition(space: SpaceId, n: int, q: int) -> str | None:
    """Which stable-range clause (n, q, G) satisfies: "SU", "Sp", or None.

    SU(m) needs n = 2k, q = 2k'-1, 2 <= k' <= k and k + k' <= m;
    Sp(m) needs n = 4k, q = 4k'-1, 1 <= k' <= k and k + k' <= m.
    """
    if not isinstance(space, LieGroup):
        return None
    if space.family == "SU" and n % 2 == 0 and q % 2 == 1:
        k, kp = n // 2, (q + 1) // 2
        if 2 <= kp <= k and k + kp <= space.rank:
            return "SU"
    if space.family == "Sp" and n % 4 == 0 and q % 4 == 3:
        k, kp = n // 4, (q + 1) // 4
        if 1 <= kp <= k and k + kp <= space.rank:
            return "Sp"
    return None

