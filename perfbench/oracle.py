"""Independent checks of gaugedecomp outputs.

Nothing here calls the package.  Decomposition results are compared with
the closed (n, q) = (4, 3) formulas, computed from the raw table JSON;
kernel results are checked through their certificates (D.A = B in each
column's ring, det D = +-1, echelon shape, orbit transform) and through
an independent determinant.  Every check works on the JSON payload shape
the CLI prints, so one checker covers in-process and CLI results.

A check returns None when the payload is right and a short reason when it
is wrong.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

# Primes for modular determinants of transforms whose entries are too big
# for a fast exact determinant.
PRIMES = (2305843009213693951, 1000000007, 998244353)
ALIASES = {("Sp", 1): ("SU", 2), ("Spin", 3): ("SU", 2), ("Spin", 5): ("Sp", 2), ("Spin", 6): ("SU", 4)}
BIJECTIVE_CASE = "Dim7_pi6coprime"


def parse_group(name: str) -> tuple[str, int]:
    m = re.fullmatch(r"(SU|Sp|Spin)(\d+)|(G2|F4|E6|E7|E8)", name)
    if not m:
        raise ValueError(f"bad group name {name!r}")
    if m.group(3):
        return m.group(3), int(m.group(3)[1])
    return m.group(1), int(m.group(2))


class RawTables:
    """Table values read straight from the JSON files, later files winning."""

    def __init__(self, core_path: Path):
        self.pi: dict = {}
        self.orders: dict = {}
        self.suspended: dict = {}
        self.add(json.loads(core_path.read_text()))

    def add(self, data: dict) -> None:
        for e in data.get("entries", ()):
            space = e["space"]
            key = ("S", space["sphere"]) if "sphere" in space else (space["lie"]["family"], space["lie"]["rank"])
            group = e["group"]
            self.pi[(key, e["degree"])] = (group.get("free", 0), tuple(group.get("torsion", ())))
        for e in data.get("connecting_orders", ()):
            self.orders[((e["lie"]["family"], e["lie"]["rank"]), e["n"])] = e["order"]
        for e in data.get("suspended_attaching_images", ()):
            self.suspended[(e["n"], e["q"])] = (tuple(e["target"]["torsion"]), e["target"]["free"], tuple(e["coeffs"]))

    def merged(self, *extra: dict) -> "RawTables":
        out = object.__new__(RawTables)
        out.pi, out.orders, out.suspended = dict(self.pi), dict(self.orders), dict(self.suspended)
        for data in extra:
            out.add(data)
        return out

    def lookup(self, group, degree):
        return self.pi.get((ALIASES.get(group, group), degree))

    def order(self, group, n=4):
        return self.orders.get((ALIASES.get(group, group), n))

    def pi6_order(self, group) -> int:
        got = self.lookup(group, 6)
        return math.prod(got[1]) if got else 1


# -- the (4, 3) formulas -------------------------------------------------


def decomposable(tables: RawTables, group: tuple[str, int], xi) -> bool:
    """Whether the seven-dimensional clause classifies bundles, so that
    decompositions exist: G simple and gcd(|pi_6(G)|, xi) = 1."""
    if group == ("Spin", 4):
        return False
    return math.gcd(tables.pi6_order(group), *xi) == 1


def suspension_rank(tables: RawTables, xi) -> int:
    torsion, free, coeffs = tables.suspended[(4, 3)]
    if free or len(torsion) != 1:
        raise ValueError("the oracle handles a single Z/s target column only")
    s, c = torsion[0], coeffs[0]
    return 1 if any((v * c) % s for v in xi) else 0


def invariant_factors(orders) -> list[int]:
    """Invariant factors of a sum of cyclic groups, by primary decomposition."""
    by_prime: dict[int, list[int]] = {}
    for s in orders:
        p = 2
        while s > 1:
            if p * p > s:
                p = s
            e = 1
            while s % p == 0:
                s //= p
                e *= p
            if e > 1:
                by_prime.setdefault(p, []).append(e)
            p += 1
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * width
    for powers in by_prime.values():
        for i, q in enumerate(sorted(powers, reverse=True)):
            factors[i] *= q
    return sorted(f for f in factors if f > 1)


def _multiset(items):
    return sorted(json.dumps(i, sort_keys=True) for i in items)


def expected_factors(tables, group, xi, ks=None):
    r, tbar = len(xi), suspension_rank(tables, xi)
    out = []
    if ks is not None:
        order = tables.order(group)
        g = math.gcd(*ks)
        level = math.gcd(order, g) if order is not None else f"gcd(o(d_1), {g})"
        out.append({"kind": "sphere_gauge", "base_dim": 4, "level": level, "multiplicity": 1})
        loops4 = r - 1
    else:
        loops4 = r
    for degree, mult in ((4, loops4), (3, r - tbar)):
        if mult > 0:
            out.append({"kind": "loop_space", "degree": degree, "multiplicity": mult})
    out.append({"kind": "pointed_maps", "cofibre_spheres": tbar, "multiplicity": 1})
    return out


def check_decomposition(tables, group, xi, ks, payload) -> str | None:
    keep = ("kind", "base_dim", "level", "degree", "cofibre_spheres", "multiplicity")
    got = [{k: f[k] for k in keep if k in f} for f in payload["factors"]]
    want = expected_factors(tables, group, xi, ks)
    if _multiset(got) != _multiset(want):
        return f"factors {got} != expected {want}"
    return None


def check_classify(tables, group, xi, payload) -> str | None:
    if decomposable(tables, group, xi):
        if payload.get("case") != BIJECTIVE_CASE or payload.get("bundles", {}).get("free_rank") != len(xi):
            return f"expected {BIJECTIVE_CASE} with Z^{len(xi)}, got {payload}"
    elif payload.get("case") != "Unsupported":
        return f"expected Unsupported, got {payload.get('case')}"
    return None


def check_equivalent(tables, group, ks, ks2, payload) -> str | None:
    order = tables.order(group)
    if order is None:
        same = math.gcd(*ks) == math.gcd(*ks2)
        differ = "Unknown"
    else:
        same = math.gcd(order, *ks) == math.gcd(order, *ks2)
        differ = "NotEquivalent" if ALIASES.get(group, group) == ("SU", 2) else "Unknown"
    want = "Equivalent" if same else differ
    if payload.get("verdict") != want:
        return f"verdict {payload.get('verdict')} != {want}"
    return None


def check_pi(tables, group, xi, j, payload) -> str | None:
    r, tbar = len(xi), suspension_rank(tables, xi)
    free, orders, symbolic = 0, [], 0
    terms = [(j + 4, r), (j + 3, r - tbar)]
    if tbar == 0:
        terms.append((j + 7, 1))
    for degree, mult in terms:
        if mult <= 0:
            continue
        got = tables.lookup(group, degree)
        if got is None:
            symbolic += 1
        else:
            free += got[0] * mult
            orders.extend(list(got[1]) * mult)
    residues = sorted(v % 12 for v in xi)
    remark = residues[-1] == 1 and not any(residues[:-1])
    if tbar and not (j == 0 and remark):
        symbolic += 1
    want = {"free": free, "torsion": invariant_factors(orders)}
    if payload["known"] != want:
        return f"known part {payload['known']} != {want}"
    if len(payload["symbolic"]) != symbolic:
        return f"{len(payload['symbolic'])} symbolic terms, expected {symbolic}"
    return None


def check_splitting(tables, xi, payload) -> str | None:
    r, tbar = len(xi), suspension_rank(tables, xi)
    spheres = [{"dim": 5, "count": r}] + ([{"dim": 4, "count": r - tbar}] if r > tbar else [])
    cof = payload["cofibre"]
    want_label = "Sigma Y_F" if tbar else "S^8"
    if payload["spheres"] != spheres or cof["sphere_count"] != tbar or cof["label"] != want_label:
        return f"splitting {payload} != spheres {spheres}, cofibre {tbar} ({want_label})"
    return None


def check_lookup(tables, space: str, degree: int, payload) -> str | None:
    key = ("S", int(space.split(":")[1])) if space.startswith("sphere:") else parse_group(space)
    got = tables.lookup(key, degree)
    want = "Unknown" if got is None else {"free": got[0], "torsion": list(got[1])}
    if payload.get("group") != want:
        return f"lookup {payload.get('group')} != {want}"
    return None


# -- the exact kernel ----------------------------------------------------


def det_exact(rows) -> int:
    """Determinant by Bareiss elimination (written independently here)."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk = a[k][k]
        rowk = a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * rowk[j]) // prev
        prev = akk
    return sign * a[n - 1][n - 1]


def det_mod(rows, p: int) -> int:
    a = [[v % p for v in r] for r in rows]
    n, det = len(a), 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det % p


def rank_mod(rows, p: int) -> int:
    a = [[v % p for v in r] for r in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col] * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def unimodular(rows) -> bool:
    """det = +1 or det = -1, tested modulo large primes."""
    dets = [det_mod(rows, p) for p in PRIMES]
    return all(d == 1 for d in dets) or all(d == p - 1 for d, p in zip(dets, PRIMES))


def check_echelon(matrix, moduli, payload) -> str | None:
    d, b = payload["transform"], payload["echelon"]
    n, cols = len(matrix), len(moduli)
    if len(d) != n or any(len(row) != n for row in d) or len(b) != n or any(len(row) != cols for row in b):
        return "transform or echelon form has the wrong shape"
    for j, m in enumerate(moduli):
        for i in range(n):
            diff = sum(d[i][k] * matrix[k][j] for k in range(n)) - b[i][j]
            if (diff % m if m else diff) != 0:
                return f"D.A != B at ({i}, {j})"
            if m and not 0 <= b[i][j] < m:
                return f"entry ({i}, {j}) not reduced mod {m}"
    if not unimodular(d):
        return "transform is not unimodular"
    if "det" in payload and payload["det"] not in (1, -1):
        return f"reported det {payload['det']}"
    prev = -1
    for i, row in enumerate(b):
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None:
            if any(any(r) for r in b[i:]):
                return "zero row above a nonzero row"
            break
        if lead <= prev:
            return "leading entries do not move right"
        pivot = row[lead]
        if pivot <= 0 or any(not 0 <= b[k][lead] < pivot for k in range(i)):
            return f"pivot column {lead} not normalised"
        prev = lead
    return None


def check_orbit(modulus: int, x, payload) -> str | None:
    t, canon = payload["transform"], payload["canonical"]
    d = math.gcd(modulus, *x)
    head = d % modulus if modulus else d
    if canon != [head] + [0] * (len(x) - 1) or payload.get("gcd") != d:
        return f"canonical form {canon} != ({head}, 0, ...)"
    for i, row in enumerate(t):
        diff = sum(a * b for a, b in zip(row, x)) - canon[i]
        if (diff % modulus if modulus else diff) != 0:
            return f"transform row {i} does not reach the canonical form"
    if not unimodular(t) or payload.get("det", 1) not in (1, -1):
        return "orbit transform is not unimodular"
    if payload.get("verified") is False:
        return "OrbitCertificate.verify failed"
    return None


def check_smith(matrix, payload) -> str | None:
    inv = payload["invariants"]
    if any(v <= 0 for v in inv) or any(b % a for a, b in zip(inv, inv[1:])):
        return f"invariants {inv} are not a positive divisibility chain"
    entries_gcd = math.gcd(*(v for row in matrix for v in row))
    if inv and inv[0] != entries_gcd:
        return f"first invariant {inv[0]} != gcd of entries {entries_gcd}"
    det = det_exact(matrix) if len(matrix) == len(matrix[0]) else 0
    if det:
        if len(inv) != len(matrix) or math.prod(inv) != abs(det):
            return "product of invariants != |det|"
    elif len(inv) != max(rank_mod(matrix, p) for p in PRIMES):
        return "number of invariants != rank"
    return None


def check_det(matrix, payload) -> str | None:
    want = det_exact(matrix)
    return None if payload["det"] == want else f"det {payload['det']} != {want}"


def check_bezout(a: int, b: int, payload) -> str | None:
    g, u, v = payload["g"], payload["u"], payload["v"]
    if g != math.gcd(a, b) or u * a + v * b != g:
        return f"bezout ({g}, {u}, {v}) is not a gcd certificate for ({a}, {b})"
    return None
