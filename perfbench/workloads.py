"""Seeded query generators for the four workloads, and how each query runs.

A workload yields rounds: lists of queries, plain JSON-like dicts.  Every
round of a workload has the same make-up (kinds and sizes) and fresh seeded
values, so a run of whole rounds measures the same mix whatever the seed.
The program only ever sees the generated inputs.

A query runs either in-process (``call`` builds the package's objects from
the plain inputs and makes the library call; this is the timed part) or as
one CLI process (``cli_argv``).  ``payload`` turns an in-process result into
the JSON shape the CLI prints, and ``check`` runs the independent oracle on
that shape.
"""

from __future__ import annotations

import random

import oracle

WORKLOADS = ("cli-oneshot", "query-mix", "wide-sum", "dense-kernel")

# Every group the tables know, in canonical form, plus Spin(4), which no
# clause covers.
MIX_GROUPS = (
    "SU2", "SU3", "SU4", "SU6", "Sp2", "Sp3", "Spin4", "Spin7", "Spin9",
    "G2", "F4", "E6", "E7", "E8",
)
MIX_KINDS = (("classify", 16), ("decompose", 16), ("pointed", 16), ("equivalent", 20), ("pi", 16), ("splitting", 16))
# The median of a round falls inside the r = 200 group and the tail (p90)
# near the middle of the three pi queries at r = 100, away from the edges
# between groups of different cost, so that neither jumps when the number of
# rounds changes.
WIDE_KINDS = tuple(
    [(kind, r) for kind in ("decompose", "pointed", "splitting") for r in (50, 100, 200, 400)]
    + [("pi", r) for r in (50, 100, 100, 100)]
)
WIDE_GROUPS = ("SU2", "SU3", "G2", "E8")
WIDE_BITS = (4, 16, 64)
# n = 4..24 and 8..256-bit entries, without the costliest corners (16 and
# 24 at 256 bits, 24 at 64 bits): a round stays near half a second, so a
# run holds enough rounds for the tail to fall inside the costliest cells.
DENSE_CELLS = (
    (4, 8), (4, 64), (4, 256), (8, 8), (8, 64), (8, 256),
    (12, 8), (12, 64), (16, 8), (16, 64), (24, 8),
)
DENSE_KINDS = ("echelon_int", "echelon_mixed", "smith", "det", "orbit", "bezout")
# One round of the CLI workload: all 8 subcommands (decompose twice, pointed
# and not; tables both as a listing and a lookup), each with or without a
# user table file.
CLI_ROUND = (
    ("classify", False),
    ("decompose", True),
    ("pointed", False),
    ("equivalent", True),
    ("pi", True),
    ("splitting", False),
    ("orbit-reduce", False),
    ("echelon", False),
    ("tables", False),
    ("lookup", True),
)

# User table files for the CLI workload: connecting-map orders over S^4
# that the core tables lack, and one homotopy group.
USER_TABLES = {
    "orders": {
        "connecting_orders": [
            {"lie": {"family": "SU", "rank": 3}, "n": 4, "order": 24,
             "citation": "Hamanaka-Kono (2006), Unstable K^1-group and homotopy type of certain gauge groups"},
            {"lie": {"family": "Sp", "rank": 2}, "n": 4, "order": 40,
             "citation": "Theriault (2010), The homotopy types of Sp(2)-gauge groups"},
        ]
    },
    "su3pi7": {
        "entries": [
            {"space": {"lie": {"family": "SU", "rank": 3}}, "degree": 7,
             "group": {"free": 0, "torsion": []}, "citation": "Mimura-Toda (1964), Homotopy groups of SU(3), SU(4) and Sp(2)"},
        ]
    },
}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def rounds(workload: str, seed: int, tables: oracle.RawTables):
    """Endless generator of rounds of queries for ``workload``."""
    rng = rng_for(workload, seed)
    make = {
        "cli-oneshot": _cli_round,
        "query-mix": _mix_round,
        "wide-sum": _wide_round,
        "dense-kernel": _dense_round,
    }[workload]
    state: dict = {}
    while True:
        yield make(rng, tables, state)


def _signed(rng, bits):
    return rng.getrandbits(bits) - (1 << (bits - 1))


def _spec_query(kind, group, xi, rng, tables):
    q = {"kind": kind, "xi": list(xi)}
    if kind != "splitting":
        q["group"] = group
    r = len(xi)
    if kind == "decompose":
        q["ks"] = [rng.randint(-30, 30) for _ in range(r)]
    elif kind == "equivalent":
        q["ks"] = [rng.randint(-30, 30) for _ in range(r)]
        q["ks2"] = [rng.randint(-30, 30) for _ in range(r)]
    elif kind == "pi":
        q["j"] = rng.randint(0, 3)
    gated = kind in ("decompose", "pointed", "equivalent", "pi")
    q["error"] = gated and not oracle.decomposable(tables, oracle.parse_group(group), xi)
    return q


def _mix_round(rng, tables, state):
    if "pool" not in state:
        # A small pool of manifolds, so that queries repeat (group, spec).
        pool = []
        for i in range(48):
            r = 1 + i % 8
            xi = [rng.randint(-24, 24) for _ in range(r)]
            if i % 6 == 5:
                xi = [12 * rng.randint(-2, 2) for _ in range(r)]
            pool.append(xi)
        state["pool"] = pool
    pool = state["pool"]
    # gauge_decomposition at r = 1 is left out: it takes a single-sphere
    # shortcut that the (4, 3) formula does not describe.
    wide = [xi for xi in pool if len(xi) >= 2]
    out = []
    for kind, count in MIX_KINDS:
        for _ in range(count):
            xi = rng.choice(wide if kind == "decompose" else pool)
            out.append(_spec_query(kind, rng.choice(MIX_GROUPS), xi, rng, tables))
    rng.shuffle(out)
    return out


def _wide_round(rng, tables, state):
    seen = state.setdefault("seen", set())
    out = []
    for kind, r in WIDE_KINDS:
        while True:
            bits = rng.choice(WIDE_BITS)
            xi = tuple(_signed(rng, bits) for _ in range(r))
            group = "SU2" if kind == "pi" else rng.choice(WIDE_GROUPS)
            if hash(xi) not in seen and oracle.decomposable(tables, oracle.parse_group(group), xi):
                break
        # Hashes, not the specs, so the harness's memory stays small.
        seen.add(hash(xi))
        q = _spec_query(kind, group, xi, rng, tables)
        if kind == "decompose":
            q["ks"] = [_signed(rng, bits) for _ in range(r)]
        elif kind == "pi":
            q["j"] = rng.choice((2, 3))
        out.append(q)
    rng.shuffle(out)
    return out


def _matrix(rng, rows, cols, bits):
    return [[_signed(rng, bits) for _ in range(cols)] for _ in range(rows)]


def _modulus(rng, bits):
    return rng.getrandbits(bits) | 2


def dense_query(rng, kind, n, bits):
    q = {"kind": kind, "n": n, "bits": bits}
    if kind == "bezout":
        q["a"], q["b"] = _signed(rng, bits), _signed(rng, bits)
    elif kind == "orbit":
        q["modulus"] = _modulus(rng, bits)
        q["x"] = [_signed(rng, bits) for _ in range(n)]
    else:
        q["matrix"] = _matrix(rng, n, n, bits)
        if kind == "echelon_mixed":
            q["moduli"] = [0 if j % 3 == 0 else _modulus(rng, bits) for j in range(n)]
        elif kind == "echelon_int":
            q["moduli"] = [0] * n
    return q


def _dense_round(rng, tables, state):
    out = [dense_query(rng, kind, n, bits) for n, bits in DENSE_CELLS for kind in DENSE_KINDS]
    rng.shuffle(out)
    return out


def _cli_round(rng, tables, state):
    out = []
    for kind, user_tables in CLI_ROUND:
        if kind == "orbit-reduce":
            n = rng.randint(2, 4)
            q = {"kind": kind, "modulus": rng.choice((0, 4, 12, 30)), "x": [rng.randint(-40, 40) for _ in range(n)]}
        elif kind == "echelon":
            rows, cols = rng.randint(2, 4), rng.randint(2, 4)
            q = {"kind": kind, "matrix": _matrix(rng, rows, cols, 6), "moduli": [rng.choice((0, 0, 6, 12)) for _ in range(cols)]}
        elif kind == "tables":
            q = {"kind": kind}
        elif kind == "lookup":
            space = rng.choice(("SU2", "SU3", "SU4", "G2", "E8", "sphere:3", "sphere:4"))
            q = {"kind": "tables", "lookup": [space, rng.randint(3, 7)]}
        else:
            r = rng.randint(2, 4) if kind == "decompose" else rng.randint(1, 4)
            xi = [rng.randint(-24, 24) for _ in range(r)]
            q = _spec_query(kind, rng.choice(("SU2", "SU3", "Sp2", "G2", "E8")), xi, rng, tables)
        q.setdefault("error", False)
        if user_tables:
            q["tables"] = sorted(USER_TABLES)[: rng.randint(1, 2)]
        out.append(q)
    rng.shuffle(out)
    return out


# -- running one query ----------------------------------------------------


def _group(gd, name):
    family, rank = oracle.parse_group(name)
    return gd.LieGroup(family, rank)


def _spec(gd, xi):
    return gd.ConnectedSumSpec(4, 3, tuple(xi))


def call(gd, table, q):
    """The timed part of an in-process query: build inputs, call the library."""
    kind = q["kind"]
    if kind == "classify":
        group, spec = _group(gd, q["group"]), _spec(gd, q["xi"])
        case = gd.classify_conditions(group, spec, table)
        return case, gd.principal_bundles(group, spec, table) if case.is_bijective else None
    if kind == "decompose":
        return gd.gauge_decomposition(_group(gd, q["group"]), _spec(gd, q["xi"]), q["ks"], table)
    if kind == "pointed":
        return gd.pointed_gauge_decomposition(_group(gd, q["group"]), _spec(gd, q["xi"]), None, table)
    if kind == "equivalent":
        return gd.gauge_equivalent(_group(gd, q["group"]), _spec(gd, q["xi"]), q["ks"], q["ks2"], table)
    if kind == "pi":
        return gd.pointed_gauge_pi(_group(gd, q["group"]), _spec(gd, q["xi"]), q["j"], table)
    if kind == "splitting":
        return gd.suspension_splitting(_spec(gd, q["xi"]), table)
    if kind == "echelon_int":
        d, b = gd.row_echelon_int(gd.IntMatrix.from_rows(q["matrix"]))
        return d, b, d.det()
    if kind == "echelon_mixed":
        moduli = [gd.Modulus(m) for m in q["moduli"]]
        d, b = gd.row_echelon_mixed(gd.MixedMatrix.from_rows(moduli, q["matrix"]))
        return d, b, d.det()
    if kind == "smith":
        return gd.smith_invariants(gd.IntMatrix.from_rows(q["matrix"]))
    if kind == "det":
        return gd.IntMatrix.from_rows(q["matrix"]).det()
    if kind == "orbit":
        cert = gd.orbit_reduce(gd.Modulus(q["modulus"]), q["x"])
        return cert, cert.transform.det()
    if kind == "bezout":
        return gd.bezout(q["a"], q["b"])
    raise ValueError(f"unknown query kind {kind!r}")


def payload(gd, q, result) -> dict:
    """An in-process result in the shape of the matching CLI JSON payload."""
    kind = q["kind"]
    if kind == "classify":
        case, bundles = result
        out = {"case": case.kind}
        if bundles is not None and bundles.free_rank is not None:
            out["bundles"] = {"free_rank": bundles.free_rank}
        return out
    if kind in ("decompose", "pointed", "pi", "splitting"):
        return result.to_dict()
    if kind == "equivalent":
        return {"verdict": result.verdict}
    if kind in ("echelon_int", "echelon_mixed"):
        d, b, det = result
        return {"transform": d.to_lists(), "echelon": b.to_lists(), "det": det}
    if kind == "smith":
        return {"invariants": list(result)}
    if kind == "det":
        return {"det": result}
    if kind == "orbit":
        cert, det = result
        return {
            "canonical": [c.value for c in cert.canonical],
            "gcd": cert.divisor,
            "transform": cert.transform.to_lists(),
            "det": det,
            "verified": cert.verify(q["x"]),
        }
    if kind == "bezout":
        g, u, v = result
        return {"g": g, "u": u, "v": v}
    raise ValueError(f"unknown query kind {kind!r}")


def cli_argv(q, table_paths: dict) -> list[str]:
    kind = q["kind"]
    argv = ["decompose" if kind == "pointed" else kind, "--json"]
    if "group" in q:
        argv.append(f"--group={q['group']}")
    if "xi" in q:
        argv.append('--spec={"n":4,"q":3,"xi":[%s]}' % ",".join(map(str, q["xi"])))
    if kind == "pointed":
        argv.append("--pointed")
    if "ks" in q:
        argv.append("--k=" + ",".join(map(str, q["ks"])))
    if "ks2" in q:
        argv.append("--k2=" + ",".join(map(str, q["ks2"])))
    if "j" in q:
        argv.append(f"--j={q['j']}")
    if kind == "orbit-reduce":
        argv += [f"--m={q['modulus']}", "--x=" + ",".join(map(str, q["x"]))]
    if kind == "echelon":
        argv += [str(q["matrix"]).replace(" ", ""), "--m=" + ",".join(map(str, q["moduli"]))]
    if "lookup" in q:
        argv.append("--lookup=%s,%d" % tuple(q["lookup"]))
    for name in q.get("tables", ()):
        argv.append(f"--tables={table_paths[name]}")
    return argv


def check(tables: oracle.RawTables, q, out: dict) -> str | None:
    """Run the oracle for query ``q`` on payload ``out``."""
    if "tables" in q:
        tables = tables.merged(*(USER_TABLES[name] for name in q["tables"]))
    kind = q["kind"]
    group = oracle.parse_group(q["group"]) if "group" in q else None
    if kind == "classify":
        return oracle.check_classify(tables, group, q["xi"], out)
    if kind == "decompose":
        return oracle.check_decomposition(tables, group, q["xi"], q["ks"], out["expression"] if "expression" in out else out)
    if kind == "pointed":
        return oracle.check_decomposition(tables, group, q["xi"], None, out["expression"] if "expression" in out else out)
    if kind == "equivalent":
        return oracle.check_equivalent(tables, group, q["ks"], q["ks2"], out)
    if kind == "pi":
        return oracle.check_pi(tables, group, q["xi"], q["j"], out)
    if kind == "splitting":
        return oracle.check_splitting(tables, q["xi"], out)
    if kind in ("echelon_int", "echelon_mixed", "echelon"):
        return oracle.check_echelon(q["matrix"], q["moduli"], out)
    if kind in ("orbit", "orbit-reduce"):
        return oracle.check_orbit(q["modulus"], q["x"], out)
    if kind == "smith":
        return oracle.check_smith(q["matrix"], out)
    if kind == "det":
        return oracle.check_det(q["matrix"], out)
    if kind == "bezout":
        return oracle.check_bezout(q["a"], q["b"], out)
    if kind == "tables":
        if "lookup" in q:
            return oracle.check_lookup(tables, q["lookup"][0], q["lookup"][1], out)
        return None if out.get("count") == len(tables.pi) else f"listing has {out.get('count')} entries, tables {len(tables.pi)}"
    raise ValueError(f"unknown query kind {kind!r}")
