"""Command-line interface.

Every subcommand computes a JSON payload (printed with ``--json``) whose
``pretty`` field is the human-readable report printed otherwise, so the
two outputs never diverge.  Output is deterministic for fixed inputs and
tables.

Exit codes: 0 success; 1 domain error (unsupported case, missing table
key, violated precondition); 2 parse error (bad JSON, bad flag values,
spec or table files that cannot be read or exceed 1 MiB, an ``echelon``
or ``orbit-reduce`` input of more than MAX_ROWS rows).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._record import ParseError, decode_json, read_file
from .classify import classify_conditions, principal_bundles
from .decompose import (
    gauge_decomposition,
    gauge_equivalent,
    pointed_gauge_decomposition,
    pointed_gauge_pi,
)
from .manifolds import ConnectedSumSpec, suspension_splitting
from .matrices import MixedMatrix, orbit_reduce, row_echelon_mixed
from .residues import Modulus
from .tables import (
    _EXCEPTIONAL_RANK,
    LieGroup,
    SpaceId,
    Sphere,
    load_tables,
    space_to_dict,
)

TABLES_ENV_VAR = "GAUGEDECOMP_TABLES"

# echelon and orbit-reduce print an r x r transform, so their cost grows as r^2:
# at r = 2000, one process takes 0.6-0.9 s and 77 MB of RSS and prints 12 MB
# (Python 3.11.7, 2-vCPU virtual machine), and each doubling of r costs 4x that.
MAX_ROWS = 2000


def check_rows(count: int, what: str) -> None:
    if count > MAX_ROWS:
        raise ParseError(f"{what} gives a {count} x {count} transform; at most {MAX_ROWS} rows")


def parse_group(text: str) -> LieGroup:
    """Parse a Lie group name such as SU2, SU(2), Sp3, Spin7, G2, E8."""
    cleaned = text.strip().replace("(", "").replace(")", "")
    if cleaned in _EXCEPTIONAL_RANK:
        return LieGroup(cleaned, _EXCEPTIONAL_RANK[cleaned])
    family = cleaned.rstrip("0123456789")
    if family in ("Spin", "SU", "Sp") and family != cleaned:
        (rank,) = parse_ints(cleaned[len(family):], "group rank", single=True)
        try:
            return LieGroup(family, rank)
        except ValueError as e:
            raise ParseError(str(e)) from e
    raise ParseError(
        f"cannot parse group {text!r}; expected SU<m>, Sp<m>, Spin<m>, "
        f"G2, F4, E6, E7 or E8"
    )


def parse_space(text: str) -> SpaceId:
    if not text.startswith("sphere:"):
        return parse_group(text)
    (dim,) = parse_ints(text[len("sphere:"):], "sphere dimension", single=True)
    try:
        return Sphere(dim)
    except ValueError as e:
        raise ParseError(str(e)) from e


def parse_ints(text: str, flag: str, single: bool = False) -> tuple[int, ...]:
    """The comma-separated integers of an integer flag; just one if ``single``."""
    try:
        values = tuple(int(v) for v in text.split(","))
        if not single or len(values) == 1:
            return values
    except ValueError:
        pass
    # Echo at most 40 characters, so a huge value cannot flood stderr.
    got = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} chars)"
    want = "one integer" if single else "comma-separated integers"
    raise ParseError(f"{flag} expects {want}, got {got}")


def parse_spec(text: str) -> ConnectedSumSpec:
    """Manifold spec from inline JSON or a file path."""
    raw = text.strip()
    if not raw.startswith("{"):
        raw = read_file(raw, "spec file")
    data = decode_json(raw, "spec")
    try:
        return ConnectedSumSpec.from_dict(data)
    except ValueError as e:
        raise ParseError(f"invalid manifold spec: {e}") from e


def parse_matrix(text: str) -> list[list[int]]:
    rows = decode_json(text, "matrix")
    if (
        not isinstance(rows, list)
        or not rows
        or not all(isinstance(r, list) for r in rows)
        or not all(isinstance(v, int) for r in rows for v in r)
    ):
        raise ParseError("matrix must be a JSON array of integer rows")
    return rows


def build_table(args):
    paths = [p for p in os.environ.get(TABLES_ENV_VAR, "").split(os.pathsep) if p]
    return load_tables(paths + args.tables)


def cmd_classify(args) -> dict:
    group, spec, table = args.group, args.spec, args.table
    case = classify_conditions(group, spec, table)
    payload = {"case": case.kind}
    if case.reason:
        payload["reason"] = case.reason
        payload["pretty"] = f"{case.kind}: {case.reason}"
        return payload
    result = principal_bundles(group, spec, table)
    if result.free_rank is not None:
        payload["bundles"] = {"free_rank": result.free_rank}
        payload["note"] = result.note
    else:
        payload["bundles"] = {
            "terms": [
                {"group": "Unknown" if g is None else g.to_dict(), "multiplicity": m}
                for g, m in result.formula.terms
            ],
            "residual": result.formula.residual,
        }
    payload["pretty"] = f"{case.kind}: bundles over M <-> {result}"
    return payload


def cmd_decompose(args) -> dict:
    group, spec, table = args.group, args.spec, args.table
    ks = parse_ints(args.k, "--k") if args.k else None
    if args.pointed:
        expr = pointed_gauge_decomposition(group, spec, ks, table)
    else:
        if ks is None:
            raise ParseError("decompose needs --k unless --pointed is given")
        expr = gauge_decomposition(group, spec, ks, table)
    payload = {"expression": expr.to_dict(), "pointed": bool(args.pointed)}
    payload["pretty"] = str(expr)
    return payload


def cmd_equivalent(args) -> dict:
    ks = parse_ints(args.k, "--k")
    ks2 = parse_ints(args.k2, "--k2")
    verdict = gauge_equivalent(args.group, args.spec, ks, ks2, args.table)
    return {
        "verdict": verdict.verdict,
        "reason": verdict.reason,
        "pretty": f"{verdict.verdict}: {verdict.reason}",
    }


def cmd_pi(args) -> dict:
    (j,) = parse_ints(args.j, "--j", single=True)
    payload = pointed_gauge_pi(args.group, args.spec, j, args.table).to_dict()
    payload["j"] = j
    return payload


def cmd_orbit_reduce(args) -> dict:
    (m,) = parse_ints(args.m, "--m", single=True)
    if m < 0:
        raise ParseError("--m must be a non-negative integer")
    check_rows(args.x.count(",") + 1, "--x")
    xs = parse_ints(args.x, "--x")
    cert = orbit_reduce(Modulus(m), xs)
    canonical = [res.value for res in cert.canonical]
    det = cert.det
    return {
        "modulus": m,
        "canonical": canonical,
        "gcd": cert.divisor,
        "det": det,
        "transform": cert.transform.to_lists(),
        "pretty": (
            f"({', '.join(str(v) for v in xs)}) -> ({', '.join(str(v) for v in canonical)})"
            f" mod {m}, gcd {cert.divisor}, det {det}"
        ),
    }


def cmd_echelon(args) -> dict:
    rows = parse_matrix(args.matrix)
    check_rows(len(rows), "matrix")
    ncols = len(rows[0])
    if args.m is not None:
        moduli = parse_ints(args.m, "--m")
        if len(moduli) != ncols:
            raise ParseError(f"--m lists {len(moduli)} moduli but the matrix has {ncols} columns")
        if any(m < 0 for m in moduli):
            raise ParseError("column moduli must be non-negative")
    else:
        moduli = (0,) * ncols
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows")
    d, b = row_echelon_mixed(MixedMatrix.from_rows([Modulus(m) for m in moduli], rows))
    reduced = b.to_lists()
    return {
        "moduli": list(moduli),
        "echelon": reduced,
        "transform": d.to_lists(),
        "det": d.det(),
        "pretty": "\n".join(" ".join(str(v) for v in row) for row in reduced),
    }


def cmd_tables(args) -> dict:
    if args.lookup:
        head, _, deg = args.lookup.rpartition(",")
        if not head:
            raise ParseError("--lookup expects SPACE,DEGREE, e.g. sphere:3,6 or SU2,6")
        (degree,) = parse_ints(deg, "--lookup degree", single=True)
        if degree < 0:
            raise ParseError(f"--lookup degree must be non-negative, got {degree}")
        space = parse_space(head)
        entry = args.table.entry(space, degree)
        payload = {"space": space_to_dict(space), "degree": degree, "group": "Unknown"}
        if entry is None:
            payload["pretty"] = f"pi_{degree}({space}) = Unknown (not in tables)"
        else:
            payload.update(group=entry.group.to_dict(), citation=entry.citation)
            payload["pretty"] = f"pi_{degree}({space}) = {entry.group}  [{entry.citation}]"
        return payload
    entries = args.table.entries()
    listing = [{"space": space_to_dict(e.space), "degree": e.degree,
                "group": e.group.to_dict(), "citation": e.citation} for e in entries]
    pretty = "\n".join(f"pi_{e.degree}({e.space}) = {e.group}" for e in entries)
    return {"entries": listing, "count": len(listing), "pretty": pretty}


def cmd_splitting(args) -> dict:
    splitting = suspension_splitting(args.spec, args.table)
    payload = splitting.to_dict()
    payload["pretty"] = f"Sigma M ~ {splitting}"
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugedecomp",
        description=(
            "Classify principal G-bundles over connected sums of sphere "
            "bundles over spheres and decompose their gauge groups."
        ),
        epilog=(
            f"Table files listed in --tables or in ${TABLES_ENV_VAR} "
            f"(path-separated) are merged over the built-in core; later "
            f"files win."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=False, group=False, tables=False):
        if spec or tables:  # every command that reads tables
            p.add_argument("--tables", action="append", default=[],
                           help="table JSON file (repeatable)")
        p.add_argument("--json", action="store_true", help="emit JSON")
        if group:
            p.add_argument("--group", required=True, help="structure group, e.g. SU2")
        if spec:
            p.add_argument("--spec", required=True,
                           help='manifold JSON, inline or a file: {"n":4,"q":3,"xi":[1,0]}')

    p = sub.add_parser("classify", help="classification case and bundle set")
    common(p, spec=True, group=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decompose", help="gauge-group homotopy decomposition")
    common(p, spec=True, group=True)
    p.add_argument("--k", help="classifying integers, e.g. 5,7")
    p.add_argument("--pointed", action="store_true", help="pointed gauge group")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("equivalent", help="decide gauge-group equivalence")
    common(p, spec=True, group=True)
    p.add_argument("--k", required=True)
    p.add_argument("--k2", required=True)
    p.set_defaults(func=cmd_equivalent)

    p = sub.add_parser("pi", help="homotopy groups of the pointed gauge group")
    common(p, spec=True, group=True)
    p.add_argument("--j", required=True, help="homotopy degree")
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("orbit-reduce", help="canonical form of a residue vector")
    common(p)
    p.add_argument("--m", required=True, help="modulus (0 = integers)")
    p.add_argument("--x", required=True, help="vector entries, e.g. 6,4")
    p.set_defaults(func=cmd_orbit_reduce)

    p = sub.add_parser("echelon", help="unimodular row echelon form")
    common(p)
    p.add_argument("matrix", help='row-major JSON, e.g. "[[2,6],[4,0]]"')
    p.add_argument("--m", help="per-column moduli, e.g. 0,12 (default: all Z)")
    p.set_defaults(func=cmd_echelon)

    p = sub.add_parser("tables", help="inspect the homotopy tables")
    common(p, tables=True)
    p.add_argument("--lookup", help="SPACE,DEGREE, e.g. sphere:3,6 or SU2,6")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("splitting", help="suspension splitting of the manifold")
    common(p, spec=True)
    p.set_defaults(func=cmd_splitting)

    return parser


def emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(payload["pretty"])


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Resolve the shared flags of the subcommand, in this order, before its handler runs.
        if hasattr(args, "tables"):
            args.table = build_table(args)
        if hasattr(args, "group"):
            args.group = parse_group(args.group)
        if hasattr(args, "spec"):
            args.spec = parse_spec(args.spec)
        payload = args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (ValueError, LookupError) as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 1
    emit(payload, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
