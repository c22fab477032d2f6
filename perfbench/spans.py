"""In-memory span tracing of the gaugedecomp package, and per-layer metrics.

``Tracer.install`` replaces every public function of every package module
with a wrapper that records a span (name, parent, start, end).  The same
wrapper is also bound wherever another module imported the function by name
(``decompose.suspension_rank``, ``manifolds.row_echelon_mixed``,
``abelian.smith_invariants``, ...), so calls between modules are caught.  A
few methods that carry layer work (``IntMatrix.det``, the ``HomotopyTable``
lookups) are wrapped too.

Some wrappers run a hook after the span closes, to record sizes (matrix
rows, entry bits, cyclic orders).  Hook time is counted and taken out of
every enclosing span, so sizes can be measured without charging them to a
layer.  The tracing calls themselves are not taken out; the benchmark
reports them as the traced run's overhead.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("residues", "matrices", "abelian", "tables", "manifolds", "classify", "decompose", "cli")

# Lookups of table data: calls into any of these from outside the tables
# layer count as one lookup.
TABLE_LOOKUPS = {
    "tables.HomotopyTable.lookup_pi",
    "tables.HomotopyTable.entry",
    "tables.HomotopyTable.connecting_order",
    "tables.HomotopyTable.connecting_citation",
    "tables.HomotopyTable.attaching_image",
    "tables.HomotopyTable.suspended_image",
    "tables.lookup_pi",
    "tables.connecting_order",
    "tables.pi6_order",
}
# Every per-layer metric with its unit.  The cli start-up metrics are
# measured by the benchmark's child processes, the rest from spans.
PER_LAYER_UNITS = {
    "cli.interp_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.handler_self_us": "us",
    "tables.core_load_ms": "ms",
    "tables.user_merge_ms": "ms",
    "tables.lookup_calls": "count",
    "classify.calls": "count",
    "classify.self_us": "us",
    "decompose.calls": "count",
    "decompose.self_us": "us",
    "manifolds.suspension_rank_calls": "count",
    "manifolds.echelon_calls": "count",
    "manifolds.self_us": "us",
    "matrices.echelon_us": "us",
    "matrices.transform_cells": "count",
    "matrices.smith_us": "us",
    "matrices.smith_dim": "rows",
    "abelian.direct_sum_us": "us",
    "abelian.direct_sum_orders": "count",
    "matrices.max_entry_bits": "bits",
    "matrices.orbit_us": "us",
    "matrices.det_us": "us",
    "residues.bezout_calls": "count",
    "residues.bezout_us": "us",
}
ECHELONS = {"matrices.row_echelon_int", "matrices.row_echelon_mixed"}
METHODS = {
    "matrices": {"IntMatrix": ("det",)},
    "tables": {
        "HomotopyTable": (
            "lookup_pi",
            "entry",
            "connecting_order",
            "connecting_citation",
            "attaching_image",
            "suspended_image",
            "merged_over",
        )
    },
}


def _max_bits(values) -> int:
    return max(map(int.bit_length, values), default=0)


def _hook_echelon(stats, args, result):
    a = args[0]
    d, b = result
    stats["transform_cells"] += a.rows * a.rows
    stats["max_entry_bits"] = max(
        stats["max_entry_bits"], _max_bits(a.entries), _max_bits(d.entries), _max_bits(b.entries)
    )


def _hook_smith(stats, args, result):
    a = args[0]
    stats["smith_calls"] += 1
    stats["smith_dim_sum"] += max(a.rows, a.cols)
    stats["max_entry_bits"] = max(stats["max_entry_bits"], _max_bits(a.entries))


def _hook_det(stats, args, result):
    stats["max_entry_bits"] = max(stats["max_entry_bits"], _max_bits(args[0].entries))


def _hook_orbit(stats, args, result):
    stats["max_entry_bits"] = max(stats["max_entry_bits"], _max_bits(result.transform.entries))


def _hook_direct_sum(stats, args, result):
    groups = args[0]
    if isinstance(groups, (list, tuple)):
        stats["direct_sum_orders"] += sum(g.generator_count for g in groups)


HOOKS = {
    "matrices.row_echelon_int": _hook_echelon,
    "matrices.row_echelon_mixed": _hook_echelon,
    "matrices.smith_invariants": _hook_smith,
    "matrices.IntMatrix.det": _hook_det,
    "matrices.orbit_reduce": _hook_orbit,
    "abelian.direct_sum": _hook_direct_sum,
}


def _new_stats() -> dict:
    return {
        "transform_cells": 0,
        "max_entry_bits": 0,
        "smith_calls": 0,
        "smith_dim_sum": 0,
        "direct_sum_orders": 0,
    }


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.hook_start = array("q")
        self.hook_end = array("q")
        self.stats = _new_stats()
        self.enabled = True
        self._stack = [-1]
        self._hook_ns = 0
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.hook_start.append(self._hook_ns)
        self.end.append(0)
        self.hook_end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self.hook_end[sid] = self._hook_ns
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None:
                t0 = perf_counter_ns()
                hook(tracer.stats, args, result)
                tracer._hook_ns += perf_counter_ns() - t0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions of every loaded gaugedecomp module."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "gaugedecomp" or name.startswith("gaugedecomp."))
        }
        wrappers: dict[int, object] = {}
        for modname, mod in modules.items():
            layer = modname.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == modname
                ):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for method in methods:
                    fn = vars(cls)[method]
                    self._set(cls, method, self._wrap(fn, f"{layer}.{cls_name}.{method}"))
        # Rebind each wrapped function everywhere it is bound by name,
        # including the package namespace and consumer modules.
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.name_id(name))

    def export(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "hook_start": self.hook_start.tolist(),
            "hook_end": self.hook_end.tolist(),
            "stats": self.stats,
        }

    def merge(self, data: dict) -> None:
        """Append spans exported by another process."""
        offset = len(self.start)
        remap = [self.name_id(n) for n in data["names"]]
        self.name.extend(remap[i] for i in data["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.hook_start.extend(data["hook_start"])
        self.hook_end.extend(data["hook_end"])
        for key, value in data["stats"].items():
            if key == "max_entry_bits":
                self.stats[key] = max(self.stats[key], value)
            else:
                self.stats[key] += value

    def net_times(self) -> list[int]:
        """Each span's duration minus the hook time inside it, in ns."""
        return [
            (e - s) - (he - hs)
            for s, e, hs, he in zip(self.start, self.end, self.hook_start, self.hook_end)
        ]

    def first_span_times(self, name: str) -> list[int]:
        """Net time of the first span of ``name`` under each root span."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        net = self.net_times()
        roots_seen = set()
        out = []
        for sid, n in enumerate(self.name):
            if n != nid:
                continue
            root = sid
            while self.parent[root] >= 0:
                root = self.parent[root]
            if root not in roots_seen:
                roots_seen.add(root)
                out.append(net[sid])
        return out


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.sid = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False


def layer_metrics(tracer: Tracer, queries: int) -> dict[str, float]:
    """Per-layer counts per query and self times from the recorded spans.

    Self time is a span's net time minus the net time of its child spans;
    a layer's self time is the sum over its spans.
    """
    names = tracer.names
    layer_of = [n.split(".", 1)[0] for n in names]
    net = tracer.net_times()
    child = [0] * len(net)
    for sid, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += net[sid]
    self_ns = dict.fromkeys(LAYERS, 0)
    entries = dict.fromkeys(LAYERS, 0)
    by_name_ns: dict[str, int] = {}
    by_name_calls: dict[str, int] = {}
    lookups = 0
    echelons_in_decomp = 0
    for sid, nid in enumerate(tracer.name):
        name = names[nid]
        layer = layer_of[nid]
        p = tracer.parent[sid]
        parent_layer = layer_of[tracer.name[p]] if p >= 0 else None
        by_name_ns[name] = by_name_ns.get(name, 0) + net[sid]
        by_name_calls[name] = by_name_calls.get(name, 0) + 1
        if layer in self_ns:
            self_ns[layer] += net[sid] - child[sid]
            if parent_layer != layer:
                entries[layer] += 1
        if name in TABLE_LOOKUPS and parent_layer != "tables":
            lookups += 1
        if name in ECHELONS and parent_layer == "manifolds":
            a = p
            while a >= 0 and names[tracer.name[a]] != "decompose.gauge_decomposition":
                a = tracer.parent[a]
            if a >= 0:
                echelons_in_decomp += 1

    q = max(queries, 1)
    stats = tracer.stats

    def us(total_ns):
        return total_ns / q / 1e3

    def ns_of(*span_names):
        return sum(by_name_ns.get(n, 0) for n in span_names)

    def calls_of(*span_names):
        return sum(by_name_calls.get(n, 0) for n in span_names)

    decompositions = calls_of("decompose.gauge_decomposition")
    core_loads = tracer.first_span_times("tables.default_table")
    return {
        "cli.handler_self_us": us(self_ns["cli"]),
        "tables.core_load_ms": statistics.median(core_loads) / 1e6 if core_loads else 0.0,
        "tables.user_merge_ms": ns_of("tables.load_table_file", "tables.HomotopyTable.merged_over") / q / 1e6,
        "tables.lookup_calls": lookups / q,
        "classify.calls": entries["classify"] / q,
        "classify.self_us": us(self_ns["classify"]),
        "decompose.calls": entries["decompose"] / q,
        "decompose.self_us": us(self_ns["decompose"]),
        "manifolds.suspension_rank_calls": calls_of("manifolds.suspension_rank") / q,
        "manifolds.echelon_calls": echelons_in_decomp / decompositions if decompositions else 0.0,
        "manifolds.self_us": us(self_ns["manifolds"]),
        "matrices.echelon_us": us(ns_of(*ECHELONS)),
        "matrices.transform_cells": stats["transform_cells"] / q,
        "matrices.smith_us": us(ns_of("matrices.smith_invariants")),
        "matrices.smith_dim": stats["smith_dim_sum"] / stats["smith_calls"] if stats["smith_calls"] else 0.0,
        "abelian.direct_sum_us": us(ns_of("abelian.direct_sum")),
        "abelian.direct_sum_orders": stats["direct_sum_orders"] / q,
        "matrices.max_entry_bits": float(stats["max_entry_bits"]),
        "matrices.orbit_us": us(ns_of("matrices.orbit_reduce")),
        "matrices.det_us": us(ns_of("matrices.IntMatrix.det")),
        "residues.bezout_calls": calls_of("residues.bezout") / q,
        "residues.bezout_us": us(ns_of("residues.bezout")),
    }


def calls_per_entry_point(tracer: Tracer, callee: str, entry_points: list[str]) -> dict[str, float]:
    """For each entry point, calls of ``callee`` beneath it per call of it."""
    wanted = {tracer._name_ids[e]: e for e in entry_points if e in tracer._name_ids}
    callee_id = tracer._name_ids.get(callee)
    counts = dict.fromkeys(wanted.values(), 0)
    calls = dict.fromkeys(wanted.values(), 0)
    for sid, nid in enumerate(tracer.name):
        if nid in wanted:
            calls[wanted[nid]] += 1
        elif nid == callee_id:
            a = tracer.parent[sid]
            while a >= 0:
                if tracer.name[a] in wanted:
                    counts[wanted[tracer.name[a]]] += 1
                    break
                a = tracer.parent[a]
    return {e: counts[e] / calls[e] for e in counts if calls[e]}
