"""Tests of the benchmark itself: seeded inputs, the oracle and the tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import copy
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gaugedecomp as gd  # noqa: E402
import hostspeed  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TABLES = oracle.RawTables(ROOT / "src" / "gaugedecomp" / "data" / "core_tables.json")
TABLE = gd.load_tables([])


def first_rounds(workload, seed, count=3):
    gen = workloads.rounds(workload, seed, TABLES)
    return json.dumps([next(gen) for _ in range(count)], sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs(workload):
    assert first_rounds(workload, 7) == first_rounds(workload, 7)
    assert first_rounds(workload, 7) != first_rounds(workload, 8)


def test_wide_sum_specs_are_distinct_and_decomposable():
    gen = workloads.rounds("wide-sum", 3, TABLES)
    queries = [q for _ in range(4) for q in next(gen)]
    specs = [tuple(q["xi"]) for q in queries]
    assert len(set(specs)) == len(specs)
    assert not any(q["error"] for q in queries)


def run_query(q):
    return workloads.payload(gd, q, workloads.call(gd, TABLE, q))


def spec_query(kind, **extra):
    q = {"kind": kind, "group": "SU2", "xi": [1, 5, 0], "error": False}
    q.update(extra)
    return q


def test_oracle_accepts_correct_results():
    rng = workloads.rng_for("test", 0)
    queries = [
        spec_query("classify"),
        spec_query("decompose", ks=[2, 4, 6]),
        spec_query("pointed"),
        spec_query("equivalent", ks=[2, 4, 6], ks2=[3, 9, 3]),
        spec_query("pi", j=3),
        {"kind": "splitting", "xi": [12, 0], "error": False},
    ] + [workloads.dense_query(rng, kind, 6, 64) for kind in workloads.DENSE_KINDS]
    for q in queries:
        assert workloads.check(TABLES, q, run_query(q)) is None, q["kind"]


def corrupted(q, mutate):
    out = copy.deepcopy(run_query(q))
    mutate(out)
    return workloads.check(TABLES, q, out)


def bump_loop3(out):
    for f in out["factors"]:
        if f["kind"] == "loop_space" and f["degree"] == 3:
            f["multiplicity"] += 1


def bump_level(out):
    for f in out["factors"]:
        if f["kind"] == "sphere_gauge":
            f["level"] += 1


def test_oracle_rejects_wrong_decompositions():
    assert corrupted(spec_query("decompose", ks=[2, 4, 6]), bump_loop3)
    assert corrupted(spec_query("decompose", ks=[2, 4, 6]), bump_level)
    assert corrupted(spec_query("pointed"), bump_loop3)
    assert corrupted(spec_query("pi", j=3), lambda out: out["known"]["torsion"].append(2))
    assert corrupted({"kind": "splitting", "xi": [1, 0], "error": False}, lambda out: out["spheres"][1].update(count=2))
    assert corrupted(spec_query("equivalent", ks=[2, 4, 6], ks2=[3, 9, 3]), lambda out: out.update(verdict="Equivalent"))
    assert corrupted(spec_query("classify"), lambda out: out["bundles"].update(free_rank=2))


def test_oracle_rejects_tampered_kernel_results():
    rng = workloads.rng_for("test", 1)
    ech = workloads.dense_query(rng, "echelon_mixed", 5, 64)
    assert corrupted(ech, lambda out: out["transform"][0].__setitem__(0, out["transform"][0][0] + 1))
    assert corrupted(ech, lambda out: out["echelon"][0].__setitem__(0, out["echelon"][0][0] + 1))
    ech_int = workloads.dense_query(rng, "echelon_int", 5, 8)
    # Scaling a row keeps D.A = B row by row but breaks det D = +-1.
    assert corrupted(
        ech_int,
        lambda out: (out["transform"].__setitem__(1, [2 * v for v in out["transform"][1]]),
                     out["echelon"].__setitem__(1, [2 * v for v in out["echelon"][1]])),
    )
    orbit = workloads.dense_query(rng, "orbit", 4, 64)
    assert corrupted(orbit, lambda out: out["transform"][1].__setitem__(0, out["transform"][1][0] + 1))
    assert corrupted(orbit, lambda out: out.update(verified=False))
    smith = workloads.dense_query(rng, "smith", 5, 8)
    assert corrupted(smith, lambda out: out["invariants"].__setitem__(-1, out["invariants"][-1] * 2))
    det = workloads.dense_query(rng, "det", 5, 64)
    assert corrupted(det, lambda out: out.update(det=out["det"] + 1))
    bez = workloads.dense_query(rng, "bezout", 1, 64)
    assert corrupted(bez, lambda out: out.update(u=out["u"] + 1))


def test_expected_domain_errors_are_raised():
    q = spec_query("decompose", xi=[2, 4], ks=[1, 1])
    assert oracle.decomposable(TABLES, ("SU", 2), q["xi"]) is False
    with pytest.raises(ValueError):
        workloads.call(gd, TABLE, q)


def test_tracer_counts_three_echelons_per_decomposition_and_uninstalls():
    original = gd.gauge_decomposition
    tracer = spans.Tracer()
    tracer.install()
    try:
        for xi in ([1, 5, 7], [5, 1, 0, 3]):
            with tracer.span("query"):
                gd.gauge_decomposition(gd.SU(2), gd.ConnectedSumSpec(4, 3, tuple(xi)), [1] * len(xi), TABLE)
    finally:
        tracer.uninstall()
    assert gd.gauge_decomposition is original
    metrics = spans.layer_metrics(tracer, 2)
    assert metrics["manifolds.echelon_calls"] == 3
    assert metrics["manifolds.suspension_rank_calls"] == 2
    assert metrics["decompose.calls"] == 1
    assert metrics["matrices.transform_cells"] == (9 * 3 + 16 * 3) / 2


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mix", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_scales_by_the_local_kernel_time():
    speed = hostspeed.HostSpeed()
    # The kernel took 2 ms for the first 10 s, then 1 ms.
    for i in range(80):
        t = i / 4
        speed.samples_ns.append(2 * hostspeed.REFERENCE_NS if t < 10 else hostspeed.REFERENCE_NS)
        speed.stamps.append(t)
    assert speed.scales([3.1, 15.1]) == [0.5, 1.0]
    # Too few samples nearby: the whole run's median.
    assert speed.scales([100.0]) == [hostspeed.REFERENCE_NS / statistics.median(speed.samples_ns)]


def test_reference_kernel_is_deterministic():
    assert hostspeed.reference_kernel() == hostspeed.reference_kernel()
