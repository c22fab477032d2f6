"""gaugedecomp benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-oneshot, query-mix, wide-sum, dense-kernel (see README.md).
Each is a closed loop with one caller: the next query goes out when the
previous one has returned.  A run measures whole rounds of queries until
``--seconds`` have passed, checks every output with the independent oracle,
and prints a report line and then the result line (JSON) on stdout.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` the run measures the same loop untraced for half the time,
then for the other half with every package function wrapped in spans, then
runs a scaling sweep; the result carries the per-layer metrics, and the
report the tracing overhead.

Bytecode of the package goes to ``.bench_build/pycache`` (never to ``src``),
and scratch files to ``.bench_build/perfbench``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
from array import array  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORE_TABLE = SRC / "gaugedecomp" / "data" / "core_tables.json"
BUILD = ROOT / ".bench_build"
PYCACHE = BUILD / "pycache"
SCRATCH = BUILD / "perfbench"
SETUP_REPEATS = 21
CLI_BOOT = "import sys\nfrom gaugedecomp.cli import main\nsys.exit(main())"
SETUP_BOOT = (
    "import time\nt0 = time.monotonic_ns()\nimport sys\n__import__(sys.argv[1])\n"
    "t1 = time.monotonic_ns()\nfrom gaugedecomp.tables import load_tables\nload_tables([])\n"
    "print(t0, t1, time.monotonic_ns())"
)
MAX_FAILURES_SHOWN = 5
# The tail is the highest of these percentiles with at least 10 samples
# beyond it.  p99.9 is left out: on query-mix it falls among a few GC pauses
# and is not steady from run to run.
TAIL_PERCENTILES = (99.0, 90.0, 50.0)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("GAUGEDECOMP_TABLES", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def run_child(cmd: list[str], env: dict, err_file) -> tuple[bytes, int, int]:
    """Run one process to completion; return (stdout, exit code, peak RSS in KiB)."""
    err_file.seek(0)
    err_file.truncate()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err_file, env=env, cwd=ROOT)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gaugedecomp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "bytecode": {
            "cache": "on",
            "prefix": PYCACHE.relative_to(ROOT).as_posix(),
            "cleared_at_setup": True,
        },
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(workload: str, env: dict, speed: HostSpeed) -> dict:
    """Start fresh interpreters that import the package and load the core
    table, as every workload does before its first query.  The bytecode
    cache is cleared first, so the first of these compiles it.  The host's
    speed is sampled after each."""
    shutil.rmtree(PYCACHE, ignore_errors=True)
    module = "gaugedecomp.cli" if workload == "cli-oneshot" else "gaugedecomp"
    walls, stamps, imports, loads = [], [], [], []
    with open(SCRATCH / "setup.err", "w+b") as err:
        for _ in range(SETUP_REPEATS):
            spawn = time.monotonic_ns()
            out, code, _ = run_child([sys.executable, "-c", SETUP_BOOT, module], env, err)
            walls.append(time.monotonic_ns() - spawn)
            stamps.append(time.monotonic())
            speed.sample()
            if code != 0:
                err.seek(0)
                raise RuntimeError(f"set-up process failed: {err.read().decode(errors='replace')}")
            t0, t1, t2 = map(int, out.split())
            imports.append(t1 - t0)
            loads.append(t2 - t1)
    return {
        "walls_ns": walls,
        "stamps": stamps,
        "measured_setup_s": statistics.median(walls) / 1e9,
        "setup_cold_s": walls[0] / 1e9,
        "import_ms": statistics.median(imports) / 1e6,
        "core_load_ms": statistics.median(loads) / 1e6,
    }


class Pass:
    """Latencies and check results of one measured pass, in whole rounds."""

    def __init__(self):
        # A compact array, so that the harness's own memory hardly grows with
        # the number of queries and peak_rss_mb stays the program's.
        self.latency_ns = array("q")
        self.stamps = array("d")  # time.monotonic() at the end of each query
        self.round_sizes: list[int] = []
        self.failures: list[str] = []
        self.peak_rss_kib = 0

    def record(self, q: dict, elapsed_ns: int, stamp: float, problem: str | None) -> None:
        self.latency_ns.append(elapsed_ns)
        self.stamps.append(stamp)
        if problem is not None:
            self.failures.append(f"{q['kind']}: {problem}")

    def end_round(self, queries: int) -> None:
        self.round_sizes.append(queries)

    @staticmethod
    def stats(latency_ns, round_sizes) -> tuple[float, float, float, float, int]:
        """p50 and tail in ms, queries per second, tail percentile and
        samples beyond it."""
        s = sorted(latency_ns)
        n = len(s)
        # Nearest rank; with too few samples for any, the maximum.
        pct, rank = 100.0, n
        for p in TAIL_PERCENTILES:
            if n - math.ceil(p / 100 * n) >= 10:
                pct, rank = p, math.ceil(p / 100 * n)
                break
        round_ns, start = [], 0
        for size in round_sizes:
            round_ns.append(sum(latency_ns[start : start + size]))
            start += size
        per_round = n / len(round_sizes)
        qps = per_round / (statistics.median(round_ns) / 1e9)
        return statistics.median(s) / 1e6, s[rank - 1] / 1e6, qps, pct, n - rank

    def summary(self, speed: HostSpeed) -> dict:
        """Statistics of the pass.  Times are at the reference speed (see
        hostspeed.py); the measured ones are kept under ``measured_``."""
        n = len(self.latency_ns)
        scaled = [x * f for x, f in zip(self.latency_ns, speed.scales(self.stamps))]
        p50, tail, qps, pct, beyond = self.stats(scaled, self.round_sizes)
        m_p50, m_tail, m_qps, _, _ = self.stats(self.latency_ns, self.round_sizes)
        return {
            "attempted": n,
            "failed": len(self.failures),
            "rounds": len(self.round_sizes),
            "latency_p50_ms": p50,
            "latency_tail_ms": tail,
            "tail_percentile": pct,
            "tail_samples_beyond": beyond,
            "queries_per_s": qps,
            "peak_rss_mb": self.peak_rss_kib / 1024,
            "ok_share": (n - len(self.failures)) / n,
            "measured_latency_p50_ms": m_p50,
            "measured_latency_tail_ms": m_tail,
            "measured_queries_per_s": m_qps,
        }


def domain_error_problem(error: BaseException | None) -> str | None:
    if isinstance(error, (ValueError, LookupError)):
        return None
    return f"expected a domain error, got {'a result' if error is None else repr(error)}"


def check_output(raw_tables, q, make_payload) -> str | None:
    """The oracle's verdict; an output the oracle cannot read also fails."""
    try:
        return workloads.check(raw_tables, q, make_payload())
    except Exception as e:  # a malformed output is a failed query
        return f"output could not be checked: {e!r}"


def inprocess_pass(gd, table, raw_tables, gen, seconds, speed, tracer=None) -> Pass:
    result = Pass()
    deadline = time.monotonic() + seconds
    while not result.round_sizes or time.monotonic() < deadline:
        batch = next(gen)
        for q in batch:
            error = None
            out = None
            with tracer.span("query") if tracer else contextlib.nullcontext():
                t0 = time.thread_time_ns()
                try:
                    out = workloads.call(gd, table, q)
                except Exception as e:  # every failure of a query is recorded
                    error = e
                t1 = time.thread_time_ns()
            stamp = time.monotonic()
            if tracer:
                tracer.enabled = False
            if q.get("error"):
                problem = domain_error_problem(error)
            elif error is not None:
                problem = repr(error)
            else:
                problem = check_output(raw_tables, q, lambda: workloads.payload(gd, q, out))
            result.record(q, t1 - t0, stamp, problem)
            speed.tick(t1 - t0)
            if tracer:
                tracer.enabled = True
        result.end_round(len(batch))
    result.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def cli_reference(argv: list[str]) -> tuple[str, int]:
    """stdout and exit code of the same command run in-process."""
    import gaugedecomp.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = gaugedecomp.cli.main(argv)
        except SystemExit as e:
            code = e.code
    return buf.getvalue(), code


def cli_pass(raw_tables, gen, seconds, env, table_paths, speed, tracer=None, child_stats=None) -> Pass:
    result = Pass()
    rounds = []
    with open(SCRATCH / "cli.err", "w+b") as err:
        deadline = time.monotonic() + seconds
        while not rounds or time.monotonic() < deadline:
            runs = []
            for q in next(gen):
                argv = workloads.cli_argv(q, table_paths)
                t0 = time.perf_counter_ns()
                spawn = time.monotonic_ns()
                if tracer:
                    cmd = [sys.executable, str(HERE / "cli_child.py"), str(spawn), *argv]
                else:
                    cmd = [sys.executable, "-c", CLI_BOOT, *argv]
                out, code, rss = run_child(cmd, env, err)
                t1 = time.perf_counter_ns()
                result.peak_rss_kib = max(result.peak_rss_kib, rss)
                if tracer:
                    err.seek(0)
                    last = err.read().decode(errors="replace").rstrip("\n").rsplit("\n", 1)[-1]
                    if last.startswith("PERFBENCH_TRACE "):
                        record = json.loads(last.split(" ", 1)[1])
                        tracer.merge(record["spans"])
                        child_stats["interp_start_ns"].append(record["interp_start_ns"])
                        child_stats["import_ns"].append(record["import_ns"])
                runs.append((q, argv, out, code, t1 - t0, time.monotonic()))
                speed.tick(t1 - t0)
            rounds.append(runs)
    # Check after the clock has stopped: same stdout and exit code as an
    # in-process run, the exit code the oracle expects, and the oracle on
    # the JSON payload.
    for runs in rounds:
        for q, argv, out, code, elapsed, stamp in runs:
            text = out.decode(errors="replace")
            ref_text, ref_code = cli_reference(argv)
            want = 1 if q["error"] else 0
            if code != want or ref_code != want:
                problem = f"exit code {code} (in-process {ref_code}), expected {want}"
            elif text != ref_text:
                problem = "stdout differs from the in-process run"
            elif code == 0:
                problem = check_output(raw_tables, q, lambda: json.loads(text))
            else:
                problem = None if not text else "output on a domain error"
            result.record(q, elapsed, stamp, problem)
        result.end_round(len(runs))
    return result


def timed(fn, *args, repeats=1):
    times = []
    for _ in range(repeats):
        t0 = time.thread_time_ns()
        out = fn(*args)
        times.append(time.thread_time_ns() - t0)
    return statistics.median(times) / 1e6, out


def slope(curve: dict) -> float:
    """log-log slope over the last two points of a curve."""
    (x1, y1), (x2, y2) = list(curve.items())[-2:]
    return math.log(y2 / y1) / math.log(x2 / x1)


def sweep(gd, table, raw_tables, seed: int) -> tuple[dict, list[str]]:
    """Time the scaling curves of the decomposition and the kernel.

    Returns the curves and one check result (None when right) per call."""
    rng = random.Random(f"sweep/{seed}")
    problems = []
    su2 = gd.SU(2)

    def spec(r):
        xi = [1] + [rng.getrandbits(16) for _ in range(r - 1)]
        return xi, gd.ConnectedSumSpec(4, 3, tuple(xi))

    decomp, pi = {}, {}
    for r in (2, 10, 50, 100, 200, 400):
        xi, s = spec(r)
        ks = [rng.getrandbits(16) for _ in range(r)]
        decomp[r], out = timed(gd.gauge_decomposition, su2, s, ks, table, repeats=5 if r <= 50 else 1)
        problems.append(oracle.check_decomposition(raw_tables, ("SU", 2), xi, ks, out.to_dict()))
    for r in (2, 10, 25, 50, 100, 150):
        xi, s = spec(r)
        pi[r], out = timed(gd.pointed_gauge_pi, su2, s, 3, table, repeats=3 if r <= 25 else 1)
        problems.append(oracle.check_pi(raw_tables, ("SU", 2), xi, 3, out.to_dict()))

    def kernel(n, bits):
        q = workloads.dense_query(rng, "echelon_mixed", n, bits)
        a = gd.IntMatrix.from_rows(q["matrix"])
        m = gd.MixedMatrix.from_rows([gd.Modulus(v) for v in q["moduli"]], q["matrix"])
        smith_ms, inv = timed(gd.smith_invariants, a)
        echelon_ms, (d, b) = timed(gd.row_echelon_mixed, m)
        problems.append(oracle.check_smith(q["matrix"], {"invariants": list(inv)}))
        problems.append(
            oracle.check_echelon(q["matrix"], q["moduli"], {"transform": d.to_lists(), "echelon": b.to_lists()})
        )
        return smith_ms, echelon_ms

    by_n = {n: kernel(n, 64) for n in (4, 8, 12, 16, 24)}
    by_bits = {bits: kernel(12, bits) for bits in (8, 64, 256)}
    corner = kernel(24, 256)
    curves = {
        "gauge_decomposition_ms_by_r": decomp,
        "pointed_gauge_pi_ms_by_r": pi,
        "smith_ms_by_n_at_64_bits": {n: v[0] for n, v in by_n.items()},
        "echelon_mixed_ms_by_n_at_64_bits": {n: v[1] for n, v in by_n.items()},
        "smith_ms_by_bits_at_n_12": {b: v[0] for b, v in by_bits.items()},
        "echelon_mixed_ms_by_bits_at_n_12": {b: v[1] for b, v in by_bits.items()},
    }
    report = {name: {"points": curve, "last_slope": slope(curve)} for name, curve in curves.items()}
    report["n_24_bits_256_ms"] = {"smith": corner[0], "echelon_mixed": corner[1]}
    report["known_hotspots"] = [
        "pointed_gauge_pi is cubic in r: direct_sum renormalises about 2r cyclic "
        "orders through a dense smith_invariants on a diagonal matrix",
        "gauge_decomposition is quadratic in r: each echelon builds an r x r transform "
        "and discards it, three echelons per call",
    ]
    return report, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaugedecomp" / "__init__.py").is_file() or not CORE_TABLE.is_file():
        print(f"perfbench: no gaugedecomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gaugedecomp as gd

    SCRATCH.mkdir(parents=True, exist_ok=True)
    env = child_env()
    report = {"environment": environment(args)}
    speed = HostSpeed()
    setup = measure_setup(args.workload, env, speed)
    report["setup"] = setup
    raw_tables = oracle.RawTables(CORE_TABLE)
    table = gd.load_tables([])

    def generator():
        return workloads.rounds(args.workload, args.seed, raw_tables)

    if args.workload == "cli-oneshot":
        table_paths = {}
        for name, data in workloads.USER_TABLES.items():
            path = SCRATCH / f"user_{name}.json"
            path.write_text(json.dumps(data))
            table_paths[name] = str(path)

        def measure(seconds, tracer=None, child_stats=None):
            return cli_pass(raw_tables, generator(), seconds, env, table_paths, speed, tracer, child_stats)
    else:

        def measure(seconds, tracer=None, child_stats=None):
            return inprocess_pass(gd, table, raw_tables, generator(), seconds, speed, tracer)

    # A traced run splits its time between the untraced and the traced pass.
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = measure(seconds)
    summary = plain.summary(speed)
    walls, stamps = setup.pop("walls_ns"), setup.pop("stamps")
    summary["setup_s"] = statistics.median(w * f for w, f in zip(walls, speed.scales(stamps))) / 1e9
    report["host_speed"] = speed.report()
    report["end_to_end"] = summary
    failures = list(plain.failures)
    attempted = summary["attempted"]

    if args.trace:
        tracer = spans.Tracer()
        child_stats = {"interp_start_ns": [], "import_ns": []}
        if args.workload != "cli-oneshot":
            tracer.install()
        traced = measure(seconds, tracer, child_stats)
        tracer.uninstall()
        traced_summary = traced.summary(speed)
        failures += traced.failures
        attempted += traced_summary["attempted"]
        metrics = spans.layer_metrics(tracer, traced_summary["attempted"])
        if child_stats["interp_start_ns"]:
            metrics["cli.interp_start_ms"] = statistics.median(child_stats["interp_start_ns"]) / 1e6
            metrics["cli.import_ms"] = statistics.median(child_stats["import_ns"]) / 1e6
        else:
            metrics["cli.interp_start_ms"] = metrics["cli.import_ms"] = 0.0
            metrics["tables.core_load_ms"] = setup["core_load_ms"]
        report["tracing_overhead"] = {
            key: traced_summary[key] - summary[key]
            for key in ("latency_p50_ms", "latency_tail_ms", "queries_per_s")
        }
        report["traced_end_to_end"] = traced_summary
        report["echelon_calls_per_call"] = spans.calls_per_entry_point(
            tracer,
            "matrices.row_echelon_mixed",
            [
                "decompose.gauge_decomposition",
                "decompose.pointed_gauge_decomposition",
                "decompose.pointed_gauge_pi",
                "decompose.gauge_equivalent",
                "manifolds.suspension_splitting",
            ],
        )
        report["sweep"], sweep_problems = sweep(gd, table, raw_tables, args.seed)
        attempted += len(sweep_problems)
        failures += [f"sweep: {p}" for p in sweep_problems if p]
        result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in spans.PER_LAYER_UNITS.items()}
    else:
        result_metrics = {
            name: {"value": summary[name], "unit": unit}
            for name, unit in (
                ("latency_p50_ms", "ms"),
                ("latency_tail_ms", "ms"),
                ("queries_per_s", "1/s"),
                ("peak_rss_mb", "MB"),
                ("ok_share", "share"),
                ("setup_s", "s"),
            )
        }

    report["failures"] = failures[:MAX_FAILURES_SHOWN]
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
