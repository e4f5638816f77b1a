"""tropsolve benchmark: one workload, one seed, one closed-loop caller.

Usage (from the repository root):

    python3 perfbench/run.py --workload small_solve --seed 1 --seconds 25 --trace 0

``--trace 0`` times the untouched library and prints the end-to-end
metrics, with latency and throughput in units of a tropsolve-independent
calibration timed in the same run; ``--trace 1`` splits the time between an untraced and a traced
loop and prints the per-layer metrics.  The last line of stdout is one
JSON object; the line before it records inputs digest, failures and
environment.  Full results and span dumps go to ``.perfbench_out/``.
See perfbench/README.md for what each workload is for.
"""

from __future__ import annotations

import os

# one process, no extra threads: keep BLAS pools from starting
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import inputs
import refs
import spans
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
# Capped at p90: above it, on a shared two-core machine, the tail mostly
# measures neighbours' bursts and varied by over 25% between runs
TAIL_LADDER = (90.0, 75.0, 50.0)
TAIL_BEYOND = 10
CAL_EVERY = 10  # ops run at least ten times as long as calibration


def parse_args():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- timing -------------------------------------------------------------------


class Outcomes:
    """The outcome of each op of the seed's list, shared by every loop of a run.

    ``attempted`` and ``failed`` count each op of the list once, by its
    first outcome, so they depend on the seed alone and not on how many
    passes fit into the run.  Every later pass must repeat that outcome: a
    differing one is a failure of kind ``unsteady_<kind>``, and such a
    failure is never the documented defect.
    """

    def __init__(self):
        self.first: dict[int, str | None] = {}
        self.unsteady = Counter()

    def record(self, index: int, kind: str | None) -> None:
        if index not in self.first:
            self.first[index] = kind
        elif kind != self.first[index]:
            self.unsteady[f"unsteady_{kind or 'ok'}"] += 1

    @property
    def attempted(self) -> int:
        return len(self.first)

    def failures(self) -> Counter:
        return Counter(k for k in self.first.values() if k) + self.unsteady


def closed_loop(ops, seconds, run, check, outcomes, calibrate=None):
    """Run whole passes over ``ops`` until ``seconds`` of loop time have passed.

    Checks run between ops and are left out of the loop time; each op's
    outcome goes to ``outcomes``.  Whole passes keep the mix of op types
    the same in every run of a seed.  ``calibrate`` is timed between ops,
    again outside the loop time, whenever ops have run for ``CAL_EVERY``
    times its last duration since it last ran.
    """
    lat, cal = [], []
    aside = 0.0  # checks and calibration
    since_cal = float("inf")
    begin = time.perf_counter()
    while True:
        for index, op in enumerate(ops):
            if calibrate is not None and since_cal >= CAL_EVERY * (cal[-1] if cal else 0.0):
                c0 = time.perf_counter()
                calibrate()
                cal.append(time.perf_counter() - c0)
                aside += cal[-1]
                since_cal = 0.0
            t0 = time.perf_counter()
            try:
                out = run(op)
                kind = None
            except Exception as exc:  # a raising op is a failed op, not a crash
                kind = type(exc).__name__
            t1 = time.perf_counter()
            lat.append(t1 - t0)
            since_cal += t1 - t0
            if kind is None:
                try:
                    kind = check(op, out)
                except Exception as exc:
                    kind = f"check_{type(exc).__name__}"
            outcomes.record(index, kind)
            aside += time.perf_counter() - t1
        if time.perf_counter() - begin - aside >= seconds:
            return lat, time.perf_counter() - begin - aside, cal


def calibration(workload: str):
    """A fixed computation, independent of tropsolve and of the seed.

    A shared machine drifts between speed states (on a 2-core Xeon VM,
    up to 1.6x apart for minutes at a time).  Latency and throughput are reported in units of
    this computation's median time in the same run, which cancels most of
    that drift.  It matches the workload's character: chains of tiny
    products at n = 9..12 for ``theta_enum``; numpy products at n = 64 and
    128 for ``kernel_scale``; for the rest, small numpy products and Python
    ``Fraction`` loops.
    """
    rng = np.random.default_rng(0)
    if workload == "theta_enum":
        mats = [inputs.rand_matrix(rng, n, 0.2, 1.0) for n in (9, 10, 11, 12)]
        return lambda: [_power_diagonals(M, 120) for M in mats]
    if workload == "kernel_scale":
        mats = [inputs.rand_matrix(rng, n, 0.2, 1.0) for n in (128, 64, 64, 64, 64)]
        return lambda: [refs.maxplus_broadcast_mm(M, M) for M in mats]
    small = [(inputs.rand_matrix(rng, 4, 0.2, 12.0), inputs.rand_matrix(rng, 4, 0.5, 12.0))
             for _ in range(12)]
    return lambda: [(refs.theta(A, B), refs.karp_exact(A)) for A, B in small]


def _power_diagonals(M: np.ndarray, count: int) -> float:
    """Heaviest diagonal entry of ``M^1 .. M^count``, one tiny product at a time."""
    P, best = M, refs.NEG_INF
    for _ in range(count):
        P = refs.maxplus_broadcast_mm(P, M)
        best = max(best, float(np.max(np.diagonal(P))))
    return best


def tail(lat: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if len(lat) * (1 - p / 100) >= TAIL_BEYOND:
            return p, float(np.percentile(lat, p))
    return 0.0, min(lat)


def setup_times(op, run_subprocess) -> list[float]:
    """Set-up time, once per fresh child process."""
    if op.fmt is not None:  # CLI op: the warm-up subprocess's wall time
        return [_wall(lambda: run_subprocess(op)) for _ in range(SETUP_REPEATS)]
    A = op.A if op.A is not None else op.B
    B = op.B if op.B is not None else op.A
    payload = json.dumps({"kind": op.kind, "n": op.n}).encode() + b"\n" + A.tobytes() + B.tobytes()
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=payload,
            capture_output=True,
            env=child_env(),
            timeout=120,
            check=True,
        )
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def _wall(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# -- per-layer ----------------------------------------------------------------

FUNCTION_METRICS = (
    "tensor.as_matrix.calls",
    "tensor.as_matrix.self_ms",
    "tensor.as_vector.calls",
    "semiring.rational_pow.calls",
    "semiring.rational_pow.self_ms",
    "spectral.is_irreducible.calls",
    "solver.ProblemInstance.total_ms",
    "solver.solve_constrained.total_ms",
    "solver.solve_constrained.self_ms",
    "solver.compute_theta.total_ms",
    "solver.compute_theta.self_ms",
    "semiring.add.calls",
    "solver.solve_unconstrained.total_ms",
    "solver.solve_linear_inequality.total_ms",
    "tensor.kleene_star.total_ms",
    "spectral.spectral_radius.total_ms",
    "spectral.big_tr.total_ms",
    "tensor.reduce_generators.total_ms",
    "tensor.collinear.calls",
    "cli.main.total_ms",
    "cli.parse_matrix.total_ms",
    "semiring.format_scalar.calls",
    "solver.check_hypotheses.calls",
    "oracle.grid_min.total_ms",
    "oracle.sample_solution_family.total_ms",
)
STARTUP_METRICS = ("cli.interpreter_ms", "cli.import_numpy_ms", "cli.import_tropsolve_ms")


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    return "ratio"


def layer_metrics(tracer, lat_plain, lat_traced) -> dict[str, float]:
    agg = tracer.aggregate()
    ops = len(lat_traced)
    op_time = sum(lat_traced)
    m = {}
    for metric in FUNCTION_METRICS:
        fn, _, stat = metric.rpartition(".")
        rec = agg.get(fn, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        m[metric] = rec["calls"] / ops if stat == "calls" else rec[stat.replace("_ms", "_s")] * 1e3 / ops
    m["tensor.reduce_generators.kept_frac"] = tracer.cols_out / tracer.cols_in if tracer.cols_in else 0.0
    covered = 0.0
    for mod in spans.MODULES:
        share = sum(r["self_s"] for fn, r in agg.items() if fn.startswith(mod + ".")) / op_time
        m[f"{mod}.share"] = share
        covered += share
    m["untraced.share"] = 1.0 - covered
    m["op.untraced_ms"] = statistics.fmean(lat_plain) * 1e3
    m["op.traced_ms"] = statistics.fmean(lat_traced) * 1e3
    m["trace.overhead_frac"] = m["op.traced_ms"] / m["op.untraced_ms"] - 1.0
    return m


def startup_metrics(op_wall: list[float]) -> dict[str, float]:
    """Interpreter start and import times of a CLI child, medians of several."""
    env = child_env()
    interp = statistics.median(
        _wall(lambda: subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60))
        for _ in range(SETUP_REPEATS)
    )
    numpy_us, trop_us = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import numpy, tropsolve"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            top_level = parts[-1].startswith(" ") and not parts[-1].startswith("  ")
            if len(parts) == 3 and top_level and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])
        numpy_us.append(cumulative["numpy"])
        trop_us.append(cumulative["tropsolve"])
    m = {
        "cli.interpreter_ms": interp * 1e3,
        "cli.import_numpy_ms": statistics.median(numpy_us) / 1e3,
        "cli.import_tropsolve_ms": statistics.median(trop_us) / 1e3,
    }
    m["cli.startup.share"] = sum(m.values()) / (statistics.fmean(op_wall) * 1e3)
    return m


# -- environment --------------------------------------------------------------


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tropsolve").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import cpuinfo

    return {
        "cpu": cpuinfo.get_cpu_info().get("brand_raw"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
    }


# -- main ---------------------------------------------------------------------


def end_to_end(ops, seconds, run, check, outcomes, calibrate, setups, rusage):
    lat, wall, cal = closed_loop(ops, seconds, run, check, outcomes, calibrate)
    tail_p, tail_s = tail(lat)
    p50, unit = statistics.median(lat), statistics.median(cal)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_cal": (p50 / unit, "cal"),
        "latency_tail_cal": (tail_s / unit, "cal"),
        "throughput_cal": (len(lat) / wall * unit, "1/cal"),
        "ok_frac": (1.0 - sum(outcomes.failures().values()) / outcomes.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(rusage).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "tail_percentile": tail_p,
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "throughput_ops_s": len(lat) / wall,
        "calibration_ms": unit * 1e3,
        "calibration_samples": len(cal),
        "setup_samples": setups,
    }
    return metrics, lat, raw


def per_layer(ops, seconds, run, check, outcomes, run_subprocess=None):
    """Half the time untraced, half traced; the CLI also times whole child processes."""
    metrics = dict.fromkeys(STARTUP_METRICS + ("cli.startup.share",), 0.0)
    lat = []
    if run_subprocess is not None:
        seconds /= 2
        lat, _, _ = closed_loop(ops, seconds, run_subprocess, check, outcomes)
        metrics.update(startup_metrics(lat))
    plain, _, _ = closed_loop(ops, seconds / 2, run, check, outcomes)
    tracer = spans.Tracer()
    op_ids = itertools.count()

    def traced(op):
        tracer.op_id = next(op_ids)
        return run(op)

    tracer.install()
    try:
        traced_lat, _, _ = closed_loop(ops, seconds / 2, traced, check, outcomes)
    finally:
        tracer.uninstall()
    metrics.update(layer_metrics(tracer, plain, traced_lat))
    metrics = {name: (value, unit_of(name)) for name, value in metrics.items()}
    return metrics, lat + plain + traced_lat, tracer


def main() -> int:
    args = parse_args()
    if not (SRC / "tropsolve" / "__init__.py").is_file():
        print(f"error: no tropsolve sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    ops = inputs.generate(args.workload, args.seed)
    info = {"workload": args.workload, "seed": args.seed, "inputs_digest": inputs.digest(ops)}
    is_cli = args.workload == "cli"
    env = child_env()
    paths = workloads.write_cli_files(ops, OUT / f"cli-{args.seed}") if is_cli else {}

    def run_subprocess(op):
        return workloads.run_cli(workloads.cli_argv(op, paths), env)

    setups = setup_times(ops[0], run_subprocess) if args.trace == 0 else []
    sys.path.insert(0, str(SRC))
    import tropsolve as ts
    import tropsolve.cli

    if Path(ts.__file__).resolve().parent != (SRC / "tropsolve").resolve():
        print(f"error: imported tropsolve from {ts.__file__}, not {SRC}", file=sys.stderr)
        return 2

    def run(op):
        if is_cli:  # in process; child processes are timed by setup_s
            return workloads.run_cli_inprocess(ts.cli, workloads.cli_argv(op, paths))
        return workloads.call(ts, op)

    check = workloads.check_cli if is_cli else workloads.check
    run(ops[0])  # warm-up, untimed
    outcomes = Outcomes()

    if args.trace == 0:
        rusage = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        metrics, lat, extra = end_to_end(
            ops, args.seconds, run, check, outcomes, calibration(args.workload), setups, rusage
        )
        info.update(extra)
    else:
        metrics, lat, tracer = per_layer(
            ops, args.seconds, run, check, outcomes, run_subprocess if is_cli else None
        )
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.npz")

    failures = outcomes.failures()
    failed = sum(failures.values())
    info.update(samples=len(lat), failures=dict(failures), fail_frac=failed / outcomes.attempted)
    info["env"] = environment(args.seed)
    result = {
        # the documented exactness defect counts as a failed op; any other
        # kind of failure means the library gave a wrong answer
        "correct": set(failures) <= {workloads.KNOWN_DEFECT},
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    path = OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
