"""Tier-2 smoke run: each workload briefly on seed 1 against the newest BENCH file.

Run from anywhere, with no options:

    python3 tools/bench_smoke.py

Each workload of BENCHMARK.json runs once, as the benchmark command with
``--seed 1 --seconds 3 --trace 0`` (through ``bench_record.run``), about
half a minute in all with set-up.  A workload regresses when its
``latency_p50_cal`` or ``latency_tail_cal`` is more than twice, or its
``throughput_cal`` less than half, the median of that workload's runs in
the newest ``BENCH_<n>.json`` at the repository root, or its ``ok_frac``
is lower than that median.  Each regression is printed with its metric,
and the exit status is 1 if there is one, else 0.  It is not part of the
tier-1 tests.
"""

from __future__ import annotations

import json
import statistics
import sys

from bench_record import ROOT, run

SECONDS = 3
FACTOR = 2.0
LOWER_IS_BETTER = ("latency_p50_cal", "latency_tail_cal")


def newest_record():
    return max(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.partition("_")[2]))


def regressions(workload: str, metrics: dict, recorded: list[dict]) -> list[str]:
    """The metrics of one smoke run that are worse than the record allows."""
    out = []
    for name in (*LOWER_IS_BETTER, "throughput_cal", "ok_frac"):
        value = metrics[name]["value"]
        median = statistics.median(r["metrics"][name]["value"] for r in recorded)
        if name in LOWER_IS_BETTER:
            worse = value > FACTOR * median
        elif name == "throughput_cal":
            worse = value < median / FACTOR
        else:
            worse = value < median
        if worse:
            out.append(f"{workload}: {name} = {value:.4g}, recorded median {median:.4g}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = newest_record()
    runs = json.loads(record.read_text())["runs"]
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        argv = [*spec["command"], "--workload", workload, "--seed", "1",
                "--seconds", str(SECONDS), "--trace", "0"]
        print(" ".join(argv), file=sys.stderr, flush=True)
        _, result = run(argv)
        recorded = [r["result"] for r in runs if r["workload"] == workload]
        failures += regressions(workload, result["metrics"], recorded)
    for line in failures:
        print(f"regression: {line}", file=sys.stderr)
    print(f"{len(failures)} regressions against {record.name}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
