"""Record the benchmark: every workload of BENCHMARK.json on seeds 1-5.

Run from anywhere, with no options:

    python3 tools/bench_record.py

Each of the 20 runs is the unchanged benchmark command of BENCHMARK.json,
``python3 perfbench/run.py --workload W --seed S --seconds 25 --trace 0``,
run one at a time from the repository root; about ten minutes in all.
The last stdout line of each run (its result object) is written, with
the workload and seed, to ``OUT`` (``BENCH_11.json``) at the repository
root, together with the environment of the first run's info line (the
machine, the versions, the git commit and the source digest, without
the seed).  Run it at the commit being measured, with no uncommitted
change under ``src/``, so that the commit and the digest name the
measured code, and raise the number in ``OUT`` for each new record.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_11.json"
SEEDS = (1, 2, 3, 4, 5)


def run(argv: list[str]) -> tuple[dict, dict]:
    """One benchmark run: its info line and its result line."""
    lines = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True)
    info, result = lines.stdout.splitlines()[-2:]
    return json.loads(info), json.loads(result)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs, env = [], None
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            print(" ".join(argv), file=sys.stderr, flush=True)
            info, result = run(argv)
            env = env or {k: v for k, v in info["env"].items() if k != "seed"}
            runs.append({"workload": workload, "seed": seed, "result": result})
    doc = {"command": spec["command"], "run_seconds": spec["run_seconds"], "env": env, "runs": runs}
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(runs)} runs to {OUT.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
