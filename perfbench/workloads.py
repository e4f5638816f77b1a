"""How each op calls tropsolve, and how its output is checked.

In-process ops look the library function up on the package at call
time, so the tracer's wrappers take effect when installed.  CLI ops run
``python -m tropsolve`` in a child process, one at a time.  A check
returns ``None`` on success or the kind of failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import refs
from inputs import CLI_SMALL, Op

# Documented defect (ROADMAP item 4): when lambda = w/k has an odd factor in
# k, lambda^-1 A is inexact in float64 and attainment fails bitwise.
KNOWN_DEFECT = "attainment_inexact_lambda"


def call(ts, op: Op):
    if op.kind == "constrained":
        return ts.solve_constrained(ts.ProblemInstance(op.A, op.B))
    if op.kind == "unconstrained":
        return ts.solve_unconstrained(op.A)
    return ts.solve_linear_inequality(op.B)


def _regular_columns(G: np.ndarray) -> np.ndarray:
    return G[:, np.all(np.isfinite(G), axis=0)]


def _attains(A: np.ndarray, G: np.ndarray, value: float) -> bool:
    return bool(np.all(np.max(refs.maxplus_mm(A, G) - G, axis=0) == value))


def _fixed(M: np.ndarray, G: np.ndarray) -> bool:
    return bool(np.all(refs.maxplus_mm(M, G) <= G))


def check(op: Op, out) -> str | None:
    if op.kind == "inequality":
        if not out.verdict.feasible or out.verdict.tr_value != op.ref["tr"]:
            return "tr"
        if not np.array_equal(out.generators, op.ref["star"]):
            return "star"
        return None if _fixed(op.B, _regular_columns(out.generators)) else "constraint"
    G = _regular_columns(out.generators)
    if op.kind == "unconstrained":
        if out.theta != op.ref["lambda"]:
            return "lambda"
        if not _attains(op.A, G, out.theta):
            return "attainment" if op.ref["dyadic"] else KNOWN_DEFECT
        return None
    if out.theta != op.ref["theta"]:
        return "theta"
    if not _fixed(op.B, G):
        return "constraint"
    return None if _attains(op.A, G, out.theta) else "attainment"


# -- CLI ----------------------------------------------------------------------


def _matrix_text(M: np.ndarray) -> str:
    rows = [" ".join(refs.token(v) for v in row) for row in M]
    return "\n".join([f"{M.shape[0]} {M.shape[1]}", *rows]) + "\n"


def write_cli_files(ops: list[Op], folder: Path) -> dict[str, str]:
    """Write the CLI's matrix files; returns role -> path."""
    folder.mkdir(parents=True, exist_ok=True)
    small = next(op for op in ops if op.kind in CLI_SMALL)
    big = next(op for op in ops if op.kind not in CLI_SMALL)
    files = {"A4": small.A, "B4": small.B, "A16": big.A, "B16": big.B}
    paths = {}
    for role, M in files.items():
        path = folder / f"{role}.txt"
        path.write_text(_matrix_text(M))
        paths[role] = str(path)
    return paths


def cli_argv(op: Op, paths: dict[str, str]) -> list[str]:
    if op.kind in CLI_SMALL:
        files = ["-A", paths["A4"], "-B", paths["B4"]]
    elif op.kind in ("inequality", "star"):
        files = ["-A", paths["B16"]]
    else:
        files = ["-A", paths["A16"]]
    return [op.kind, *files, "--format", op.fmt]


def run_cli(argv: list[str], env: dict) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "tropsolve", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout


def run_cli_inprocess(cli_module, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli_module.main(argv)
    return code, buf.getvalue()


def check_cli(op: Op, result: tuple[int, str]) -> str | None:
    code, stdout = result
    if code != 0:
        return f"exit_{code}"
    ref = op.ref
    if op.kind == "star":
        if op.fmt == "json":
            ok = json.loads(stdout)["star"] == [[refs.token(v) for v in row] for row in ref["star"]]
        else:
            ok = stdout == _matrix_text(ref["star"])
        return None if ok else "star"
    if op.kind == "inequality":
        key, value, line = "tr", ref["tr"], "feasible: Tr = {}"
    elif op.kind == "spectral":
        key, value, line = "lambda", ref["lambda"], "lambda = {}"
    else:
        value = ref["lambda"] if op.kind == "unconstrained" else ref["theta"]
        key, line = "theta", "theta = {}"
    tok = refs.token(value)
    if op.fmt == "json" or op.kind == "verify":
        ok = json.loads(stdout)[key] == tok
    else:
        ok = stdout.splitlines()[0] == line.format(tok)
    return None if ok else key
