"""Command-line front end.

Subcommands: ``solve``, ``unconstrained``, ``inequality``, ``spectral``,
``theta``, ``verify``, ``star``.  Matrices come from text files (``#``
comments, an ``n m`` header, then n rows of scalar tokens); reports go to
stdout as text or JSON, diagnostics go to stderr.  Exit status 0 means
success, 1 infeasibility or a failed hypothesis, 2 bad input or usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import HypothesisError, ParseError, TropicalError
from .oracle import grid_min, sample_solution_family, scalar_close
from .semiring import MAX_PLUS, Semifield, semifield_by_name
from .solver import (
    ProblemInstance,
    compute_theta,
    solve_constrained,
    solve_linear_inequality,
    solve_unconstrained,
)
from .spectral import spectral_summary
from .tensor import kleene_star

__all__ = ["main", "parse_matrix", "format_matrix"]

# The solver stack is stated and tested in max-plus; the plain algebra
# subcommands work in either instance.
_MAXPLUS_ONLY = {"solve", "unconstrained", "theta", "verify"}


# -- matrix text format -------------------------------------------------------


def parse_matrix(text: str, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Parse the matrix text format: ``#`` comment lines, an ``n m``
    header, then n rows of m whitespace-separated scalar tokens."""
    lines = [
        (no, line.strip())
        for no, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty matrix file")
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"expected header 'n m', got {header!r}", line=header_no)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"expected integer sizes in header, got {header!r}", line=header_no)
    if n < 1 or m < 1:
        raise ParseError(f"matrix sizes must be positive, got {n} x {m}", line=header_no)
    if len(lines) - 1 < n:
        raise ParseError(f"expected {n} rows, file ends after {len(lines) - 1}")
    if len(lines) - 1 > n:
        raise ParseError("unexpected trailing content", line=lines[n + 1][0])
    rows = []
    for row_no, row in lines[1:]:
        tokens = row.split()
        if len(tokens) != m:
            raise ParseError(f"expected {m} tokens, got {len(tokens)}", line=row_no)
        try:
            rows.append([sf.parse_scalar(tok) for tok in tokens])
        except ParseError as exc:
            raise ParseError(str(exc), line=row_no) from None
    return np.array(rows, dtype=np.float64)


def format_matrix(M, sf: Semifield = MAX_PLUS) -> str:
    """Inverse of :func:`parse_matrix`; bit-exact round trip for integer
    entries."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim == 1:
        M = M[:, None]
    lines = [f"{M.shape[0]} {M.shape[1]}"]
    lines += [" ".join(sf.format_scalar(v) for v in row) for row in M]
    return "\n".join(lines) + "\n"


def _matrix_tokens(M, sf: Semifield) -> list[list[str]]:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim == 1:
        M = M[:, None]
    return [[sf.format_scalar(v) for v in row] for row in M]


def _load_matrix(path: str, sf: Semifield) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc.strerror or exc}") from None
    try:
        return parse_matrix(text, sf)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


# -- output helpers -----------------------------------------------------------


def _diag(message: str) -> None:
    if os.environ.get("TROP_COLOR") == "1":
        message = f"\x1b[31m{message}\x1b[0m"
    print(message, file=sys.stderr)


def _emit_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _print_matrix_rows(M, sf: Semifield) -> None:
    for row in _matrix_tokens(M, sf):
        print(" ".join(row))


def _print_cone_text(doc: dict) -> None:
    print(f"theta = {doc['theta']}")
    print("closure:")
    for row in doc["closure"]:
        print(" ".join(row))
    print("generators:")
    for row in doc["generators"]:
        print(" ".join(row))
    for w in doc["warnings"]:
        print(f"warning: {w}")


# -- subcommand handlers ------------------------------------------------------


def _cone_doc(cone, sf: Semifield) -> dict:
    return {
        "theta": sf.format_scalar(cone.theta),
        "closure": _matrix_tokens(cone.closure_matrix, sf),
        "generators": _matrix_tokens(cone.generators, sf),
        "reduced": cone.reduced,
        "degenerate": cone.degenerate,
        "hypotheses": cone.hypotheses,
        "warnings": list(cone.warnings),
    }


def _cmd_solve(args) -> int:
    sf = args.sf
    instance = ProblemInstance(
        _load_matrix(args.objective, sf), _load_matrix(args.constraint, sf), sf
    )
    cone = solve_constrained(instance, override_irreducibility=args.force)
    doc = _cone_doc(cone, sf)
    if args.format == "json":
        _emit_json(doc)
    else:
        _print_cone_text(doc)
    return 0


def _cmd_unconstrained(args) -> int:
    sf = args.sf
    A = _load_matrix(args.objective, sf)
    cone = solve_unconstrained(A, sf)
    doc = _cone_doc(cone, sf)
    if args.format == "json":
        _emit_json(doc)
    else:
        _print_cone_text(doc)
    return 0


def _cmd_inequality(args) -> int:
    sf = args.sf
    A = _load_matrix(args.objective, sf)
    result = solve_linear_inequality(A, sf)
    doc = {
        "feasible": result.verdict.feasible,
        "tr": sf.format_scalar(result.verdict.tr_value),
        "generators": None
        if result.generators is None
        else _matrix_tokens(result.generators, sf),
        "warnings": list(result.warnings),
    }
    if args.format == "json":
        _emit_json(doc)
        if not result.verdict.feasible:
            _diag("no regular solution")
    else:
        if result.verdict.feasible:
            print(f"feasible: Tr = {doc['tr']}")
            print("generators:")
            _print_matrix_rows(result.generators, sf)
            for w in result.warnings:
                print(f"warning: {w}")
        else:
            print("no regular solution")
            print(f"Tr = {doc['tr']}")
    return 0 if result.verdict.feasible else 1


def _cmd_spectral(args) -> int:
    sf = args.sf
    summary = spectral_summary(_load_matrix(args.objective, sf), sf)
    doc = {
        "lambda": sf.format_scalar(summary.radius),
        "traces": [[m, sf.format_scalar(t)] for m, t in summary.per_power_traces],
    }
    if args.format == "json":
        _emit_json(doc)
    else:
        print(f"lambda = {doc['lambda']}")
        for m, tok in doc["traces"]:
            print(f"tr(A^{m}) = {tok}")
    return 0


def _cmd_theta(args) -> int:
    sf = args.sf
    A = _load_matrix(args.objective, sf)
    B = _load_matrix(args.constraint, sf)
    value = compute_theta(A, B, sf)
    doc = {"theta": sf.format_scalar(value)}
    if args.format == "json":
        _emit_json(doc)
    else:
        print(f"theta = {doc['theta']}")
    return 0


def _cmd_star(args) -> int:
    sf = args.sf
    S = kleene_star(_load_matrix(args.objective, sf), sf)
    if args.format == "json":
        _emit_json({"star": _matrix_tokens(S, sf)})
    else:
        # emit the matrix file format so the output can be piped back in
        sys.stdout.write(format_matrix(S, sf))
    return 0


def _parse_box(specs: list[str] | None) -> list[tuple[float, float]] | tuple[float, float]:
    if not specs:
        return (-10.0, 10.0)
    out = []
    for raw in specs:
        lo, sep, hi = raw.partition(":")
        if not sep:
            raise ParseError(f"expected 'lo:hi', got {raw!r}")
        try:
            out.append((float(lo), float(hi)))
        except ValueError:
            raise ParseError(f"expected 'lo:hi' with real bounds, got {raw!r}") from None
    return out[0] if len(out) == 1 else out


def _cmd_verify(args) -> int:
    sf = args.sf
    instance = ProblemInstance(
        _load_matrix(args.objective, sf), _load_matrix(args.constraint, sf), sf
    )
    cone = solve_constrained(instance, override_irreducibility=args.force)
    report = grid_min(instance, _parse_box(args.box), args.step)
    family = sample_solution_family(instance, cone, trials=args.trials, seed=args.seed)
    doc = {
        "theta": sf.format_scalar(cone.theta),
        "estimated_min": None
        if report.estimated_min is None
        else sf.format_scalar(report.estimated_min),
        "argmin": None
        if report.argmin is None
        else [sf.format_scalar(v) for v in report.argmin],
        "grid_step": report.grid_step,
        "grid_box": [list(pair) for pair in report.grid_box],
        "samples_evaluated": report.samples_evaluated,
        "feasible_found": report.feasible_found,
        "matches_theta": scalar_close(report.estimated_min, cone.theta),
        "family": {
            "trials": family.trials,
            "seed": family.seed,
            "failures": [
                {
                    "trial": f.trial,
                    "u": [sf.format_scalar(v) for v in f.u],
                    "kind": f.kind,
                    "observed": None if f.observed is None else sf.format_scalar(f.observed),
                }
                for f in family.failures
            ],
            "passed": family.passed,
        },
        "warnings": list(cone.warnings),
    }
    _emit_json(doc)
    return 0


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropsolve",
        description="Tropical linear algebra and the closed-form constrained minimizer.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, constraint: bool, force: bool = False):
        p.add_argument("-A", "--objective", required=True, help="matrix file")
        if constraint:
            p.add_argument("-B", "--constraint", required=True, help="constraint matrix file")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument(
            "--semifield", choices=["max-plus", "min-plus"], default="max-plus"
        )
        if force:
            p.add_argument(
                "--force", action="store_true", help="override the irreducibility hypothesis"
            )

    p = sub.add_parser("solve", help="minimize x^- A x subject to B x <= x")
    common(p, constraint=True, force=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("unconstrained", help="minimize x^- A x over all regular x")
    common(p, constraint=False)
    p.set_defaults(func=_cmd_unconstrained)

    p = sub.add_parser("inequality", help="solve A x <= x")
    common(p, constraint=False)
    p.set_defaults(func=_cmd_inequality)

    p = sub.add_parser("spectral", help="spectral radius and the traces of powers")
    common(p, constraint=False)
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("theta", help="evaluate the closed-form minimum only")
    common(p, constraint=True)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("star", help="bounded Kleene star I (+) A (+) ... (+) A**(n-1)")
    common(p, constraint=False)
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("verify", help="cross-check a solve against the grid oracle")
    common(p, constraint=True, force=True)
    p.add_argument("--box", action="append", metavar="LO:HI", help="grid interval, repeatable")
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    # argparse mistakes a negative bound in '--box -10:10' for an option;
    # fold the value into '--box=-10:10' form.
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--box" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--box={argv[i + 1]}")
            i += 2
            continue
        out.append(arg)
        i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _normalize_argv(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.subcommand in _MAXPLUS_ONLY and args.semifield != "max-plus":
        _diag(f"error: subcommand {args.subcommand!r} supports max-plus only")
        return 2
    args.sf = semifield_by_name(args.semifield)
    try:
        return args.func(args)
    except HypothesisError as exc:
        _diag(f"hypothesis failed ({exc.hypothesis}): {exc}")
        return 1
    except TropicalError as exc:
        _diag(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
