import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tropsolve as ts
from tropsolve import MAX_PLUS, MIN_PLUS, DomainError, ParseError
from tropsolve.cli import format_matrix, main, parse_matrix
from tropsolve.oracle import grid_min

from helpers import NEG_INF, rand_matrix

A_TEXT = "2 2\n0 -3\n-5 -2\n"
B_TEXT = "2 2\n0 -8\n5 -3\n"
B_INFEASIBLE_TEXT = "2 2\n1 -8\n5 -3\n"


@pytest.fixture
def matrix_files(tmp_path):
    paths = {}
    for name, text in [("a.mat", A_TEXT), ("b.mat", B_TEXT), ("binf.mat", B_INFEASIBLE_TEXT)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


class TestParseMatrix:
    def test_worked_example(self):
        A = parse_matrix(A_TEXT)
        assert np.array_equal(A, [[0.0, -3.0], [-5.0, -2.0]])

    def test_comments_and_blank_lines(self):
        text = "# objective matrix\n\n2 2\n# row one\n0 -3\n-5 -2\n"
        assert np.array_equal(parse_matrix(text), [[0.0, -3.0], [-5.0, -2.0]])

    def test_one_by_one_zero(self):
        M = parse_matrix("1 1\n-inf\n")
        assert M.shape == (1, 1) and M[0, 0] == NEG_INF

    def test_short_row_reports_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_matrix("2 2\n0 -3\n-5\n")

    def test_malformed_token_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix("1 2\n0 abc\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_matrix("2\n0\n0\n")
        with pytest.raises(ParseError, match="positive"):
            parse_matrix("0 2\n")

    def test_missing_and_trailing_rows(self):
        with pytest.raises(ParseError, match="ends after"):
            parse_matrix("3 1\n0\n1\n")
        with pytest.raises(ParseError, match="trailing"):
            parse_matrix("1 1\n0\n1\n")

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            M = rand_matrix(rng, n)
            assert np.array_equal(parse_matrix(format_matrix(M)), M)
        W = ts.as_matrix([[0.0, float("inf")], [3.0, 0.0]], MIN_PLUS)
        assert np.array_equal(parse_matrix(format_matrix(W, MIN_PLUS), MIN_PLUS), W)


class TestFormatMatrix:
    @pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS], ids=lambda sf: sf.name)
    def test_non_scalars_are_domain_errors(self, sf):
        for bad in (float("nan"), -sf.zero):
            with pytest.raises(DomainError):
                sf.format_scalar(bad)
            with pytest.raises(DomainError):
                format_matrix([[0.0, bad]], sf)

    @pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS], ids=lambda sf: sf.name)
    def test_non_integer_entries_print_as_plain_decimals(self, sf):
        M = np.array([[0.5, sf.zero], [-1 / 3, 2.0]])
        text = format_matrix(M, sf)
        assert text.splitlines()[1:] == ["0.5 " + sf.format_scalar(sf.zero), f"{-1 / 3!r} 2"]
        assert np.array_equal(parse_matrix(text, sf), M)


class TestGoldenRuns:
    SOLVE_JSON = (
        '{\n  "theta": "2",\n  "closure": [\n    [\n      "0",\n      "-5"\n    ],\n'
        '    [\n      "5",\n      "0"\n    ]\n  ],\n  "generators": [\n    [\n'
        '      "0"\n    ],\n    [\n      "5"\n    ]\n  ],\n  "reduced": true,\n'
        '  "degenerate": false,\n  "hypotheses": {\n    "irreducible_A": true,\n'
        '    "irreducible_B": true,\n    "spectral_radius_positive": true,\n'
        '    "constraint_feasible": true\n  },\n  "warnings": []\n}\n'
    )
    INEQUALITY_JSON = (
        '{\n  "feasible": false,\n  "tr": "2",\n  "generators": null,\n  "warnings": []\n}\n'
    )
    SPECTRAL_JSON = (
        '{\n  "lambda": "0",\n  "traces": [\n    [\n      1,\n      "0"\n    ],\n'
        '    [\n      2,\n      "0"\n    ]\n  ]\n}\n'
    )

    def test_solve_golden(self, matrix_files, capsys):
        code = main(["solve", "-A", matrix_files["a.mat"], "-B", matrix_files["b.mat"],
                     "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == self.SOLVE_JSON
        assert captured.err == ""

    def test_solve_evaluates_each_hypothesis_once(self, matrix_files, capsys, monkeypatch):
        # irreducibility of A (that of B is read from B*, and an irreducible
        # A on two nodes has a cycle, so lambda(A) is not needed), lambda(A B*),
        # and the stars B* and (theta^-1 A (+) B)*: nothing is recomputed for
        # the report
        calls = []

        def counted(name, inner):
            def kernel(*args):
                calls.append(name)
                return inner(*args)

            return kernel

        for name in ("_irreducible", "_karp", "_star"):
            monkeypatch.setattr(ts.solver, name, counted(name, getattr(ts.solver, name)))
        main(["solve", "-A", matrix_files["a.mat"], "-B", matrix_files["b.mat"], "--format", "json"])
        assert capsys.readouterr().out == self.SOLVE_JSON
        assert sorted(calls) == ["_irreducible", "_karp"] + ["_star"] * 2

    def test_solve_reads_tr_b_once(self, matrix_files, capsys, monkeypatch):
        # Tr(B) = tr(B B*) gives both the constraint_feasible hypothesis and
        # the feasibility check before theta; one solve reads it once
        calls = []
        inner = ts.solver._tr

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(ts.solver, "_tr", counted)
        main(["solve", "-A", matrix_files["a.mat"], "-B", matrix_files["b.mat"], "--format", "json"])
        assert capsys.readouterr().out == self.SOLVE_JSON
        assert len(calls) == 1

    def test_inequality_golden(self, matrix_files, capsys):
        code = main(["inequality", "-A", matrix_files["binf.mat"], "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == self.INEQUALITY_JSON
        assert "no regular solution" in captured.err

    def test_spectral_golden(self, matrix_files, capsys):
        code = main(["spectral", "-A", matrix_files["a.mat"], "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == self.SPECTRAL_JSON
        assert captured.err == ""


CONE_DOC = """{
  "theta": "0",
  "closure": [
    [
      "0",
      "-3"
    ],
    [
      "-5",
      "0"
    ]
  ],
  "generators": [
    [
      "0",
      "-3"
    ],
    [
      "-5",
      "0"
    ]
  ],
  "reduced": true,
  "degenerate": false,
  "hypotheses": {
    "irreducible_A": true,
    "spectral_radius_positive": true
  },
  "warnings": []
}
"""
STAR_DOC = """{
  "star": [
    [
      "0",
      "-8"
    ],
    [
      "5",
      "0"
    ]
  ]
}
"""
FEASIBLE_DOC = """{
  "feasible": true,
  "tr": "0",
  "generators": [
    [
      "0",
      "-8"
    ],
    [
      "5",
      "0"
    ]
  ],
  "warnings": []
}
"""

# every subcommand on the worked example: argv (files by fixture name), the
# exit status and the full stdout bytes; stderr is empty in each run
GOLDEN_STDOUT = [
    (["solve", "-A", "a.mat", "-B", "b.mat"], 0,
     "theta = 2\nclosure:\n0 -5\n5 0\ngenerators:\n0\n5\n"),
    (["unconstrained", "-A", "a.mat"], 0,
     "theta = 0\nclosure:\n0 -3\n-5 0\ngenerators:\n0 -3\n-5 0\n"),
    (["unconstrained", "-A", "a.mat", "--format", "json"], 0, CONE_DOC),
    (["inequality", "-A", "b.mat"], 0, "feasible: Tr = 0\ngenerators:\n0 -8\n5 0\n"),
    (["inequality", "-A", "b.mat", "--format", "json"], 0, FEASIBLE_DOC),
    (["inequality", "-A", "binf.mat"], 1, "no regular solution\nTr = 2\n"),
    (["spectral", "-A", "a.mat"], 0, "lambda = 0\ntr(A^1) = 0\ntr(A^2) = 0\n"),
    (["theta", "-A", "a.mat", "-B", "b.mat"], 0, "theta = 2\n"),
    (["theta", "-A", "a.mat", "-B", "b.mat", "--format", "json"], 0,
     '{\n  "theta": "2"\n}\n'),
    (["star", "-A", "b.mat"], 0, "2 2\n0 -8\n5 0\n"),
    (["star", "-A", "b.mat", "--format", "json"], 0, STAR_DOC),
]


class TestGoldenStdout:
    @pytest.mark.parametrize(
        "argv, code, out", GOLDEN_STDOUT, ids=[" ".join(a) for a, _, _ in GOLDEN_STDOUT]
    )
    def test_stdout_bytes(self, matrix_files, capsys, argv, code, out):
        argv = [matrix_files.get(arg, arg) for arg in argv]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == out
        assert captured.err == ""

    def test_forced_reducible_solve_prints_each_warning(self, tmp_path, capsys):
        # the pair of test_solver's test_override_emits_warnings_but_stays_sound
        a, b = tmp_path / "ra.mat", tmp_path / "rb.mat"
        a.write_text("2 2\n1 0\n-inf 1\n")
        b.write_text("2 2\n-1 -inf\n-inf -2\n")
        assert main(["solve", "-A", str(a), "-B", str(b), "--force"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "theta = 1\nclosure:\n0 -1\n-inf 0\ngenerators:\n0 -1\n-inf 0\n"
            "warning: completeness unverified: neither A nor B is irreducible\n"
            "warning: combined matrix theta**-1 A (+) B is reducible; completeness unverified\n"
            "warning: some generator columns are not regular; use regular u only\n"
        )
        assert captured.err == ""


class TestTextMode:
    def test_solve_text(self, matrix_files, capsys):
        code = main(["solve", "-A", matrix_files["a.mat"], "-B", matrix_files["b.mat"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "theta = 2" in out
        assert "0 -5\n5 0" in out

    def test_infeasible_inequality_text(self, matrix_files, capsys):
        code = main(["inequality", "-A", matrix_files["binf.mat"]])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("no regular solution")

    def test_feasible_inequality_text(self, matrix_files, capsys):
        code = main(["inequality", "-A", matrix_files["b.mat"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible: Tr = 0" in out
        assert "0 -8\n5 0" in out

    def test_theta_and_star(self, matrix_files, capsys):
        assert main(["theta", "-A", matrix_files["a.mat"], "-B", matrix_files["b.mat"]]) == 0
        assert capsys.readouterr().out == "theta = 2\n"
        # star emits the matrix file format so output pipes back in as input
        assert main(["star", "-A", matrix_files["b.mat"]]) == 0
        out = capsys.readouterr().out
        assert out == "2 2\n0 -8\n5 0\n"
        assert np.array_equal(parse_matrix(out), [[0.0, -8.0], [5.0, 0.0]])

    def test_theta_and_solve_at_n_21(self, tmp_path, capsys):
        # One Hamiltonian cycle i -> i+1 (mod 21).  A weighs 2L on 0 -> 1 and
        # -L elsewhere; B offers weight 0 on every edge but 0 -> 1.  The best
        # walk takes A once and B around the rest, so theta = 2L, while
        # lambda(A) = -18L/21.  L = lcm(1..21) keeps every k-th root exact.
        n, L = 21, math.lcm(*range(1, 22))
        A = np.full((n, n), NEG_INF)
        B = np.full((n, n), NEG_INF)
        for i in range(n):
            A[i, (i + 1) % n] = -L
            B[i, (i + 1) % n] = 0.0
        A[0, 1], B[0, 1] = 2 * L, NEG_INF
        a, b = tmp_path / "a21.mat", tmp_path / "b21.mat"
        a.write_text(format_matrix(A))
        b.write_text(format_matrix(B))
        assert main(["theta", "-A", str(a), "-B", str(b)]) == 0
        assert capsys.readouterr().out == f"theta = {2 * L}\n"
        assert main(["solve", "-A", str(a), "-B", str(b)]) == 0
        assert capsys.readouterr().out.startswith(f"theta = {2 * L}\n")

    def test_unconstrained(self, matrix_files, capsys):
        assert main(["unconstrained", "-A", matrix_files["a.mat"]]) == 0
        out = capsys.readouterr().out
        assert "theta = 0" in out and "0 -3\n-5 0" in out

    def test_text_and_json_report_identical_values(self, matrix_files, capsys):
        main(["spectral", "-A", matrix_files["a.mat"], "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        main(["spectral", "-A", matrix_files["a.mat"]])
        text = capsys.readouterr().out
        assert f"lambda = {doc['lambda']}" in text


class TestVerify:
    def test_verify_report(self, matrix_files, capsys):
        code = main(["verify", "-A", matrix_files["a.mat"], "-B", matrix_files["b.mat"],
                     "--box", "-10:10", "--step", "0.5", "--trials", "64", "--seed", "9"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["theta"] == "2"
        assert doc["estimated_min"] == "2"
        assert doc["argmin"] == ["0", "5"]
        assert doc["matches_theta"] is True
        assert doc["family"]["passed"] is True
        assert doc["family"]["trials"] == 64

    @pytest.mark.parametrize("option", [["--seed", "-1"], ["--trials", "-2"]])
    def test_bad_family_options_exit_two(self, matrix_files, capsys, option):
        code = main(["verify", "-A", matrix_files["a.mat"], "-B", matrix_files["b.mat"], *option])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_bad_seed_never_reaches_the_grid(self, matrix_files, capsys, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return grid_min(*args)

        monkeypatch.setattr(ts.cli, "grid_min", counted)
        files = ["-A", matrix_files["a.mat"], "-B", matrix_files["b.mat"]]
        assert main(["verify", *files, "--seed", "-1"]) == 2
        assert main(["verify", *files, "--trials", "-2"]) == 2
        assert calls == []
        assert main(["verify", *files, "--trials", "4"]) == 0
        assert len(calls) == 1
        capsys.readouterr()

    def test_verify_is_byte_stable(self, matrix_files, capsys):
        args = ["verify", "-A", matrix_files["a.mat"], "-B", matrix_files["b.mat"],
                "--trials", "16", "--seed", "3"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first


class TestErrorChannels:
    def test_hypothesis_failure_names_the_hypothesis(self, tmp_path, capsys):
        bad = tmp_path / "bad_b.mat"
        bad.write_text("2 2\n1 -8\n5 -3\n")
        a = tmp_path / "a.mat"
        a.write_text(A_TEXT)
        code = main(["solve", "-A", str(a), "-B", str(bad), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""  # no diagnostics on stdout in json mode
        assert "constraint feasibility" in captured.err

    def test_overflow_prints_no_numpy_warning(self, tmp_path):
        # a fresh process, since numpy warns only once per source line
        big = tmp_path / "big.mat"
        big.write_text("2 2\n1e308 1e308\n1e308 1e308\n")
        b = tmp_path / "b.mat"
        b.write_text(B_TEXT)
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "tropsolve", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)

        # 1e308 is outside the range guard of a 2-by-2 matrix
        for argv in (("star", "-A", str(big)), ("theta", "-A", str(big), "-B", str(b))):
            proc = run(*argv)
            assert proc.returncode == 2
            assert proc.stderr.startswith("error: entry out of range")
            assert proc.stderr.count("\n") == 1

    def test_parse_error_exits_two(self, tmp_path, capsys):
        p = tmp_path / "broken.mat"
        p.write_text("2 2\n0 -3\n-5\n")
        code = main(["star", "-A", str(p)])
        captured = capsys.readouterr()
        assert code == 2
        assert "line 3" in captured.err

    def test_missing_file_exits_two(self, capsys):
        code = main(["star", "-A", "/nonexistent/path.mat"])
        assert code == 2
        assert capsys.readouterr().err != ""

    def test_dimension_mismatch_exits_two(self, tmp_path, capsys):
        a = tmp_path / "a.mat"
        a.write_text(A_TEXT)
        b = tmp_path / "b3.mat"
        b.write_text("1 1\n0\n")
        assert main(["solve", "-A", str(a), "-B", str(b)]) == 2

    def test_usage_errors_exit_two(self, matrix_files, capsys):
        assert main(["solve", "-A", matrix_files["a.mat"]]) == 2  # -B required
        assert main(["nonsense"]) == 2
        capsys.readouterr()

    def test_solver_subcommands_are_max_plus_only(self, matrix_files, capsys):
        code = main(["solve", "-A", matrix_files["a.mat"], "-B", matrix_files["b.mat"],
                     "--semifield", "min-plus"])
        assert code == 2
        assert "max-plus only" in capsys.readouterr().err

    def test_min_plus_algebra_subcommands_work(self, matrix_files, capsys):
        assert main(["spectral", "-A", matrix_files["a.mat"], "--semifield", "min-plus"]) == 0
        assert "lambda = -4" in capsys.readouterr().out

    def test_grid_cap_exits_two(self, tmp_path, capsys):
        # n = 6 with the default box is 21**5 grid points
        a = tmp_path / "a6.mat"
        a.write_text(format_matrix(np.zeros((6, 6))))
        code = main(["verify", "-A", str(a), "-B", str(a)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "cap" in captured.err

    def test_options_belong_to_the_subcommands_that_read_them(self, matrix_files, capsys):
        files = ["-A", matrix_files["a.mat"], "-B", matrix_files["b.mat"]]
        assert main(["solve", *files, "--force"]) == 0
        assert main(["theta", *files, "--force"]) == 2
        assert main(["solve", *files, "--cap", "20"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_trop_color_styles_diagnostics(self, matrix_files, capsys, monkeypatch):
        monkeypatch.setenv("TROP_COLOR", "1")
        main(["inequality", "-A", matrix_files["binf.mat"], "--format", "json"])
        assert "\x1b[31m" in capsys.readouterr().err
        monkeypatch.setenv("TROP_COLOR", "0")
        main(["inequality", "-A", matrix_files["binf.mat"], "--format", "json"])
        assert "\x1b[" not in capsys.readouterr().err
