import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction as Q
from pathlib import Path

import pytest

from kstab import solver as sol
from kstab.cli import _parse_pieces, _write_csv, build_parser, main, vars_of
from kstab.polytope import Polytope, parse_polytope_text

from conftest import count_calls, format_polytope_text, oracle_csv


SQUARE = "dim 2\nvertices\n0 0\n1 0\n1 1\n0 1\n"
WSEG = "dim 1\nfacets\n1 0 1\n-1 -1 2\n"
SEG = "dim 1\nvertices\n0\n1\n"
ESCAPE = "dim 1\nfacets\n1 0 1\n-1 -1 10/9\n"
# four unit vectors that balance in 24 steps at the default step
POINTS = "1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n"
MATRIX = "1 1\n0 2\n"
# the weighted unit box: x-facets weight 2, y-facets weight 3
BOX = "dim 2\nfacets\n1 0 0 2\n-1 0 -1 2\n0 1 0 3\n0 -1 -1 3\n"
TRI = "dim 2\nvertices\n0 0\n1 0\n0 1\n"
HEXAGON = ("dim 2\nfacets\n2 3 -2 7197/517\n1 4 -1 1\n-1 1 -4 1\n-2 -1 -8 3635/517\n"
           "0 -1 -4 1\n2 -1 -10 1\n")   # the benchmark's zero-Futaki unstable hexagon
# the unit square with one facet of weight 1/4: nonzero Futaki, so its solve escapes
LIGHT_SQUARE = "dim 2\nfacets\n1 0 0 1\n-1 0 -1 1/4\n0 1 0 1\n0 -1 -1 1\n"
INPUTS = {"sq.poly": SQUARE, "wseg.poly": WSEG, "seg.poly": SEG, "esc.poly": ESCAPE,
          "box.poly": BOX, "tri.poly": TRI, "hex.poly": HEXAGON, "light.poly": LIGHT_SQUARE,
          "pts.txt": POINTS, "mat.txt": MATRIX, "big.txt": "1e200 0\n0 0\n"}
HEXAGON_R8 = Path(__file__).parents[1] / "bench" / "reference" / "hexagon-R8-verdict.json"


@pytest.fixture
def in_inputs(tmp_path, monkeypatch):
    """Run in tmp_path, next to one file of each input kind."""
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def square_file(tmp_path):
    p = tmp_path / "square.poly"
    p.write_text(SQUARE)
    return p


@pytest.fixture
def wseg_file(tmp_path):
    p = tmp_path / "wseg.poly"
    p.write_text(WSEG)
    return p


class TestAnalyze:
    def test_square_report(self, square_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["analyze", str(square_file), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "A = 4" in text
        assert "Delzant: True" in text
        report = json.loads((out / "report.json").read_text())
        assert report["futaki"] == ["0", "0"]
        assert report["A"] == "4"
        manifest = json.loads((out / "manifest.json").read_text())
        assert str(square_file) in manifest["inputs"]
        assert len(next(iter(manifest["inputs"].values()))) == 64

    def test_weighted_segment_advises_refusal(self, wseg_file, tmp_path, capsys):
        assert main(["analyze", str(wseg_file), "--out", str(tmp_path / "o")]) == 0
        text = capsys.readouterr().out
        assert "1/2" in text
        assert "refuse" in text

    def test_trapezoid(self, tmp_path, capsys):
        p = tmp_path / "trap.poly"
        p.write_text("dim 2\nvertices\n0 0\n2 0\n1 1\n0 1\n")
        assert main(["analyze", str(p), "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["delzant"] is True
        assert report["futaki"] == ["1/9", "-2/9"]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.poly"
        p.write_text("dim 2\nvertices\n0 0\n1 zz\n")
        assert main(["analyze", str(p), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "line 4" in err


# the DEBUG line of a crease scan, and its counts on the benchmark hexagon
# with one worker: the heap's visit order.  At R = 32 one wrong direction
# floor moves them; at R = 48 parts are halved deepest, and each offset's
# value is scaled by the most halvings
SCAN_LINE = "DEBUG kstab.stability: crease search: "
ONE_WORKER_SCAN = {
    8: "171 of 176 directions pruned, 19 parts split, 18 creases evaluated exactly",
    16: "628 of 640 directions pruned, 41 parts split, 12 creases evaluated exactly",
    32: "2547 of 2592 directions pruned, 150 parts split, 15 creases evaluated exactly",
    48: "5582 of 5696 directions pruned, 358 parts split, 12 creases evaluated exactly"}


class TestDestabilize:
    def test_square_stable(self, square_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["destabilize", str(square_file), "--resolution", "4",
                     "--out", str(out)])
        assert code == 0
        v = json.loads((out / "verdict.json").read_text())
        assert v["status"] == "stable-at-resolution"
        assert len(v["best_creases"]) == 10

    def test_weighted_segment_exit3(self, wseg_file, tmp_path):
        code = main(["destabilize", str(wseg_file), "--resolution", "4",
                     "--out", str(tmp_path / "o")])
        assert code == 3

    # SHA-256 of the benchmark hexagon's verdict.json, as the float-screened
    # scan wrote it with one worker and with more (three deal the antipodal
    # pairs oddly); at R = 8 it is that of bench/reference/hexagon-R8-verdict.json
    @pytest.mark.parametrize("resolution, workers, digest", [
        (4, 1, "8928209393ec6afdf07e871086528da3b58337f7dffa6f5ca480e6620623d2f1"),
        (4, 2, "8928209393ec6afdf07e871086528da3b58337f7dffa6f5ca480e6620623d2f1"),
        (8, 1, "453448af65c7bd404d4ab72a5670d3a8afc925fd428fb049d571214fc474f276"),
        (8, 2, "453448af65c7bd404d4ab72a5670d3a8afc925fd428fb049d571214fc474f276"),
        (16, 1, "675a3b6966ba54e721f929dcc8937656f2447d400a4b620d436ec66b8b061f44"),
        (16, 2, "675a3b6966ba54e721f929dcc8937656f2447d400a4b620d436ec66b8b061f44"),
        (16, 3, "675a3b6966ba54e721f929dcc8937656f2447d400a4b620d436ec66b8b061f44"),
        (32, 1, "0df045f5863842fbe40331a90a7d9e4154a201f7bcec3ee90b77f2b7e716cfa8"),
        (32, 2, "0df045f5863842fbe40331a90a7d9e4154a201f7bcec3ee90b77f2b7e716cfa8"),
        (48, 1, "fce51d5a4613098d4b3186bbfd33bdc13edb24b5c5ee03c9aea0bb1eeae6ea10"),
        (48, 2, "fce51d5a4613098d4b3186bbfd33bdc13edb24b5c5ee03c9aea0bb1eeae6ea10")])
    def test_hexagon_verdict_bytes_pinned(self, in_inputs, capsys, resolution, workers, digest):
        assert main(["--log-level", "DEBUG", "destabilize", "hex.poly", "--resolution",
                     str(resolution), "--workers", str(workers), "--out", "o"]) == 2
        assert hashlib.sha256(Path("o/verdict.json").read_bytes()).hexdigest() == digest
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith(SCAN_LINE) and "directions pruned" in line for line in err)
        if workers == 1 and resolution in ONE_WORKER_SCAN:
            assert SCAN_LINE + ONE_WORKER_SCAN[resolution] in err

    def test_machine_output_deterministic(self, square_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["destabilize", str(square_file), "--resolution", "3",
                  "--out", str(out)])
            outs.append((out / "verdict.json").read_bytes())
        assert outs[0] == outs[1]


class TestLogLevel:
    def test_debug_reports_screening_on_stderr_only(self, square_file, tmp_path, capsys):
        runs = []
        for extra in ([], ["--log-level", "DEBUG"]):
            out = tmp_path / f"o{len(runs)}"
            code = main(extra + ["destabilize", str(square_file), "--resolution", "4",
                                 "--out", str(out)])
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err, (out / "verdict.json").read_bytes(),
                         (out / "manifest.json").read_text().replace(str(out), "OUT")))
        (code0, out0, err0, *files0), (code1, out1, err1, *files1) = runs
        assert (code0, out0, files0) == (code1, out1, files1)
        assert err0 == ""
        assert SCAN_LINE in err1
        assert "directions pruned" in err1 and "creases evaluated exactly" in err1

    def test_default_hides_info(self, tmp_path, capsys):
        # the level function max(-1, -x - 1) is below 0 on the segment: an INFO record
        p = tmp_path / "seg.poly"
        p.write_text(SEG)
        for level, shown in (("WARNING", False), ("INFO", True)):
            assert main(["--log-level", level, "filtration", str(p), "--pieces", "0,-1;-1,-1",
                         "--ks", "4", "--out", str(tmp_path / level)]) == 0
            assert ("INFO kstab.futaki:" in capsys.readouterr().err) == shown

    def test_bad_level_rejected(self, square_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--log-level", "LOUD", "analyze", str(square_file), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()


class TestFutakiCommand:
    def test_square_table(self, square_file, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["futaki", str(square_file), "--xi", "1,0", "--kmin", "3",
                     "--kmax", "9", "--out", str(out)]) == 0
        rows = (out / "weights.csv").read_text().strip().splitlines()
        assert rows[0] == "k,d_k,w_k,F_k"
        assert rows[1].startswith("3,16,24,1/2")
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "expansion from k = 3..9: F0 = 1/2, F1 = 0, F2 = 0",
            "Futaki invariant (1/k coefficient): 0"]
        fit = json.loads((out / "fit.json").read_text())
        assert fit == {"F0": 0.5, "F1": 0.0, "F2": 0.0, "k_range": [3, 9]}

    def test_benchmark_triangle_prints_the_exact_expansion(self, tmp_path, capsys):
        p = tmp_path / "tri.poly"
        p.write_text("dim 2\nvertices\n0 0\n2 0\n1 3\n")
        out = tmp_path / "o"
        assert main(["futaki", str(p), "--xi", "0,1", "--kmin", "197", "--kmax", "200",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "expansion from k = 197..200: F0 = 1, F1 = -1/6, F2 = 5/18",
            "Futaki invariant (1/k coefficient): -1/6"]
        fit = json.loads((out / "fit.json").read_text())
        assert fit == {"F0": 1.0, "F1": float(Q(-1, 6)), "F2": float(Q(5, 18)),
                       "k_range": [197, 200]}

    def test_expansion_beyond_the_floats_is_one_error(self, in_inputs, capsys):
        # F0 = 10^400/3 is exact, but fit.json's float of it ended in an
        # OverflowError traceback
        assert main(["futaki", "tri.poly", "--xi", "1" + "0" * 400 + ",0", "--kmin", "3",
                     "--kmax", "6", "--out", "o"]) == 1
        assert capsys.readouterr() == ("", "error: F0 exceeds the float range\n")
        assert not Path("o").exists()

    @pytest.mark.parametrize("xi", ["1" + "0" * 30 + ",-1", "-3," + "1" + "0" * 40])
    def test_huge_xi_is_exact(self, in_inputs, xi):
        # w_k is formed in Python ints; an int64 xi overflowed (a traceback)
        assert main(["futaki", "tri.poly", f"--xi={xi}", "--kmin", "3", "--kmax", "6",
                     "--out", "o"]) == 0
        a, b = (int(t) for t in xi.split(","))
        rows = Path("o/weights.csv").read_text().splitlines()[1:]
        for k, row in zip(range(3, 7), rows):
            # k times the unit triangle: d_k = C(k+2, 2); each coordinate sums to C(k+2, 3)
            d, s = (k + 1) * (k + 2) // 2, k * (k + 1) * (k + 2) // 6
            assert row.split(",")[:3] == [str(k), str(d), str((a + b) * s)]

    def test_k_beyond_int64_is_counted(self, in_inputs, capsys):
        # the int64 row arrays refused k = 2^61; by Pick's formula k times the
        # unit triangle has d_k = k^2/2 + 3k/2 + 1 = C(k+2, 2) points, and
        # their x coordinates sum to C(k+2, 3)
        k0 = 2 ** 61
        assert main(["futaki", "tri.poly", "--kmin", str(k0), "--kmax", str(k0 + 3),
                     "--out", "o"]) == 0
        rows = Path("o/weights.csv").read_text().splitlines()[1:]
        assert rows == [f"{k},{(k * k + 3 * k) // 2 + 1},{math.comb(k + 2, 3)},1/3"
                        for k in range(k0, k0 + 4)]
        assert capsys.readouterr().out.splitlines()[-1] == "Futaki invariant (1/k coefficient): 0"

    def test_short_range_refused_before_counting(self, in_inputs, capsys, monkeypatch):
        # interpolating d_k and w_k needs k_max - k_min >= 3; the refusal
        # comes before any row is counted
        import kstab.futaki
        calls, count = [], kstab.futaki.count_and_weigh
        monkeypatch.setattr(kstab.futaki, "count_and_weigh",
                            lambda *args: calls.append(args) or count(*args))
        assert main(["futaki", "tri.poly", "--xi", "1,0", "--kmin", "4", "--kmax", "5",
                     "--out", "o"]) == 1
        assert calls == []
        assert capsys.readouterr().err == \
            "error: need k_max - k_min >= 3 to interpolate d_k and w_k\n"
        assert not Path("o").exists()


class TestFiltrationCommand:
    def test_abs_sequence(self, tmp_path):
        p = tmp_path / "seg.poly"
        p.write_text("dim 1\nvertices\n-1\n1\n")
        out = tmp_path / "o"
        assert main(["filtration", str(p), "--pieces", "1,0;-1,0",
                     "--ks", "16,32", "--out", str(out)]) == 0
        rows = (out / "filtration.csv").read_text().strip().splitlines()
        assert rows[1] == "16,17/33"
        assert rows[2] == "32,33/65"

    def test_repeated_k_rejected(self, tmp_path, capsys):
        # a repeated k made the 1/k extrapolation divide 0 by 0 (a traceback)
        p = tmp_path / "tri.poly"
        p.write_text("dim 2\nvertices\n0 0\n1 0\n0 1\n")
        out = tmp_path / "o"
        assert main(["filtration", str(p), "--pieces", "1,0,0", "--ks", "2,2",
                     "--out", str(out)]) == 1
        assert_one_error_line(capsys, out)


def assert_one_error_line(capsys, out):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()


class TestIntegerArguments:
    """A bad --xi or --ks entry is named with its flag; int() named neither
    ("invalid literal for int() with base 10: '1.5'")."""

    @pytest.mark.parametrize("argv, message", [
        ("futaki tri.poly --xi 1.5,0", "--xi entry '1.5' is not an integer"),
        ("filtration tri.poly --pieces 1,0,0 --ks 4,,8", "--ks entry '' is not an integer"),
        ("filtration tri.poly --pieces 1,0,0 --ks 4,x", "--ks entry 'x' is not an integer")])
    def test_entry_named(self, in_inputs, capsys, argv, message):
        assert main(argv.split() + ["--out", "o"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not Path("o").exists()


class TestRationalArguments:
    """Rational CLI entries go through the polytope parser's bounded reader;
    a bad one ends in one error line, exit 1 and no --out directory."""

    @pytest.mark.parametrize("pieces", ["0,0,0;1,0,1/0", "0,0,0;1,0,1e4000"])
    def test_filtration_pieces(self, tmp_path, capsys, pieces):
        p = tmp_path / "tri.poly"
        p.write_text("dim 2\nvertices\n0 0\n1 0\n0 1\n")
        out = tmp_path / "o"
        assert main(["filtration", str(p), "--pieces", pieces, "--ks", "4,8",
                     "--out", str(out)]) == 1
        assert_one_error_line(capsys, out)

    @pytest.mark.parametrize("option, value", [
        ("--linear", "1/0"), ("--linear", "1e400"), ("--quadratic", "-1e400")])
    def test_ray_entries(self, tmp_path, capsys, option, value):
        p = tmp_path / "seg.poly"
        p.write_text(SEG)
        out = tmp_path / "o"
        assert main(["ray", str(p), f"{option}={value}", "--out", str(out)]) == 1
        assert_one_error_line(capsys, out)


class TestSolveCommand:
    def test_segment_converges(self, tmp_path):
        p = tmp_path / "seg.poly"
        p.write_text(SEG)
        out = tmp_path / "o"
        code = main(["solve", str(p), "--mesh", "64", "--tol", "1e-5",
                     "--out", str(out)])
        assert code == 0
        data = json.loads((out / "solve.json").read_text())
        assert data["termination"] == "converged"
        grid = (out / "grid.csv").read_text().splitlines()
        assert grid[0] == "x1,u,det_hess,S"
        assert len(grid) == 65

    def test_box_converges(self, in_inputs, capsys):
        # the CLI starts at phi = 0, the canonical potential, which solves a box
        assert main(["--log-level", "DEBUG", "solve", "box.poly", "--mesh", "33", "--tol", "1e-6",
                     "--out", "o"]) == 0
        assert "termination: converged" in capsys.readouterr().out.splitlines()

    def test_refusal_exit3(self, wseg_file, tmp_path):
        code = main(["solve", str(wseg_file), "--mesh", "32",
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_dump_every_snapshots(self, tmp_path):
        p = tmp_path / "seg.poly"
        p.write_text(SEG)
        out = tmp_path / "o"
        code = main(["solve", str(p), "--mesh", "32", "--dump-every", "1",
                     "--out", str(out)])
        assert code == 0
        snaps = sorted(out.glob("grid_*.csv"))
        assert snaps and snaps[0].name == "grid_00001.csv"
        iterations = json.loads((out / "solve.json").read_text())["iterations"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["manifest.json", "solve.json", "histories.csv", "grid.csv"]
            + [f"grid_{i:05d}.csv" for i in range(1, iterations + 1)])
        assert snaps[-1].read_bytes() == (out / "grid.csv").read_bytes()

    def test_rejected_mesh_leaves_no_output(self, tmp_path, capsys):
        p = tmp_path / "seg.poly"
        p.write_text(SEG)
        out = tmp_path / "o"
        assert main(["solve", str(p), "--mesh", "4", "--out", str(out)]) == 1
        assert "8 nodes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture(scope="class")
    def light_escape(self, tmp_path_factory):
        """Exit code and stdout of one m = 25 light-square escape, shared by the class."""
        where = tmp_path_factory.mktemp("light")
        (where / "light.poly").write_text(LIGHT_SQUARE)
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
            mp.chdir(where)
            code = main(["solve", "light.poly", "--mesh", "25", "--allow-nonzero-futaki",
                         "--max-iter", "600", "--out", "o"])
        return code, out.getvalue()

    def test_divergence_exit4(self, light_escape):
        assert light_escape[0] == 4

    def test_certificate_location_prints_plain_floats(self, light_escape):
        line = next(ln for ln in light_escape[1].splitlines() if "near (" in ln)
        assert "np.float64" not in line

    def test_dumps_evaluate_no_field(self, in_inputs, monkeypatch):
        # grid.csv and the snapshots are written from the evaluated fields,
        # so every Hessian of the run belongs to an evaluation
        from kstab import geometry as geo
        hessians = count_calls(monkeypatch, geo, ["hessian_field"])
        evaluations = count_calls(monkeypatch, sol, ["evaluate"])
        assert main(["solve", "light.poly", "--mesh", "25", "--allow-nonzero-futaki",
                     "--dump-every", "4", "--out", "o"]) == 4
        assert len(list(Path("o").glob("grid_*.csv"))) == 6
        assert hessians["hessian_field"] == evaluations["evaluate"] >= 24

    @pytest.mark.parametrize("case", ["light-escape-25", "solve-box-33"])
    def test_mesh_constants_computed_once_per_mesh(self, in_inputs, monkeypatch, case):
        # what depends on the axes only is computed once per mesh, however
        # many potentials are evaluated on it
        import numpy as np
        from kstab import geometry as geo
        calls = count_calls(monkeypatch, geo, [
            "Mesh", "node_weights", "log_singular_field", "integral_u0_exact",
            "integral_log_terms_exact", "boundary_integral_u0_exact", "outer_extrapolation"])
        per_axis = count_calls(monkeypatch, geo.Axis1D, ["u0", "u0_d2"])
        evaluations = count_calls(monkeypatch, sol, ["evaluate"])
        if case == "light-escape-25":
            assert main(["solve", "light.poly", "--mesh", "25", "--allow-nonzero-futaki",
                         "--dump-every", "4", "--out", "o"]) == 4
        else:   # the benchmark's solve-box input
            rep = sol.solve(*parse_polytope_text(BOX), m=33, tol=1e-6, phi0=lambda x, y: 0.02 * (
                np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2))
            assert rep.converged and rep.iterations > 1
        assert evaluations["evaluate"] > 2
        assert calls == {"Mesh": 1, "node_weights": 1, "log_singular_field": 1,
                         "integral_u0_exact": 1, "integral_log_terms_exact": 1,
                         "boundary_integral_u0_exact": 1, "outer_extrapolation": 3 * 2}
        assert per_axis == {"u0": 2, "u0_d2": 2}

    @pytest.mark.parametrize("argv, every, last, code", [
        ("light.poly --mesh 25 --allow-nonzero-futaki", 4, 24, 4),
        ("box.poly --mesh 33", 1, 1, 0),
        ("light.poly --mesh 17 --allow-nonzero-futaki --max-iter 2", 2, 2, 1)],
        ids=["light-escape-25", "weighted-box-33", "light-max-iter-17"])
    def test_dumps_match_a_fresh_evaluation(self, in_inputs, monkeypatch, argv, every, last, code):
        # each grid_NNNNN.csv, and grid.csv, holds the rows the per-node
        # oracle builds from a fresh evaluation of that iterate's phi; a run
        # stopped at max-iter writes the last iterate it recorded
        from kstab import geometry as geo
        from test_geometry import oracle_grid_dump_rows
        phis, solve = {}, sol.solve

        def recording(*args, callback, **kwargs):
            def record(it, s):
                phis[f"grid_{it:05d}.csv"] = s.g.phi.copy()
                callback(it, s)
            report = solve(*args, callback=record, **kwargs)
            phis["grid.csv"] = report.grid.phi.copy()
            return report

        monkeypatch.setattr(sol, "solve", recording)
        argv = argv.split()
        assert main(["solve", *argv, "--dump-every", str(every), "--out", "o"]) == code
        names = sorted(p.name for p in Path("o").glob("grid*.csv"))
        assert names == ["grid.csv"] + [f"grid_{it:05d}.csv" for it in range(every, last + 1, every)]
        grid = geo.PotentialGrid.build(*parse_polytope_text(Path(argv[0]).read_text()),
                                       int(argv[2]))
        for name in names:
            rows = oracle_grid_dump_rows(grid.with_phi(phis[name]))
            want = oracle_csv([("x1", "x2", "u", "det_hess", "S"), *rows])
            assert Path("o", name).read_bytes() == want, name
        assert Path("o", f"grid_{last:05d}.csv").read_bytes() == Path("o", "grid.csv").read_bytes()

    # nonzero Futaki: every step is a flow step, so each run ends in a
    # divergence certificate (exit 4) without a Newton step, and a second
    # run writes the same bytes
    @pytest.mark.parametrize("argv, iterations", [
        ("esc.poly --mesh 96 --max-iter 800", 39), ("light.poly --mesh 65", 24),
        ("light.poly --mesh 33", 24)], ids=["segment-96", "square-65", "square-33"])
    def test_escape_ends_in_a_certificate(self, in_inputs, capsys, argv, iterations):
        files = []
        for out in ("a", "b"):
            assert main(["--log-level", "DEBUG", "solve", *argv.split(), "--allow-nonzero-futaki",
                         "--out", out]) == 4
            captured = capsys.readouterr()
            assert "termination: divergence-certificate" in captured.out.splitlines()
            assert f"after {iterations} iterations" in captured.out
            assert "newton step" not in captured.err
            files.append([Path(out, f).read_bytes() for f in ("solve.json", "histories.csv",
                                                              "grid.csv")])
        assert files[0] == files[1]


# boxes whose extent leaves the mesh's float range: at the default mesh the
# solve ended in an OverflowError traceback or in RuntimeWarnings and
# "Singular matrix", and ray advised lowering --smax
HUGE_SEG = "dim 1\nfacets\n1 0\n-1 -1e300\n"
TINY_SEG = "dim 1\nfacets\n1 0\n-1 -1e-300\n"
HUGE_BOX = "dim 2\nfacets\n1 0 0\n-1 0 -1e200\n0 1 0\n0 -1 -1\n"


class TestExtentRange:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, text", [
        ("solve", HUGE_SEG), ("solve", TINY_SEG), ("solve", HUGE_BOX), ("ray", HUGE_SEG),
        ("ray", TINY_SEG), ("ray", HUGE_BOX)],
        ids=["solve-1e300", "solve-1e-300", "solve-box", "ray-1e300", "ray-1e-300", "ray-box"])
    def test_refused_naming_the_axis(self, tmp_path, capsys, command, text):
        p = tmp_path / "p.poly"
        p.write_text(text)
        out = tmp_path / "o"
        assert main([command, str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: axis 1: the extent "), err
        assert err[-1].endswith(" (in floats) is outside the solver's range [1e-50, 1e+50]")
        assert len(err) == 1
        assert not out.exists()

    # the tiny segment stalls at the rounding floor of an absolute --tol
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extent, code", [("1e-50", 1), ("1e50", 0)])
    def test_ends_of_the_range_are_accepted(self, tmp_path, extent, code):
        p = tmp_path / "p.poly"
        p.write_text(f"dim 1\nfacets\n1 0\n-1 -{extent}\n")
        assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == code
        assert (tmp_path / "o" / "grid.csv").exists()

    # the affine gauge's Gram matrix, built from x itself, was singular in
    # floats this far from the origin: "error: Singular matrix" at m = 256
    @pytest.mark.filterwarnings("error")
    def test_segment_far_from_the_origin_converges(self, tmp_path, capsys):
        p = tmp_path / "p.poly"
        p.write_text("dim 1\nfacets\n1 10000000000\n-1 -10000000001\n")
        assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "termination: converged"

    def test_an_end_beyond_the_floats_is_refused(self, tmp_path, capsys):
        p = tmp_path / "p.poly"
        p.write_text("dim 1\nfacets\n1 0\n-1 -1e400\n")
        assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: axis 1: an end of the box exceeds the float range\n")

    def test_crease_overflow_names_the_lower_end(self, tmp_path, capsys):
        # every direction of this box has its lower bound near -1e200 or
        # its upper bound near +1e200; the message named the upper one always
        p = tmp_path / "p.poly"
        p.write_text(HUGE_BOX)
        assert main(["destabilize", str(p), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: crease offsets near -"), err
        assert err[0].endswith(" exceed the scan's range (numerators below 2^62)"), err


class TestWeightRange:
    # a weight of 1e400 ended solve in an OverflowError traceback, and one of
    # 1e-400 (0.0 in floats) in RuntimeWarnings and "error: math domain error"
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, text, axis", [
        ("solve", "dim 1\nfacets\n1 0 1e400\n-1 -1 1e400\n", 1),
        ("solve", "dim 1\nfacets\n1 0 1e-400\n-1 -1 1e-400\n", 1),
        ("solve", "dim 2\nfacets\n1 0 0 2\n-1 0 -1 2\n0 1 0 3\n0 -1 -1 1e-400\n", 2),
        ("ray", "dim 1\nfacets\n1 0 1e400\n-1 -1 1e400\n", 1)],
        ids=["solve-1e400", "solve-1e-400", "solve-box-1e-400", "ray-1e400"])
    def test_refused_naming_the_axis(self, tmp_path, capsys, command, text, axis):
        p = tmp_path / "p.poly"
        p.write_text(text)
        out = tmp_path / "o"
        assert main([command, str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: axis {axis}: a facet weight is outside the normal float range "
            "[2.22507e-308, 1.79769e+308]\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weight", ["1e-300", "1e-50"])
    def test_small_weights_still_converge(self, tmp_path, capsys, weight):
        p = tmp_path / "p.poly"
        p.write_text(f"dim 1\nfacets\n1 0 {weight}\n-1 -1 {weight}\n")
        assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == 0
        assert "termination: converged" in capsys.readouterr().out

    # normal weights whose A = bvol/vol leaves the floats ended solve in an
    # OverflowError traceback
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["solve", "ray"])
    def test_overflowing_A_is_refused(self, tmp_path, capsys, command):
        p = tmp_path / "p.poly"
        p.write_text("dim 1\nfacets\n1 0 1.7e308\n-1 -1 1.7e308\n")
        out = tmp_path / "o"
        assert main([command, str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: A = bvol/vol exceeds the float range (max 1.79769e+308)\n")
        assert not out.exists()

    # weights of 1e150 overflow the products of the inverse Hessian in the
    # Jacobian, which printed numpy RuntimeWarnings before the run stalled
    @pytest.mark.filterwarnings("error")
    def test_overflowing_jacobian_stalls_quietly(self, tmp_path, capsys):
        p = tmp_path / "p.poly"
        p.write_text("dim 1\nfacets\n1 0 1e150\n-1 -1 1e150\n")
        assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert "termination: stalled" in captured.out
        assert captured.err == ""


class TestRayCommand:
    def test_linear_ray(self, wseg_file, tmp_path, capsys):
        code = main(["ray", str(wseg_file), "--linear", "1", "--smax", "100",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        text = capsys.readouterr().out
        assert "slope: 0.5" in text

    def test_ray_leaving_convex_cone_is_an_error(self, tmp_path, capsys):
        p = tmp_path / "seg.poly"
        p.write_text(SEG)
        code = main(["ray", str(p), "--quadratic", "1", "--smax", "1e300",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: convexity violated near (")
        assert "np.float64" not in err[0]


class TestFlows:
    def test_flow_sphere(self, tmp_path, capsys):
        f = tmp_path / "pts.txt"
        f.write_text("0 0 1 2\n0.6 0.8 0 2\n")
        out = tmp_path / "o"
        assert main(["flow-sphere", "--points", str(f), "--out", str(out)]) == 0
        data = json.loads((out / "flow.json").read_text())
        assert data["verdict"] == "balanced"

    def test_flow_sphere_zero_point_rejected(self, tmp_path, capsys):
        f = tmp_path / "pts.txt"
        f.write_text("0 0 1\n# comment\n0 0 0 2\n")
        out = tmp_path / "o"
        assert main(["flow-sphere", "--points", str(f), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err and "zero vector" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, line", [("1 0 0 0\n-1 0 0 0\n", 1),
                                            ("1 0 0\n-2 0 0 -2\n", 2)], ids=["zero", "negative"])
    def test_flow_sphere_nonpositive_multiplicity_rejected(self, tmp_path, capsys, text, line):
        # these used to report "balanced" with multiplicities (0, 0), or (1, -2)
        f = tmp_path / "pts.txt"
        f.write_text(text)
        out = tmp_path / "o"
        assert main(["flow-sphere", "--points", str(f), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {f}: line {line}: the multiplicity must be positive"]
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, axis", [("1e308 1e308 0\n-1 -1 0\n", [0.5 ** 0.5] * 2 + [0]),
                                            ("1e-320 0 0\n-1 0 0\n", [1, 0, 0])],
                             ids=["huge", "subnormal"])
    def test_flow_sphere_extreme_coordinates(self, tmp_path, text, axis):
        # the norm of such a row overflowed or underflowed: a spurious error
        f = tmp_path / "pts.txt"
        f.write_text(text)
        out = tmp_path / "o"
        assert main(["flow-sphere", "--points", str(f), "--out", str(out)]) == 0
        data = json.loads((out / "flow.json").read_text())
        assert data["verdict"] == "balanced"
        assert data["points"] == [axis, [-v for v in axis]]

    # the first trial took --step uncapped: the sphere flow stopped at a
    # "fixed point" (1e150) or normalized overflowed points (1e160), and the
    # matrix flow ended unresolved after four RuntimeWarnings (1e200)
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, text, verdict", [
        ("flow-sphere --points", "1 0 0\n0 1 0\n0 0 1\n", "balanced"),
        ("flow-matrix --matrix", "1 1\n0 1\n", "normal")], ids=["sphere", "matrix"])
    @pytest.mark.parametrize("step", [None, "1e150", "1e160", "1e200"])
    def test_huge_step_gives_the_default_verdict(self, tmp_path, capsys, argv, text, verdict,
                                                 step):
        f = tmp_path / "in.txt"
        f.write_text(text)
        extra = [] if step is None else ["--step", step]
        assert main(argv.split() + [str(f), "--out", str(tmp_path / "o")] + extra) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"verdict: {verdict}, ") and captured.err == ""

    def test_flow_sphere_nonfinite_point_rejected(self, tmp_path, capsys):
        f = tmp_path / "pts.txt"
        f.write_text("0 0 1\nnan 0 1\n")
        assert main(["flow-sphere", "--points", str(f), "--out", str(tmp_path / "o")]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1+nanj"])
    def test_flow_matrix_nonfinite_entry_rejected(self, tmp_path, capsys, entry):
        # such an entry used to run the flow, print a verdict and then fail in eigvals
        f = tmp_path / "mat.txt"
        f.write_text(f"1 1\n0 {entry}\n")
        out = tmp_path / "o"
        assert main(["flow-matrix", "--matrix", str(f), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {f}: line 2: {entry!r} is not finite"]
        assert not out.exists()

    def test_flow_sphere_bad_number_reports_line(self, tmp_path, capsys):
        f = tmp_path / "pts.txt"
        f.write_text("0 0 1\n# comment\n1 zz 0\n")
        out = tmp_path / "o"
        assert main(["flow-sphere", "--points", str(f), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {f}: line 3: 'zz' is not a number"]
        assert not out.exists()

    def test_flow_matrix_ragged_reports_line(self, tmp_path, capsys):
        f = tmp_path / "mat.txt"
        f.write_text("1 2\n3\n")
        out = tmp_path / "o"
        assert main(["flow-matrix", "--matrix", str(f), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {f}: line 2: expected 2 entries")
        assert not out.exists()

    @pytest.mark.parametrize("command,option", [("flow-sphere", "--points"),
                                                 ("flow-matrix", "--matrix")])
    def test_flow_empty_file_rejected(self, tmp_path, capsys, command, option):
        f = tmp_path / "in.txt"
        f.write_text("# nothing\n\n")
        out = tmp_path / "o"
        assert main([command, option, str(f), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {f}: no numbers"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", ["flow-sphere --points pts.txt",
                                      "flow-matrix --matrix mat.txt"])
    def test_trajectory_plain_numbers(self, in_inputs, capsys, argv):
        assert main(argv.split() + ["--out", "o"]) == 0
        header, *rows = Path("o/trajectory.csv").read_text().splitlines()
        assert rows
        for i, row in enumerate(rows):
            step, norm = row.split(",")
            assert step == str(i) and norm == repr(float(norm))

    def test_flow_matrix(self, tmp_path):
        f = tmp_path / "mat.txt"
        f.write_text("1 1\n0 2\n")
        out = tmp_path / "o"
        assert main(["flow-matrix", "--matrix", str(f), "--out", str(out)]) == 0
        data = json.loads((out / "flow.json").read_text())
        assert data["verdict"] == "normal"
        assert abs(data["eigenvalues_real"][0] - 1) < 1e-6


# every subcommand's --out: manifest.json plus the files docs/formats.md names
LAYOUT = [
    ("analyze sq.poly", ["report.json"]),
    ("destabilize sq.poly --resolution 2", ["verdict.json"]),
    ("futaki sq.poly --kmin 3 --kmax 9", ["weights.csv", "fit.json"]),
    ("filtration sq.poly --pieces 0,0,0;1,0,-1 --ks 4,8", ["filtration.csv"]),
    ("solve seg.poly --mesh 32", ["solve.json", "histories.csv", "grid.csv"]),
    ("solve wseg.poly --mesh 32", ["solve.json", "histories.csv"]),   # refused: no grid
    ("ray wseg.poly --linear 1", ["ray.csv"]),
    ("flow-sphere --points pts.txt", ["trajectory.csv", "flow.json"]),
    ("flow-matrix --matrix mat.txt", ["trajectory.csv", "flow.json"]),
    ("pipeline sq.poly --resolution 2 --mesh 25", ["pipeline.json"]),
]


class TestOutputDirectory:
    @pytest.mark.parametrize("argv, files", LAYOUT, ids=[a.split(" --")[0] for a, _ in LAYOUT])
    def test_layout(self, in_inputs, argv, files):
        assert main(argv.split() + ["--out", "o"]) in (0, 3)
        assert sorted(p.name for p in Path("o").iterdir()) == sorted(["manifest.json"] + files)
        manifest = json.loads(Path("o/manifest.json").read_text())
        assert list(manifest["inputs"]) == [t for t in argv.split() if t in INPUTS]
        assert manifest["command"] == manifest["parameters"]["command"] == argv.split()[0]
        assert not {"func", "input", "log_level", "seed"} & set(manifest["parameters"])

    def test_shared_flags(self, capsys):
        # the crease scan's and the solve's flags, with their defaults and help
        scan = {"resolution": 8, "workers": None}
        mesh = {"mesh": None, "tol": 1e-5, "max_iter": 400}
        for name, flags in [("destabilize", scan), ("solve", {**mesh, "dump_every": 0,
                                                               "allow_nonzero_futaki": False}),
                            ("pipeline", {**scan, **mesh})]:
            params = vars_of(build_parser().parse_args([name, "P"]))
            assert params == {"command": name, "polytope": "P", "out": f"kstab-{name}-out",
                              **flags}
            with pytest.raises(SystemExit):
                main([name, "--help"])
            usage = capsys.readouterr().out
            assert ("parallel worker processes" in usage) == ("workers" in flags)

    def test_no_seed_option(self, in_inputs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "0", "analyze", "sq.poly", "--out", "o"])
        assert exc.value.code == 2
        assert not Path("o").exists()


class TestNumericParameters:
    """A ray scale or flow step that is zero, negative or not finite, a
    flow with fewer than one step, a ray whose F overflows, a matrix whose
    [A, A*] overflows or a run that cannot allocate its arrays ends in one
    error line, exit 1 and no --out directory."""

    @pytest.mark.parametrize("argv", [
        "ray esc.poly --smax 0", "ray esc.poly --smax nan", "ray esc.poly --smax -5",
        "flow-sphere --points pts.txt --step 0", "flow-sphere --points pts.txt --step -0.05",
        "flow-sphere --points pts.txt --step nan", "flow-matrix --matrix mat.txt --step 0",
        "flow-sphere --points pts.txt --max-steps 0", "flow-sphere --points pts.txt --max-steps -3",
        "flow-matrix --matrix mat.txt --max-steps 0",
        "ray box.poly --quadratic 1,0,1 --smax 1e300", "flow-matrix --matrix big.txt"])
    @pytest.mark.filterwarnings("error")
    def test_rejected(self, in_inputs, capsys, argv):
        assert main(argv.split() + ["--out", "o"]) == 1
        assert_one_error_line(capsys, Path("o"))

    # the square is solved exactly at phi = 0, where a tolerance of nan or -1
    # stalled (exit 1, outputs written), --max-iter -5 reported "after -5
    # iterations", --dump-every -1 dumped every iteration and --workers 0 or
    # -1 scanned serially
    @pytest.mark.parametrize("argv", [
        "solve sq.poly --tol nan", "solve sq.poly --tol -1", "solve sq.poly --tol 0",
        "solve sq.poly --tol inf", "solve sq.poly --max-iter 0",
        "solve box.poly --tol nan", "solve box.poly --max-iter 0",
        "solve sq.poly --max-iter -5", "solve sq.poly --dump-every -1",
        "pipeline sq.poly --resolution 2 --tol nan",
        "pipeline sq.poly --resolution 2 --max-iter 0",
        "destabilize sq.poly --resolution 2 --workers 0",
        "destabilize sq.poly --resolution 2 --workers -1",
        "pipeline sq.poly --resolution 2 --workers 0"])
    def test_rejected_solver_and_scan_options(self, in_inputs, capsys, argv):
        assert main(argv.split() + ["--out", "o"]) == 1
        assert_one_error_line(capsys, Path("o"))

    def test_out_of_memory_is_an_error(self, in_inputs, capsys, monkeypatch):
        # numpy raises MemoryError for an array it cannot allocate, as at
        # --mesh 3000000000, which ended in a traceback; nothing is allocated here
        def unallocatable(*args, **kwargs):
            raise MemoryError("Unable to allocate 67.1 EiB for an array with shape "
                              "(3000000000, 3000000000) and data type float64")

        monkeypatch.setattr(sol, "solve", unallocatable)
        assert main(["solve", "box.poly", "--mesh", "3000000000", "--out", "o"]) == 1
        assert_one_error_line(capsys, Path("o"))

    def test_sphere_out_of_steps_is_unresolved(self, in_inputs, capsys):
        assert main(["flow-sphere", "--points", "pts.txt", "--max-steps", "3", "--out", "o"]) == 0
        assert capsys.readouterr().out.startswith("verdict: unresolved,")
        flow = json.loads(Path("o/flow.json").read_text())
        assert (flow["verdict"], flow["steps"]) == ("unresolved", 3)


class TestPipeline:
    def test_square_exit0(self, square_file, tmp_path):
        code = main(["pipeline", str(square_file), "--resolution", "3",
                     "--mesh", "25", "--out", str(tmp_path / "o")])
        assert code == 0

    def test_rejected_mesh_leaves_no_output(self, square_file, tmp_path):
        out = tmp_path / "o"
        code = main(["pipeline", str(square_file), "--resolution", "2",
                     "--mesh", "4", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_weighted_segment_exit3(self, wseg_file, tmp_path):
        code = main(["pipeline", str(wseg_file), "--resolution", "4",
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_zero_futaki_crease_unstable_exit2(self, tmp_path, unstable_hexagon):
        P, sigma = unstable_hexagon
        p = tmp_path / "hex.poly"
        p.write_text(format_polytope_text(P, sigma))
        out = tmp_path / "o"
        code = main(["pipeline", str(p), "--resolution", "4", "--out", str(out)])
        assert code == 2
        log = json.loads((out / "pipeline.json").read_text())
        assert log["futaki"] == ["0", "0"]
        assert Q(log["witness"]["L"]) < 0

    def test_polygon_out_of_the_solvers_scope_is_recorded(self, tmp_path, capsys):
        # the regular lattice hexagon: zero Futaki vector, stable at resolution,
        # but no box, so the solver stage is skipped and pipeline.json says why
        P = Polytope.from_vertices([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
        p = tmp_path / "hex.poly"
        p.write_text(format_polytope_text(P))
        out = tmp_path / "o"
        assert main(["pipeline", str(p), "--resolution", "3", "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "stability verdict: stable-at-resolution\n"
            "solver: general polygons are out of its scope (exit 1)\n", "")
        assert json.loads((out / "pipeline.json").read_text()) == {
            "stability": "stable-at-resolution", "futaki": ["0", "0"],
            "solver": "out-of-scope", "exit": 1}

    @pytest.mark.filterwarnings("error")
    def test_box_the_solver_refuses_is_recorded(self, tmp_path, capsys):
        # the unit segment of extent 1e-300 passes the scan, but its extent is
        # outside the solver's range: the verdict was lost with the refusal
        p = tmp_path / "p.poly"
        p.write_text(TINY_SEG)
        out = tmp_path / "o"
        assert main(["pipeline", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "stability verdict: stable-at-resolution\n"
            "solver: axis 1: the extent 1e-300 (in floats) is outside the solver's range "
            "[1e-50, 1e+50] (exit 1)\n", "")
        assert json.loads((out / "pipeline.json").read_text()) == {
            "stability": "stable-at-resolution", "futaki": ["0"],
            "solver": "out-of-scope", "exit": 1}


class TestCsvWriter:
    def test_bytes_equal_csv_writer(self, tmp_path):
        rows = [["k", "value", "ratio"], [1, float("nan"), Q(-7, 3)], [-2, -0.0, Q(5)],
                [3, 1e-300, -2.5e+20], [10 ** 30, float("inf"), -float("inf")],
                ["x1", 0.1 + 0.2, -1234567.125]]
        _write_csv(tmp_path / "fast.csv", dict(zip(rows[0], zip(*rows[1:]))))
        with (tmp_path / "csv.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()
        assert (tmp_path / "fast.csv").read_bytes() == oracle_csv(rows)

    def test_field_that_needs_quoting_is_refused(self, tmp_path):
        for bad in ("a,b", 'say "x"', "two\nlines", "cr\r"):
            with pytest.raises(ValueError, match=f"bad.csv: the field {re.escape(repr(bad))} "):
                _write_csv(tmp_path / "bad.csv", {"k": [1], "name": [bad]})
        with pytest.raises(ValueError, match="the field 'a,b' "):
            _write_csv(tmp_path / "bad.csv", {"a,b": [1], "name": [2]})
        assert not (tmp_path / "bad.csv").exists()

    def test_refused_field_is_an_error_line(self, in_inputs, capsys, monkeypatch):
        import kstab.futaki

        class Comma(Q):
            def __str__(self):
                return "1,2"

        monkeypatch.setattr(kstab.futaki, "filtration_futaki", lambda P, f, k: Comma(1, 2))
        assert main(["filtration", "tri.poly", "--pieces", "0,0,0", "--ks", "4",
                     "--out", "o"]) == 1
        assert capsys.readouterr().err == \
            "error: filtration.csv: the field '1,2' needs CSV quoting\n"

    # every CLI CSV against the row formatter, on rows built as the commands
    # built them before they wrote columns
    @staticmethod
    def results(monkeypatch, module, name) -> list:
        """Patch module.name to keep each call's result in the returned list."""
        kept, fn = [], getattr(module, name)

        def keeping(*args, **kwargs):
            kept.append(fn(*args, **kwargs))
            return kept[-1]

        monkeypatch.setattr(module, name, keeping)
        return kept

    def test_futaki_and_filtration(self, in_inputs):
        from kstab.futaki import count_and_weigh, filtration_futaki
        P, _ = parse_polytope_text(TRI)
        assert main(["futaki", "tri.poly", "--xi", "0,1", "--kmin", "4", "--kmax", "9",
                     "--out", "f"]) == 0
        rows = [count_and_weigh(P, (0, 1), k) for k in range(4, 10)]
        assert Path("f", "weights.csv").read_bytes() == oracle_csv(
            [["k", "d_k", "w_k", "F_k"]] + [[r.k, r.d_k, r.w_k, r.F_k] for r in rows])
        pieces = "0,0,0;1,0,-1/2"
        assert main(["filtration", "tri.poly", "--pieces", pieces, "--ks", "8,3,32",
                     "--out", "g"]) == 0
        f = _parse_pieces(pieces, 2)
        assert Path("g", "filtration.csv").read_bytes() == oracle_csv(
            [["k", "statistic"]] + [(k, filtration_futaki(P, f, k)) for k in (8, 3, 32)])

    @pytest.mark.parametrize("argv, dumps", [("seg.poly --mesh 40", 0),
                                             ("box.poly --mesh 33 --dump-every 1", 1),
                                             ("light.poly --mesh 17 --allow-nonzero-futaki", 0)],
                             ids=["segment", "box", "escape"])
    def test_solve(self, in_inputs, monkeypatch, argv, dumps):
        from test_geometry import oracle_grid_dump_rows
        reports = self.results(monkeypatch, sol, "solve")
        assert main(["solve", *argv.split(), "--out", "o"]) in (0, 4)
        (r,) = reports
        histories = zip(r.mabuchi_history, r.residual_history, r.min_det_history,
                        r.sup_u_history, r.sup_phi_history)
        assert Path("o", "histories.csv").read_bytes() == oracle_csv(
            [["iteration", "mabuchi", "residual_sup", "min_det", "sup_u", "sup_phi"]]
            + [[i, *row] for i, row in enumerate(histories)])
        grid = oracle_csv([["x1", "x2"][:r.grid.n] + ["u", "det_hess", "S"],
                           *oracle_grid_dump_rows(r.grid)])
        assert b",nan," in grid and Path("o", "grid.csv").read_bytes() == grid
        assert [p.read_bytes() for p in Path("o").glob("grid_*.csv")] == [grid] * dumps

    @pytest.mark.parametrize("argv, name, fn, series", [
        ("flow-sphere --points pts.txt", "mu_norm", "sphere_flow", "mu_norms"),
        ("flow-matrix --matrix mat.txt", "commutator_norm", "matrix_flow", "commutator_norms")])
    def test_trajectory(self, in_inputs, monkeypatch, argv, name, fn, series):
        from kstab import kempfness as kn
        results = self.results(monkeypatch, kn, fn)
        assert main([*argv.split(), "--out", "o"]) == 0
        values = getattr(results[0], series)
        assert Path("o", "trajectory.csv").read_bytes() == oracle_csv(
            [["step", name]] + [[i, float(v)] for i, v in enumerate(values)])

    def test_ray(self, in_inputs, monkeypatch):
        results = self.results(monkeypatch, sol, "ray_slope")
        assert main(["ray", "box.poly", "--quadratic", "1,0,1", "--mesh", "17", "--out", "o"]) == 0
        assert Path("o", "ray.csv").read_bytes() == oracle_csv(
            [["s", "mabuchi"]] + [[repr(s), repr(F)] for s, F in results[0].samples])


def run_fresh(script, cwd):
    """Run a Python script in a fresh interpreter importing kstab from this tree."""
    src = os.path.dirname(os.path.dirname(sol.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], cwd=cwd,
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


class TestScipyFree:
    """scipy is imported only by the code that calls it: Newton's banded LU,
    the flow's preconditioner and the matrix flow's expm."""

    def test_imports_load_no_scipy(self, tmp_path):
        out = run_fresh("""
            import sys
            import kstab
            print(sorted(m for m in sys.modules if m.startswith("scipy")))
            import kstab.cli
            print(sorted(m for m in sys.modules if m.startswith("scipy")))
            """, tmp_path)
        assert out == "[]\n[]\n"

    def test_exact_commands_run_without_scipy(self, in_inputs):
        out = run_fresh("""
            import sys
            sys.modules["scipy"] = None     # every import of scipy now fails
            from kstab.cli import main
            print([main(argv) for argv in (
                ["analyze", "sq.poly", "--out", "a"],
                ["destabilize", "hex.poly", "--resolution", "4", "--out", "d"],
                ["destabilize", "hex.poly", "--resolution", "8", "--out", "d8"],
                ["futaki", "sq.poly", "--xi", "1,0", "--kmin", "3", "--kmax", "9", "--out", "f"],
                ["filtration", "tri.poly", "--pieces", "1,0,0", "--ks", "4,8", "--out", "l"],
                ["flow-sphere", "--points", "pts.txt", "--out", "s"])])
            """, in_inputs)
        assert out.splitlines()[-1] == "[0, 2, 2, 0, 0, 0]"
        assert (in_inputs / "d8" / "verdict.json").read_bytes() == HEXAGON_R8.read_bytes()


class TestNumpyFree:
    """analyze, destabilize, futaki, filtration and a pipeline that stops
    before the solve load no numpy: kstab resolves each export on first
    access, and each command imports its numeric modules when it runs."""

    def test_imports_load_no_numpy(self, tmp_path):
        out = run_fresh("""
            import sys
            import kstab, kstab.cli, kstab.stability, kstab.polytope, kstab._intpoly, kstab.futaki
            print(sorted(m for m in sys.modules if m.startswith("numpy")))
            """, tmp_path)
        assert out == "[]\n"

    def test_exact_commands_run_without_numpy(self, in_inputs):
        out = run_fresh("""
            import sys
            sys.modules["numpy"] = None     # every import of numpy now fails
            from kstab.cli import main
            try:
                main(["--help"])
            except SystemExit as e:
                print("help exit", e.code)
            print([main(argv) for argv in (
                ["analyze", "hex.poly", "--out", "a"],
                ["destabilize", "hex.poly", "--resolution", "8", "--out", "d"],
                ["pipeline", "hex.poly", "--out", "p"],
                ["futaki", "tri.poly", "--kmin", "3", "--kmax", "9", "--out", "f"],
                ["filtration", "tri.poly", "--pieces", "1,0,0;0,1,-1/2", "--ks", "4,8",
                 "--out", "l"])])
            """, in_inputs)
        assert "help exit 0" in out.splitlines()
        assert out.splitlines()[-1] == "[0, 2, 2, 0, 0]"
        assert (in_inputs / "d" / "verdict.json").read_bytes() == HEXAGON_R8.read_bytes()

    def test_exports(self):
        import kstab

        star = {}
        exec("from kstab import *", star)
        assert set(kstab.__all__) <= set(star) and set(kstab.__all__) <= set(dir(kstab))
        for name in kstab.__all__:
            obj = getattr(kstab, name)
            if name != "__version__":
                assert obj.__module__.startswith("kstab.")
                assert getattr(sys.modules[obj.__module__], name) is obj
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            kstab.nope
