import json
from fractions import Fraction as Q
from pathlib import Path

import pytest

from kstab import solver as sol
from kstab.cli import main

from conftest import format_polytope_text


SQUARE = "dim 2\nvertices\n0 0\n1 0\n1 1\n0 1\n"
WSEG = "dim 1\nfacets\n1 0 1\n-1 -1 2\n"
SEG = "dim 1\nvertices\n0\n1\n"
ESCAPE = "dim 1\nfacets\n1 0 1\n-1 -1 10/9\n"
# four unit vectors that balance in 24 steps at the default step
POINTS = "1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n"
MATRIX = "1 1\n0 2\n"
# the weighted unit box: x-facets weight 2, y-facets weight 3
BOX = "dim 2\nfacets\n1 0 0 2\n-1 0 -1 2\n0 1 0 3\n0 -1 -1 3\n"
INPUTS = {"sq.poly": SQUARE, "wseg.poly": WSEG, "seg.poly": SEG, "esc.poly": ESCAPE,
          "box.poly": BOX, "pts.txt": POINTS, "mat.txt": MATRIX, "big.txt": "1e200 0\n0 0\n"}


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
        assert "DEBUG kstab.stability: crease search:" in err1
        assert "creases screened in float64" in err1

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
        fit = json.loads((out / "fit.json").read_text())
        assert abs(fit["F1"]) < 1e-9


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

    def test_divergence_exit4(self, tmp_path):
        p = tmp_path / "bad.poly"
        p.write_text("dim 2\nfacets\n1 0 0 1\n-1 0 -1 1/4\n0 1 0 1\n0 -1 -1 1\n")
        code = main(["solve", str(p), "--mesh", "25", "--allow-nonzero-futaki",
                     "--max-iter", "600", "--out", str(tmp_path / "o")])
        assert code == 4

    def test_certificate_location_prints_plain_floats(self, tmp_path, capsys):
        p = tmp_path / "bad.poly"
        p.write_text("dim 2\nfacets\n1 0 0 1\n-1 0 -1 1/4\n0 1 0 1\n0 -1 -1 1\n")
        code = main(["solve", str(p), "--mesh", "25", "--allow-nonzero-futaki",
                     "--max-iter", "600", "--out", str(tmp_path / "o")])
        assert code == 4
        line = next(ln for ln in capsys.readouterr().out.splitlines() if "near (" in ln)
        assert "np.float64" not in line


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
