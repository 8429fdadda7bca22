"""Tests of the benchmark itself: oracles, tracing and the run.py contract.

    python3 -m pytest bench -q

The oracle tests run each workload at the tiny size (R = 2, m = 17,
k <= 8); the run.py tests run solve-escape at full size for one second.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads as W  # noqa: E402


def make(name, tmp_path, seed=0):
    return W.WORKLOADS[name](seed, W.TINY, tmp_path / f"{name}-{seed}")


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_tiny_task_passes_its_oracle(name, seed, tmp_path):
    wl = make(name, tmp_path, seed)
    assert wl.check(wl.run()) == []


def test_seeds_change_inputs(tmp_path):
    for name in W.WORKLOADS:
        a, b = make(name, tmp_path, 0), make(name, tmp_path, 7)
        assert a.poly.read_text() != b.poly.read_text(), name
        assert make(name, tmp_path / "again", 7).poly.read_text() == b.poly.read_text()


def test_crease_flipped_sign_is_rejected(tmp_path):
    wl = make("crease-hexagon", tmp_path)
    result = wl.run()
    path = wl.out / "verdict.json"
    verdict = json.loads(path.read_text())
    verdict["best_creases"][1]["L"] = str(-W.Q(verdict["best_creases"][1]["L"]))
    path.write_text(json.dumps(verdict))
    assert any("L " in p for p in wl.check(result))


def test_translated_verdict_matches(tmp_path):
    base, moved = make("crease-hexagon", tmp_path, 0), make("crease-hexagon", tmp_path, 7)
    assert moved.shift != (0, 0)
    base.run()
    moved.run()
    expected = W.translate_verdict(json.loads((base.out / "verdict.json").read_text()),
                                   moved.shift)
    assert json.loads((moved.out / "verdict.json").read_text()) == expected


def test_lattice_dropped_row_is_rejected(tmp_path):
    wl = make("lattice-triangle", tmp_path)
    result = wl.run()
    path = wl.out / "futaki" / "weights.csv"
    rows = list(csv.reader(path.open()))
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows[:2] + rows[3:])
    assert any("weights.csv rows" in p for p in wl.check(result))


def test_lattice_negated_weights_are_rejected(tmp_path):
    # A sign error in the weights that is the same at every k keeps the
    # table self-consistent; only the benchmark's own count catches it.
    wl = make("lattice-triangle", tmp_path)
    result = wl.run()
    path = wl.out / "futaki" / "weights.csv"
    rows = list(csv.DictReader(path.open()))
    for r in rows:
        r["w_k"] = str(-int(r["w_k"]))
        r["F_k"] = str(-W.Q(r["F_k"]))
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert any("w_k" in p for p in wl.check(result))


@pytest.mark.parametrize("xi", [(0, 1), (1, 0), (1, 1)])
def test_own_f1_matches_expansion_exact(xi):
    P, _ = W.kstab.polytope.parse_polytope_text(
        "dim 2\nvertices\n" + "".join(f"{x} {y}\n" for x, y in W.TRIANGLE))
    own = W.futaki_f1(W.TRIANGLE, W.weight_polynomial(W.TRIANGLE, xi))
    assert own == W.kstab.futaki.expansion_exact(P, xi)[1]
    if xi == (0, 1):
        assert own == W.F1_XI01


def test_interpolate_is_exact():
    assert W.interpolate([0, 1, 2, 3], [0, 1, 8, 27]) == [0, 0, 0, 1]
    assert W.interpolate([1, 2, 3], [3, 5, 7]) == [1, 2, 0]


def test_escape_changed_termination_is_rejected(tmp_path):
    wl = make("solve-escape", tmp_path)
    result = wl.run()
    path = wl.out / "solve.json"
    report = json.loads(path.read_text())
    report["termination"] = "max-iter"
    path.write_text(json.dumps(report))
    assert any("termination" in p for p in wl.check(result))


def test_box_changed_termination_is_rejected(tmp_path):
    wl = make("solve-box", tmp_path)
    report = wl.run()
    report.termination = "stalled"
    assert wl.check(report) != []


def test_direct_filtration_count_at_k128():
    pieces = "0,0,0;1,0,-1"
    assert W.filtration_statistic(W.TRIANGLE, pieces, 128) == W.FILTRATION_STATISTIC_K128


@pytest.mark.parametrize("name, expect", [
    ("crease-hexagon", {"stability.directions": 16, "polytope.parse_calls": 1}),
    ("solve-box", {"solver.gn_attempts": None, "solver.iterations": None}),
    ("solve-escape", {"solver.factor_calls": 1, "geometry.dump_s": None}),
    ("lattice-triangle", {"futaki.count_calls": 8, "futaki.filtration_points": None}),
])
def test_traced_task_records_layers(name, expect, tmp_path):
    wl = make(name, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed(0):
        result = wl.run()
    assert wl.check(result) == []
    metrics = tracing.layer_metrics(tracer.spans)
    for key, value in expect.items():
        assert metrics[key] > 0 if value is None else metrics[key] == value, key
    # the originals are back in place
    assert not hasattr(W.kstab.cli.main, "__wrapped__")
    assert not hasattr(W.kstab.futaki.count_and_weigh, "__wrapped__")
    assert not hasattr(W.kstab.solver.GridOperators.jacobian, "__wrapped__")


def test_self_time_excludes_children():
    spans = [tracing.Span(5, "cli.main", 0.0, 10.0, -1, 0),
             tracing.Span(6, "futaki.expansion", 1.0, 5.0, 5, 0),
             tracing.Span(7, "futaki.count_and_weigh", 2.0, 4.0, 6, 0,
                          {"points": 10, "box_points": 20})]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == 6.0
    assert m["futaki.fit_s"] == 2.0
    assert m["futaki.count_s"] == 2.0
    assert m["futaki.hit_ratio"] == 0.5


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run_bench(ROOT, "--workload", "solve-escape", "--seed", "3", "--seconds", "1",
                         "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "solve-escape", "--seed", "0", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
