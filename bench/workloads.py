"""The benchmark's workloads: seeded inputs, one task each, and its oracle.

Each workload writes the files kstab receives into its own directory,
runs one task through a public entry point (``kstab.cli.main`` in-process
or ``kstab.solver.solve``), and checks the outputs against an exact or
independent oracle.  ``check`` returns a list of problems; an empty list
means the task's outputs are correct.

Seed 0 gives the canonical inputs described in ``bench/README.md``.  Other
seeds change the inputs but not the amount of work, so run-to-run spread
measures the machine and the program, not the inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import shutil
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import scipy.sparse.linalg  # noqa: F401  (imported here so set-up covers it)

import kstab.cli
import kstab.futaki
import kstab.geometry
import kstab.polytope
import kstab.solver
import kstab.stability

REFERENCE = Path(__file__).resolve().parent / "reference"

# Sizes: FULL is what the benchmark measures; TINY exercises every path of
# the same workload in about a second (warm-up and the benchmark's tests).
FULL = {"resolution": 8, "mesh": 65, "kmin": 197, "kmax": 200, "ks": 128,
        "f1_tol": 1e-3, "hessian_tol": 1e-2}
TINY = {"resolution": 2, "mesh": 17, "kmin": 5, "kmax": 8, "ks": 8,
        "f1_tol": 5e-2, "hessian_tol": 5e-2}

# The zero-Futaki unstable hexagon of tests/conftest.py as facets
# <nu, x> >= c with their exact weights.
HEXAGON = [((2, 3), -2, Q(7197, 517)), ((1, 4), -1, Q(1)), ((-1, 1), -4, Q(1)),
           ((-2, -1), -8, Q(3635, 517)), ((0, -1), -4, Q(1)), ((2, -1), -10, Q(1))]
# The unit square as facets <nu, x> >= c.
SQUARE = [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]
TRIANGLE = [(0, 0), (2, 0), (1, 3)]
F1_XI01 = Q(-1, 6)
FILTRATION_STATISTIC_K128 = Q(8256, 49409)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """kstab.cli.main in-process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = kstab.cli.main(argv)
    return code, err.getvalue()


def parse_file(path: Path):
    return kstab.polytope.parse_polytope_text(path.read_text())


def facet_lines(facets) -> str:
    rows = ["dim 2", "facets"] + [f"{nu[0]} {nu[1]} {c} {w}" for nu, c, w in facets]
    return "\n".join(rows) + "\n"


class Workload:
    name = ""

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.seed = seed
        self.size = size
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.out = self.dir / "out"
        self.generate(random.Random(f"{self.name}/{seed}"))

    def generate(self, rng: random.Random):
        raise NotImplementedError

    def reset(self):
        """Remove the previous task's outputs (outside the timed region)."""
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError


class CreaseHexagon(Workload):
    name = "crease-hexagon"

    def generate(self, rng):
        # An integer translation keeps every offset count and every L value.
        self.shift = (0, 0) if self.seed == 0 else (rng.randint(-2, 2), rng.randint(-2, 2))
        tx, ty = self.shift
        facets = [(nu, c + nu[0] * tx + nu[1] * ty, w) for nu, c, w in HEXAGON]
        self.poly = self.dir / "hex.poly"
        self.poly.write_text(facet_lines(facets))

    def run(self):
        return run_cli(["destabilize", str(self.poly), "--resolution",
                        str(self.size["resolution"]), "--workers", "1", "--out", str(self.out)])

    def check(self, result):
        code, err = result
        if code != 2:
            return [f"exit {code}, expected 2 (unstable): {err.strip()}"]
        raw = (self.out / "verdict.json").read_bytes()
        verdict = json.loads(raw)
        problems = []
        P, sigma = parse_file(self.poly)
        best = verdict["best_creases"]
        if not best or Q(best[0]["L"]) >= 0:
            problems.append("best crease L is not negative")
        for c in best:
            f = kstab.stability.PLConvexFunction.crease(c["direction"], Q(c["offset"]))
            exact = kstab.stability.L(P, sigma, f)
            if Q(c["L"]) != exact:
                problems.append(f"crease {c['direction']} {c['offset']}: L {c['L']} != {exact}")
            if Q(c["ratio"]) != Q(c["L"]) / Q(c["mass"]):
                problems.append(f"crease {c['direction']} {c['offset']}: ratio != L/mass")
        if self.size is FULL:
            ref_raw = (REFERENCE / "hexagon-R8-verdict.json").read_bytes()
            if self.seed == 0 and raw != ref_raw:
                problems.append("verdict.json differs from the reference bytes")
            expected = translate_verdict(json.loads(ref_raw), self.shift)
            for key, value in expected.items():
                if verdict.get(key) != value:
                    problems.append(f"verdict.json {key!r} differs from the translated reference")
        return problems


def translate_verdict(ref: dict, shift) -> dict:
    """The reference verdict for the hexagon translated by an integer vector.

    A crease max(0, <a, x> - c) on P becomes max(0, <a, x> - c - <a, t>) on
    P + t with the same L, mass and ratio; the ranking is unchanged.
    """
    out = json.loads(json.dumps(ref))

    def dot(a):
        return sum(ai * ti for ai, ti in zip(a, shift))

    for c in out["best_creases"]:
        c["offset"] = str(Q(c["offset"]) + dot(c["direction"]))
    if "witness" in out:
        for piece in out["witness"]["pieces"]:
            piece[1] = str(Q(piece[1]) - dot([Q(a) for a in piece[0]]))
    return out


class SolveBox(Workload):
    name = "solve-box"

    def generate(self, rng):
        # The solver's path is sensitive to rounding: any change of the box
        # or of the start (sign, tilt, translation, transposition) changed
        # the iteration count (29 to 77) and the number of LU factorizations
        # (4 to 5).  Seeds therefore vary only how the same box is written:
        # the facet order and the spelling of each rational.
        weights = {(1, 0): 2, (-1, 0): 2, (0, 1): 3, (0, -1): 3}
        lines = [(nu, c, weights[nu]) for nu, c in SQUARE]
        if self.seed != 0:
            rng.shuffle(lines)

        def spell(v):
            k = 1 if self.seed == 0 else rng.randint(1, 5)
            return str(v) if k == 1 else f"{v * k}/{k}"

        self.poly = self.dir / "box.poly"
        self.poly.write_text("\n".join(["dim 2", "facets"] + [
            f"{nu[0]} {nu[1]} {spell(c)} {spell(w)}" for nu, c, w in lines]) + "\n")
        self.start = self.dir / "start.json"
        self.start.write_text(json.dumps({"amplitude": 0.02, "modes": [1, 1]}) + "\n")

    def run(self):
        P, sigma = parse_file(self.poly)
        start = json.loads(self.start.read_text())
        amp, (p, q) = start["amplitude"], start["modes"]

        def phi0(x, y):
            return amp * np.sin(p * np.pi * x) ** 2 * np.sin(q * np.pi * y) ** 2

        return kstab.solver.solve(P, sigma, m=self.size["mesh"], tol=1e-6, phi0=phi0)

    def check(self, report):
        if report.termination != "converged":
            return [f"termination {report.termination}, expected converged"]
        if not report.residual_sup <= 1e-6:
            return [f"residual_sup {report.residual_sup} > 1e-6"]
        # The canonical potential of a box is the exact solution, so on the
        # core (the middle half of each axis) the converged Hessian equals
        # sum 1/(w ell) per axis up to the discretization error.
        g = report.grid
        H = kstab.geometry.hessian_field(g)
        ref, core = [], []
        for ax in g.axes:
            x = ax.nodes[1:-1]
            ref.append(1 / (ax.w_lo * (x - ax.lo)) + 1 / (ax.w_hi * (ax.hi - x)))
            core.append(np.abs(x - (ax.lo + ax.hi) / 2) <= (ax.hi - ax.lo) / 4)
        r0, r1 = ref[0][:, None], ref[1][None, :]
        err = np.maximum.reduce([np.abs(H[(0, 0)] - r0) / r0, np.abs(H[(1, 1)] - r1) / r1,
                                 np.abs(H[(0, 1)]) / np.sqrt(r0 * r1)])
        rel = float(err[np.ix_(*core)].max())
        if not rel <= self.size["hessian_tol"]:
            return [f"Hessian differs from the reference potential's by {rel:.3g} on the core"]
        return []


class SolveEscape(Workload):
    name = "solve-escape"

    def generate(self, rng):
        # One light facet of the unit square; by symmetry every choice does
        # the same work (24 iterations at m = 65).
        self.light = 1 if self.seed == 0 else rng.randrange(4)
        self.weight = Q(1, 4) if self.seed == 0 else rng.choice([Q(1, 4), Q(1, 5)])
        facets = [(nu, c, self.weight if i == self.light else Q(1))
                  for i, (nu, c) in enumerate(SQUARE)]
        self.poly = self.dir / "dsq.poly"
        self.poly.write_text(facet_lines(facets))

    def run(self):
        return run_cli(["solve", str(self.poly), "--mesh", str(self.size["mesh"]),
                        "--allow-nonzero-futaki", "--max-iter", "600", "--out", str(self.out)])

    def check(self, result):
        code, err = result
        if code != 4:
            return [f"exit {code}, expected 4 (divergence certificate): {err.strip()}"]
        problems = []
        report = json.loads((self.out / "solve.json").read_text())
        if report["termination"] != "divergence-certificate":
            problems.append(f"termination {report['termination']}")
        if not report["min_det_final"] > 0:
            problems.append(f"certificate min_det {report['min_det_final']} is not positive")
        with (self.out / "histories.csv").open() as fh:
            if sum(1 for _ in fh) - 1 != report["iterations"]:
                problems.append("histories.csv rows != iterations")
        with (self.out / "grid.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        m = self.size["mesh"]
        if len(rows) != m * m:
            return problems + [f"grid.csv has {len(rows)} rows, expected {m * m}"]
        # The certificate's direction phi / sup|phi| (phi = u - u0) is not
        # written out; rebuild it from grid.csv.  An escape direction lowers
        # the Mabuchi functional, so its quadrature L must be negative.
        P, sigma = parse_file(self.poly)
        g = kstab.geometry.PotentialGrid.build(P, sigma, m)
        nodes = np.array([[float(v) for v in r[:2]] for r in rows])
        if not np.array_equal(nodes, np.stack([x.ravel() for x in g.node_grids()], axis=1)):
            return problems + ["grid.csv nodes differ from the m-node grid"]
        phi = np.array([float(r[2]) for r in rows]).reshape(g.shape) - g.u0_values()
        direction = phi / np.abs(phi).max()
        lq = kstab.geometry.l_functional_quadrature
        if not lq(g, direction) - lq(g, np.zeros_like(direction)) < 0:
            problems.append("the certificate direction does not lower L")
        nu = SQUARE[self.light][0]
        a = (-nu[0], -nu[1])
        crease = kstab.stability.PLConvexFunction.crease(a, Q(a[0] + a[1], 2))
        L = kstab.stability.L(P, sigma, crease)
        if not L < 0:
            problems.append(f"the escape crease has L = {L}, expected < 0")
        if self.seed == 0 and L != Q(-1, 32):
            problems.append(f"the escape crease has L = {L}, expected -1/32")
        return problems


class LatticeTriangle(Workload):
    name = "lattice-triangle"

    def generate(self, rng):
        # An integer translation keeps d_k, F1 and the filtration statistic
        # (the crease moves with the triangle) and every bounding-box size.
        self.shift = (0, 0) if self.seed == 0 else (rng.randint(-2, 2), rng.randint(-2, 2))
        self.xi = (0, 1) if self.seed == 0 else rng.choice([(1, 0), (0, 1), (1, 1)])
        tx, ty = self.shift
        self.vertices = [(x + tx, y + ty) for x, y in TRIANGLE]
        self.pieces = f"0,0,0;1,0,{-1 - tx}"
        self.poly = self.dir / "tri.poly"
        self.poly.write_text("\n".join(["dim 2", "vertices"] + [
            f"{x} {y}" for x, y in self.vertices]) + "\n")

    def run(self):
        s = self.size
        futaki = run_cli(["futaki", str(self.poly), "--xi", ",".join(map(str, self.xi)),
                          "--kmin", str(s["kmin"]), "--kmax", str(s["kmax"]),
                          "--out", str(self.out / "futaki")])
        filtration = run_cli(["filtration", str(self.poly), "--pieces", self.pieces,
                              "--ks", str(s["ks"]), "--out", str(self.out / "filtration")])
        return futaki, filtration

    def check(self, result):
        (c1, e1), (c2, e2) = result
        if c1 != 0 or c2 != 0:
            return [f"exit codes {c1}, {c2}, expected 0: {e1.strip()} {e2.strip()}"]
        problems = []
        area2, boundary = pick_data(self.vertices)
        wpoly = weight_polynomial(self.vertices, self.xi)
        with (self.out / "futaki" / "weights.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        ks = [int(r["k"]) for r in rows]
        if ks != list(range(self.size["kmin"], self.size["kmax"] + 1)):
            problems.append(f"weights.csv rows cover k = {ks}")
        for r in rows:
            k, d, w = int(r["k"]), int(r["d_k"]), int(r["w_k"])
            if d != (area2 * k * k + boundary * k) // 2 + 1:
                problems.append(f"k={k}: d_k {d} != Pick count")
            if w != sum(c * k ** j for j, c in enumerate(wpoly)):
                problems.append(f"k={k}: w_k {w} != Ehrhart interpolant")
            if Q(r["F_k"]) != Q(w, k * d):
                problems.append(f"k={k}: F_k != w_k / (k d_k)")
        F1 = futaki_f1(self.vertices, wpoly)
        if self.seed == 0 and F1 != F1_XI01:
            problems.append(f"exact F1 {F1} != {F1_XI01}")
        fit = json.loads((self.out / "futaki" / "fit.json").read_text())
        if not abs(fit["F1"] - float(F1)) <= self.size["f1_tol"]:
            problems.append(f"fit F1 {fit['F1']} is not within {self.size['f1_tol']} of {F1}")
        with (self.out / "filtration" / "filtration.csv").open() as fh:
            (row,) = list(csv.DictReader(fh))
        stat = Q(row["statistic"])
        k = self.size["ks"]
        if int(row["k"]) != k or stat != filtration_statistic(self.vertices, self.pieces, k):
            problems.append(f"filtration statistic {stat} != direct count")
        if self.size is FULL and stat != FILTRATION_STATISTIC_K128:
            problems.append(f"filtration statistic {stat} != {FILTRATION_STATISTIC_K128}")
        return problems


def signed_area2(vertices) -> int:
    return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
               in zip(vertices, vertices[1:] + vertices[:1]))


def pick_data(vertices) -> tuple[int, int]:
    """(2 * area, boundary lattice points) of a lattice polygon."""
    boundary = sum(math.gcd(x1 - x0, y1 - y0) for (x0, y0), (x1, y1)
                   in zip(vertices, vertices[1:] + vertices[:1]))
    return abs(signed_area2(vertices)), boundary


def lattice_points(vertices, k: int):
    """The lattice points of k*P, for a lattice polygon P, independent of kstab.

    A point is in k*P when it lies on the inner side of every edge of the
    counter-clockwise polygon k*P.
    """
    kv = [(k * x, k * y) for x, y in vertices]
    if signed_area2(kv) < 0:
        kv.reverse()
    edges = list(zip(kv, kv[1:] + kv[:1]))
    xs = [x for x, _ in kv]
    ys = [y for _, y in kv]
    for mx in range(min(xs), max(xs) + 1):
        for my in range(min(ys), max(ys) + 1):
            if all((x1 - x0) * (my - y0) - (y1 - y0) * (mx - x0) >= 0
                   for (x0, y0), (x1, y1) in edges):
                yield mx, my


def weight_polynomial(vertices, xi) -> list[Q]:
    """Coefficients (ascending) of w_k = sum of <xi, m> over the points m of k*P.

    w_k is a cubic in k with w_0 = 0; it is interpolated from the counts of
    lattice_points at k = 1..4.
    """
    return interpolate([0, 1, 2, 3, 4], [0] + [
        sum(x * xi[0] + y * xi[1] for x, y in lattice_points(vertices, k))
        for k in range(1, 5)])


def futaki_f1(vertices, wpoly) -> Q:
    """F1 of F(k) = w_k / (k d_k) = F0 + F1/k + ..., exactly.

    With Pick's d_k = d2 k^2 + d1 k + 1 (d2 = A, d1 = B/2), F0 = w3 / d2 and
    F1 = (w2 - F0 d1) / d2.
    """
    area2, boundary = pick_data(vertices)
    d2, d1 = Q(area2, 2), Q(boundary, 2)
    return (wpoly[2] - wpoly[3] / d2 * d1) / d2


def interpolate(ks, vals) -> list[Q]:
    """Exact coefficients (ascending) of the polynomial through (ks, vals).

    Lagrange's form, expanded: sum_i vals_i prod_{j != i} (x - k_j)/(k_i - k_j).
    """
    coef = [Q(0)] * len(ks)
    for i, (ki, vi) in enumerate(zip(ks, vals)):
        basis, denom = [Q(1)], Q(1)
        for j, kj in enumerate(ks):
            if j != i:
                basis = [a - kj * b for a, b in zip([Q(0)] + basis, basis + [Q(0)])]
                denom *= ki - kj
        coef = [c + vi * b / denom for c, b in zip(coef, basis)]
    return coef


def filtration_statistic(vertices, pieces: str, k: int) -> Q:
    """sum ceil(k f(m/k)) / (k d_k) over the lattice points m of k*P."""
    aff = [[Q(t) for t in part.split(",")] for part in pieces.split(";")]
    total = d = 0
    for mx, my in lattice_points(vertices, k):
        d += 1
        total += math.ceil(max(a1 * mx + a2 * my + k * b for a1, a2, b in aff))
    return Q(total, k * d)


WORKLOADS = {w.name: w for w in (CreaseHexagon, SolveBox, SolveEscape, LatticeTriangle)}
