"""Command-line interface: file-based, reproducible runs.

Every subcommand reads one polytope, point or matrix file, prints a human
summary and returns its exit code together with its output files.  `main`
then writes them into --out in one place: manifest.json (the input with its
hash, the parameters, the package version) first, then each output.  A run
that fails before its subcommand returns (exit 1) leaves no output
directory; `solve --dump-every` is the one exception, writing its snapshots
during the solve.  Machine-readable outputs are byte-deterministic for
identical inputs and parameters.

Each command imports its numeric modules (numpy, geometry, solver, futaki,
kempfness) when it runs: analyze, destabilize and a pipeline that stops
before the solve load no numpy.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import hashlib
import json
import logging
import sys
from fractions import Fraction
from pathlib import Path

import kstab
from kstab.polytope import _parse_rational, is_delzant, measures, parse_polytope_text
from kstab.stability import PLConvexFunction, crease_search, futaki_linear

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSTABLE = 2
EXIT_FUTAKI = 3
EXIT_DIVERGENCE = 4


def _load_polytope(path):
    return parse_polytope_text(Path(path).read_text())


def _write_csv(path: Path, columns: dict):
    """Write columns {name: values} as CSV: the names, then one line per row,
    each ending in CRLF and each field its str (a float's str is its repr).

    These are csv.writer's bytes for fields without a comma, quote or line
    break, which holds for every kstab payload: numbers, Fractions and plain
    names; ValueError names a field that would need quoting.
    """
    cols = [[name, *map(str, values)] for name, values in columns.items()]
    lines = len(cols[0])
    text = "\r\n".join(map(",".join, zip(*cols, strict=True))) + "\r\n"
    if (text.count(",") != (len(cols) - 1) * lines or '"' in text
            or not text.count("\n") == text.count("\r") == lines):
        bad = next(f for col in cols for f in col if any(c in f for c in ',"\r\n'))
        raise ValueError(f"{path.name}: the field {bad!r} needs CSV quoting")
    path.write_bytes(text.encode())


def _write_outputs(args, files: dict):
    """Create --out and write manifest.json, then each output: a name ending
    in .csv takes columns {name: values}, any other name a JSON payload."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    source = getattr(args, args.input)
    manifest = {
        "command": args.command,
        "package_version": kstab.__version__,
        "parameters": vars_of(args),
        "inputs": {source: hashlib.sha256(Path(source).read_bytes()).hexdigest()},
    }
    for name, payload in {"manifest.json": manifest, **files}.items():
        if name.endswith(".csv"):
            _write_csv(out / name, payload)
        else:
            (out / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _number_rows(path, number) -> list[tuple[int, list]]:
    """(line number, entries) for each non-blank line of a file of numbers.

    Entries are whitespace separated, converted by `number` (float or
    complex) and must be finite; '#' starts a comment.  A file without
    entries is an error.
    """
    rows = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        row = []
        for tok in line.split("#", 1)[0].split():
            try:
                row.append(number(tok))
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: {tok!r} is not a number") from None
            if not cmath.isfinite(row[-1]):
                raise ValueError(f"{path}: line {line_no}: {tok!r} is not finite")
        if row:
            rows.append((line_no, row))
    if not rows:
        raise ValueError(f"{path}: no numbers")
    return rows


def _float(x: Fraction, what: str) -> float:
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{what} exceeds the float range") from None


def _int_list(spec: str, flag: str) -> list[int]:
    """The comma-separated integers of a flag's value."""
    ints = []
    for tok in spec.split(","):
        try:
            ints.append(int(tok))
        except ValueError:
            raise ValueError(f"{flag} entry {tok!r} is not an integer") from None
    return ints


def _parse_pieces(spec: str, dim: int) -> PLConvexFunction:
    """Pieces 'a1,..,an,b' separated by ';' (rationals)."""
    pieces = []
    for part in spec.split(";"):
        vals = [_parse_rational(tok) for tok in part.split(",")]
        if len(vals) != dim + 1:
            raise ValueError(f"piece {part!r} needs {dim + 1} rational entries")
        pieces.append((tuple(vals[:dim]), vals[dim]))
    return PLConvexFunction(tuple(pieces))


# -- subcommands ---------------------------------------------------------------
# Each returns (exit code, {output file name: payload}) for _write_outputs.

def cmd_analyze(args) -> tuple[int, dict]:
    P, sigma = _load_polytope(args.polytope)
    m = measures(P, sigma)
    fut = futaki_linear(P, sigma)
    delzant = is_delzant(P)
    report = {
        "dim": P.dim,
        "vertices": [list(map(str, v)) for v in P.vertices],
        "facets": [{"normal": list(f.normal), "offset": str(f.offset), "weight": str(w)}
                   for f, w in zip(P.facets, sigma.weights)],
        "vol": str(m.vol),
        "bvol": str(m.bvol),
        "A": str(m.A),
        "centroid": list(map(str, m.centroid)),
        "boundary_centroid": list(map(str, m.boundary_centroid)),
        "delzant": delzant,
        "futaki": list(map(str, fut)),
    }
    print(f"polytope: dim {P.dim}, {len(P.vertices)} vertices, {len(P.facets)} facets")
    print(f"vol = {m.vol}   bvol = {m.bvol}   A = {m.A}")
    print(f"centroid          = {tuple(map(str, m.centroid))}")
    print(f"boundary centroid = {tuple(map(str, m.boundary_centroid))}")
    print(f"Delzant: {delzant}")
    print(f"Futaki vector: {tuple(map(str, fut))}")
    if any(v != 0 for v in fut):
        print("nonzero Futaki invariant: no constant-scalar-curvature solution; "
              "solve will refuse this input")
    return EXIT_OK, {"report.json": report}


def cmd_destabilize(args) -> tuple[int, dict]:
    P, sigma = _load_polytope(args.polytope)
    verdict = crease_search(P, sigma, args.resolution, workers=args.workers)
    payload = {
        "status": verdict.status,
        "futaki": list(map(str, verdict.futaki)),
        "resolution": verdict.resolution,
        "n_directions": verdict.n_directions,
        "n_creases": verdict.n_creases,
        "best_creases": [
            {"direction": list(c.direction), "offset": str(c.offset),
             "L": str(c.L_value), "mass": str(c.mass), "ratio": str(c.ratio)}
            for c in verdict.best_creases
        ],
    }
    if verdict.witness is not None:
        payload["witness"] = {
            "pieces": [[list(map(str, a)), str(b)] for a, b in verdict.witness.pieces],
            "L": str(verdict.witness_L),
        }
    print(f"Futaki vector: {tuple(map(str, verdict.futaki))}")
    print(f"verdict: {verdict.status} (resolution {verdict.resolution}, "
          f"{verdict.n_creases} creases over {verdict.n_directions} directions)")
    for c in verdict.best_creases:
        print(f"  crease a={c.direction} c={c.offset}: L = {c.L_value}, ratio = {c.ratio}")
    code = EXIT_OK
    if verdict.status == "unstable":
        code = EXIT_FUTAKI if any(v != 0 for v in verdict.futaki) else EXIT_UNSTABLE
    return code, {"verdict.json": payload}


def cmd_futaki(args) -> tuple[int, dict]:
    from kstab.futaki import count_and_weigh, expansion
    P, sigma = _load_polytope(args.polytope)
    xi = tuple(_int_list(args.xi, "--xi"))
    fit = expansion(P, xi, args.kmin, args.kmax)    # refuses a short k range before it counts
    coefs = {name: _float(getattr(fit, name), name) for name in ("F0", "F1", "F2")}
    rows = [count_and_weigh(P, xi, k) for k in range(args.kmin, args.kmax + 1)]
    print(f"{'k':>4} {'d_k':>10} {'w_k':>12} {'F_k':>14}")
    for r in rows:
        print(f"{r.k:>4} {r.d_k:>10} {r.w_k:>12} {str(r.F_k):>14}")
    print(f"expansion from k = {args.kmin}..{args.kmax}: "
          f"F0 = {fit.F0}, F1 = {fit.F1}, F2 = {fit.F2}")
    print(f"Futaki invariant (1/k coefficient): {fit.F1}")
    return EXIT_OK, {
        "weights.csv": {name: [getattr(r, name) for r in rows]
                        for name in ("k", "d_k", "w_k", "F_k")},
        "fit.json": {**coefs, "k_range": list(fit.k_range)},
    }


def cmd_filtration(args) -> tuple[int, dict]:
    from kstab.futaki import filtration_futaki
    P, sigma = _load_polytope(args.polytope)
    f = _parse_pieces(args.pieces, P.dim)
    ks = _int_list(args.ks, "--ks")
    if len(set(ks)) != len(ks):
        raise ValueError(f"--ks {args.ks}: the k values must be distinct")
    vals = [(k, filtration_futaki(P, f, k)) for k in ks]
    lines = [f"k = {k:>5}: filtration statistic = {v} ~ "
             f"{_float(v, 'filtration statistic'):.8f}" for k, v in vals]
    if len(vals) >= 2:
        (k1, v1), (k2, v2) = vals[-2], vals[-1]
        f1 = (v1 - v2) / (Fraction(1, k1) - Fraction(1, k2))
        lines.append(f"extrapolated 1/k coefficient: {_float(f1, '1/k coefficient'):.8f}")
    print("\n".join(lines))
    return EXIT_OK, {"filtration.csv": {"k": ks, "statistic": [v for _, v in vals]}}


def cmd_solve(args) -> tuple[int, dict]:
    from kstab import geometry as geo, solver as sol
    if args.dump_every < 0:
        raise ValueError(f"--dump-every must be 0 (no snapshots) or positive, "
                         f"got {args.dump_every}")
    P, sigma = _load_polytope(args.polytope)
    callback = None
    if args.dump_every:
        out = Path(args.out)
        # solve() has checked the polytope and the mesh before its first iteration
        def callback(it, s):
            if it % args.dump_every == 0:
                out.mkdir(parents=True, exist_ok=True)
                _write_csv(out / f"grid_{it:05d}.csv", geo.grid_dump_rows(s.g, s.det, s.div))
    report = sol.solve(P, sigma, m=args.mesh, tol=args.tol, max_iter=args.max_iter,
                       require_futaki_zero=not args.allow_nonzero_futaki,
                       callback=callback)
    print(f"termination: {report.termination}")
    print(f"sup residual: {report.residual_sup:.3e} after {report.iterations} iterations")
    if report.certificate:
        print("divergence certificate:", report.certificate["message"])
        print(f"  min det(u_ab) = {report.certificate['min_det']:.3e} "
              f"near {report.certificate['min_det_location']}")
    files = {
        "solve.json": {
            "termination": report.termination,
            "residual_sup": report.residual_sup,
            "iterations": report.iterations,
            "futaki": list(map(str, report.futaki)),
            "mabuchi_final": report.mabuchi_history[-1] if report.mabuchi_history else None,
            "min_det_final": report.min_det_history[-1] if report.min_det_history else None,
        },
        "histories.csv": {"iteration": range(len(report.mabuchi_history)),
                          "mabuchi": report.mabuchi_history,
                          "residual_sup": report.residual_history,
                          "min_det": report.min_det_history, "sup_u": report.sup_u_history,
                          "sup_phi": report.sup_phi_history},
    }
    if report.termination == "refused-futaki":
        print(f"Futaki vector {tuple(map(str, report.futaki))} is nonzero; "
              "no constant-scalar-curvature solution exists")
        return EXIT_FUTAKI, files
    files["grid.csv"] = geo.grid_dump_rows(report.grid, report.final.det, report.final.div)
    exits = {"converged": EXIT_OK, "divergence-certificate": EXIT_DIVERGENCE}
    return exits.get(report.termination, EXIT_ERROR), files


def cmd_ray(args) -> tuple[int, dict]:
    from kstab import solver as sol
    P, sigma = _load_polytope(args.polytope)
    n = P.dim
    qvals = [_float(_parse_rational(t), "--quadratic entry")
             for t in args.quadratic.split(",")] if args.quadratic else []
    lvals = [_float(_parse_rational(t), "--linear entry")
             for t in args.linear.split(",")] if args.linear else [0.0] * n
    if args.quadratic and len(qvals) != n * (n + 1) // 2:
        raise ValueError("need n(n+1)/2 entries for the quadratic part")
    if len(lvals) != n:
        raise ValueError("need n entries for the linear part")

    if n == 1:
        qxx = qvals[0] if qvals else 0.0
        lin = lvals[0]
        def f(x):
            return qxx * x * x + lin * x
    else:
        qxx, qxy, qyy = qvals if qvals else (0.0, 0.0, 0.0)
        l1, l2 = lvals
        def f(x, y):
            return qxx * x * x + 2 * qxy * x * y + qyy * y * y + l1 * x + l2 * y
    rs = sol.ray_slope(P, sigma, f, s_max=args.smax, m=args.mesh)
    print(f"asymptotic slope: {rs.slope:.10g}")
    print(f"quadrature L of the ray direction: {rs.l_value:.10g}")
    rel = abs(rs.slope - rs.l_value) / max(abs(rs.l_value), 1e-30)
    print(f"relative gap: {rel:.2e}")
    s, F = zip(*rs.samples)
    return EXIT_OK, {"ray.csv": {"s": s, "mabuchi": F}}


def cmd_flow_sphere(args) -> tuple[int, dict]:
    import numpy as np
    from kstab import kempfness as kn
    rows = []
    for line_no, row in _number_rows(args.points, float):
        if len(row) not in (3, 4):
            raise ValueError(f"{args.points}: line {line_no}: expected x y z [multiplicity]")
        if not any(row[:3]):
            raise ValueError(f"{args.points}: line {line_no}: the zero vector is not "
                             "a point of the sphere")
        if len(row) == 4 and row[3] <= 0:
            raise ValueError(f"{args.points}: line {line_no}: the multiplicity must be positive")
        rows.append(row)
    pts = np.array([r[:3] for r in rows])
    mult = np.array([r[3] if len(r) > 3 else 1.0 for r in rows])
    # scaling by a power of two is exact, and keeps the norm off over- and underflow
    pts = np.ldexp(pts, -np.frexp(np.abs(pts).max(axis=1))[1][:, None])
    pts = pts / np.linalg.norm(pts, axis=1)[:, None]
    res = kn.sphere_flow(kn.SphereConfig(pts, mult), step=args.step,
                         max_steps=args.max_steps)
    print(f"verdict: {res.verdict}, |mu| = {res.mu_norms[-1]:.3e} after {res.steps} steps")
    if res.antipodal is not None:
        axis, plus, minus = res.antipodal
        print(f"antipodal structure: multiplicities ({plus:g}, {minus:g}) along "
              f"({axis[0]:.4f}, {axis[1]:.4f}, {axis[2]:.4f})")
    return EXIT_OK, {
        "trajectory.csv": {"step": range(len(res.mu_norms)), "mu_norm": map(float, res.mu_norms)},
        "flow.json": {
            "verdict": res.verdict,
            "mu_norm_final": res.mu_norms[-1],
            "steps": res.steps,
            "points": res.config.points.tolist(),
            "multiplicities": res.config.multiplicities.tolist(),
        },
    }


def cmd_flow_matrix(args) -> tuple[int, dict]:
    import numpy as np
    from kstab import kempfness as kn
    rows = _number_rows(args.matrix, complex)
    for line_no, row in rows:
        if len(row) != len(rows):
            raise ValueError(f"{args.matrix}: line {line_no}: expected {len(rows)} entries "
                             f"(the matrix has {len(rows)} rows), found {len(row)}")
    res = kn.matrix_flow(np.array([row for _, row in rows]), step=args.step,
                         max_steps=args.max_steps)
    print(f"verdict: {res.verdict}, ||[A,A*]|| = {res.commutator_norms[-1]:.3e} "
          f"after {res.steps} steps")
    print(f"Frobenius norm of the limit: {np.linalg.norm(res.matrix):.6g}")
    return EXIT_OK, {
        "trajectory.csv": {"step": range(len(res.commutator_norms)),
                           "commutator_norm": map(float, res.commutator_norms)},
        "flow.json": {
            "verdict": res.verdict,
            "commutator_norm_final": res.commutator_norms[-1],
            "steps": res.steps,
            "matrix_real": res.matrix.real.tolist(),
            "matrix_imag": res.matrix.imag.tolist(),
            "eigenvalues_real": sorted(np.linalg.eigvals(res.matrix).real.tolist()),
        },
    }


def cmd_pipeline(args) -> tuple[int, dict]:
    log, code = _pipeline(args)
    return code, {"pipeline.json": {**log, "exit": code}}


def _pipeline(args) -> tuple[dict, int]:
    """The pipeline.json record (without "exit") and the exit code."""
    P, sigma = _load_polytope(args.polytope)
    verdict = crease_search(P, sigma, args.resolution, workers=args.workers)
    log = {"stability": verdict.status,
           "futaki": [str(v) for v in verdict.futaki]}
    print(f"stability verdict: {verdict.status}")
    if any(v != 0 for v in verdict.futaki):
        print(f"Futaki vector {tuple(map(str, verdict.futaki))} is nonzero (exit 3)")
        return log, EXIT_FUTAKI
    if verdict.status == "unstable":
        c = verdict.best_creases[0]
        log["witness"] = {"direction": list(c.direction), "offset": str(c.offset),
                          "L": str(c.L_value)}
        print(f"destabilizing crease a={c.direction}, c={c.offset} with L = {c.L_value} (exit 2)")
        return log, EXIT_UNSTABLE
    if not P.is_box():          # the solver meshes products of intervals only
        print("solver: general polygons are out of its scope (exit 1)")
        return {**log, "solver": "out-of-scope"}, EXIT_ERROR
    from kstab import geometry as geo, solver as sol
    try:
        report = sol.solve(P, sigma, m=args.mesh, tol=args.tol, max_iter=args.max_iter)
    except geo.UnsupportedPolytopeError as e:    # a box whose extent or weights it refuses
        print(f"solver: {e} (exit 1)")
        return {**log, "solver": "out-of-scope"}, EXIT_ERROR
    log["solver"] = report.termination
    if report.termination == "converged":
        print(f"solved: sup residual {report.residual_sup:.3e} (exit 0)")
        return log, EXIT_OK
    if report.termination == "divergence-certificate":
        # search said stable, solver disagreed: log the anomaly loudly
        log["anomaly"] = ("stability search found no destabilizer at this "
                          "resolution but the solver emitted a divergence "
                          "certificate; increase the resolution")
        print("divergence certificate despite stable-at-resolution verdict "
              "(logged anomaly, exit 4)")
        return log, EXIT_DIVERGENCE
    print(f"solver did not converge: {report.termination} (exit 1)")
    return log, EXIT_ERROR


def vars_of(args) -> dict:
    skip = {"func", "input", "log_level"}
    return {k: v for k, v in vars(args).items() if k not in skip}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """kstab's argument parser, built once per process.

    The parser keeps each subcommand's cmd_* function as a default, so a
    cmd_* replaced after the first call is not seen; nothing in the tests or
    the benchmark replaces one (they patch what a subcommand calls).
    """
    ap = argparse.ArgumentParser(
        prog="kstab",
        description="Toric K-stability, Futaki invariants, the Abreu equation, "
                    "and moment-map flows. File formats: docs/formats.md.")
    ap.add_argument("--log-level", choices=("WARNING", "INFO", "DEBUG"), default="WARNING",
                    help="send kstab's log records at this level and above to stderr")
    sub = ap.add_subparsers(dest="command", required=True)
    scan = argparse.ArgumentParser(add_help=False)      # flags of the crease scan
    scan.add_argument("--resolution", type=int, default=8)
    scan.add_argument("--workers", type=int, default=None,
                      help="parallel worker processes (default: serial)")
    mesh = argparse.ArgumentParser(add_help=False)      # flags of the Abreu solve
    mesh.add_argument("--mesh", type=int, default=None)
    mesh.add_argument("--tol", type=float, default=1e-5)
    mesh.add_argument("--max-iter", type=int, default=400)

    def add(name, fn, input="polytope", **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=fn, input=input)   # input: the argument naming the input file
        if input == "polytope":
            p.add_argument("polytope")
        p.add_argument("--out", default=f"kstab-{name}-out", help="output directory")
        return p

    add("analyze", cmd_analyze, help="measures, Delzant check, Futaki vector")
    add("destabilize", cmd_destabilize, help="crease search for destabilizers", parents=[scan])

    p = add("futaki", cmd_futaki, help="lattice-point weight table and exact Futaki expansion")
    p.add_argument("--xi", default="1,0")
    p.add_argument("--kmin", type=int, default=4)
    p.add_argument("--kmax", type=int, default=40)

    p = add("filtration", cmd_filtration, help="filtration weight statistic of a PL function")
    p.add_argument("--pieces", required=True,
                   help="affine pieces 'a1,..,an,b' separated by ';'")
    p.add_argument("--ks", default="32,64,128,256", help="comma-separated k values")

    p = add("solve", cmd_solve, help="solve the constant scalar curvature equation",
            parents=[mesh])
    p.add_argument("--dump-every", type=int, default=0,
                   help="write a grid snapshot CSV every N iterations")
    p.add_argument("--allow-nonzero-futaki", action="store_true",
                   help="skip the Futaki refusal (divergence experiments)")

    p = add("ray", cmd_ray, help="Mabuchi slope along a convex ray")
    p.add_argument("--quadratic", default=None,
                   help="rationals qxx[,qxy,qyy] of the quadratic part")
    p.add_argument("--linear", default=None, help="rationals of the linear part")
    p.add_argument("--smax", type=float, default=1e3)
    p.add_argument("--mesh", type=int, default=None)

    p = add("flow-sphere", cmd_flow_sphere, "points", help="center-of-mass flow on the sphere")
    p.add_argument("--points", required=True, help="file: x y z [multiplicity] per line")
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--max-steps", type=int, default=200000)

    p = add("flow-matrix", cmd_flow_matrix, "matrix", help="commutator-norm flow on a matrix orbit")
    p.add_argument("--matrix", required=True, help="file: complex entries per row")
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--max-steps", type=int, default=100000)

    add("pipeline", cmd_pipeline, help="destabilize, then solve if stable", parents=[scan, mesh])

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    logger = logging.getLogger("kstab")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(args.log_level)
    try:
        code, files = args.func(args)
        _write_outputs(args, files)
        return code
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved_level)


if __name__ == "__main__":
    sys.exit(main())
