"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines, or execute
this file directly for a standalone report.
"""

import random
import time
from fractions import Fraction as Q

import numpy as np

from kstab import geometry as geo
from kstab import kempfness as kn
from kstab import solver as sol
from kstab.futaki import (
    count_and_weigh,
    expansion,
    filtration_futaki,
    interpolate_polynomial,
)
from kstab.polytope import BoundaryMeasure, Polytope, measures
from kstab.stability import L, PLConvexFunction, crease_search, futaki_linear

from conftest import (
    box_quadratic_integrals,
    ibp_pairing,
    numeric_scalar_curvature,
    random_integral_polygon,
    random_polygon,
    random_unimodular,
    random_weights,
    uniform_core_mask,
    unimodular_image,
)


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


SEG = Polytope.from_vertices([(0,), (1,)])
SEG_SYM = Polytope.from_vertices([(-1,), (1,)])
SQUARE = Polytope.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])


def unit(P):
    return BoundaryMeasure.unit(P)


def test_criterion_1_segment_csck_oracle():
    """Solve on [0,1] to sup-residual < 1e-5 on a 256-node graded mesh;
    u'' matches 1/(x(1-x)) to 1e-4 at mid-interval; under 10 seconds."""
    t0 = time.time()
    rep = sol.solve(SEG, unit(SEG), m=256, tol=1e-5,
                    phi0=lambda x: 0.05 * np.sin(np.pi * x) ** 2)
    elapsed = time.time() - t0
    ok = rep.converged and rep.residual_sup < 1e-5
    H = geo.hessian_field(rep.grid)
    x = rep.grid.axes[0].nodes[1:-1]
    mid = int(np.argmin(np.abs(x - 0.5)))
    exact = 1.0 / (x[mid] * (1 - x[mid]))
    rel = abs(H[(0, 0)][mid] - exact) / exact
    ok = ok and rel < 1e-4 and elapsed < 10
    report(1, ok, f"residual {rep.residual_sup:.2e}, u'' mid rel err {rel:.2e}, "
                  f"{elapsed:.2f}s")


def test_criterion_2_scalar_curvature_constant():
    """abreu_S(u0) equals A/2 on segment and square; second-order mesh
    convergence (ratio in [3.5, 4.5] between a mesh and its bisection)."""
    details = []
    ok = True
    for P, m, a_half in ((SEG, 65, 1.0), (SQUARE, 33, 2.0)):
        g1 = geo.guillemin(P, unit(P), m=m)
        exact_err = float(np.abs(geo.scalar_curvature_field(g1) - a_half).max())
        ok = ok and exact_err < 1e-9
        g2 = g1.refined()
        S1 = numeric_scalar_curvature(g1)
        S2 = numeric_scalar_curvature(g2)
        mask = uniform_core_mask(g1)
        if P.dim == 1:
            S2c = S2[2 * np.arange(len(S1)) + 2]
        else:
            ii = 2 * np.arange(S1.shape[0]) + 2
            S2c = S2[np.ix_(ii, ii)]
        ratio = np.abs(S1 - a_half)[mask].max() / np.abs(S2c - a_half)[mask].max()
        ok = ok and 3.5 < ratio < 4.5
        details.append(f"dim{P.dim}: analytic err {exact_err:.1e}, ratio {ratio:.2f}")
    report(2, ok, "; ".join(details))


def test_criterion_3_futaki_refusal_and_ray():
    """Weighted segment (1,2): Futaki exactly 1/2, solve refuses; ray slope
    exact for linear rays and within 5% for x^2 at s = 1e3."""
    sigma = BoundaryMeasure((Q(1), Q(2)))
    fut = futaki_linear(SEG, sigma)
    rep = sol.solve(SEG, sigma, m=64)
    ok = fut == (Q(1, 2),) and rep.termination == "refused-futaki"
    lx = float(L(SEG, sigma, PLConvexFunction.affine((1,), 0)))
    rs_lin = sol.ray_slope(SEG, sigma, lambda x: 1.0 * x, s_max=1e3)
    lin_err = abs(rs_lin.slope - lx)
    ok = ok and lin_err < 1e-12
    # exact L(x^2) on ([0,1], (1,2)) is (0 + 2) - 3*(1/3) = 1
    rs_quad = sol.ray_slope(SEG, sigma, lambda x: x ** 2, s_max=1e3)
    quad_rel = abs(rs_quad.slope - 1.0) / 1.0
    ok = ok and quad_rel < 0.05
    report(3, ok, f"futaki {fut[0]}, termination {rep.termination}, "
                  f"linear ray gap {lin_err:.1e}, x^2 ray rel {quad_rel:.3%}")


def test_criterion_4_functional_exactness():
    """L(|x|) = 1 on [-1,1]; L(constants) = 0 on 100 random polytopes and
    weightings; exact GL(2,Z)-invariance on 100 random unimodular maps."""
    ok = L(SEG_SYM, unit(SEG_SYM), PLConvexFunction.abs_coordinate(1)) == 1
    rng = random.Random(101)
    for _ in range(100):
        P = random_polygon(rng)
        sigma = random_weights(rng, P)
        c = Q(rng.randint(-99, 99), rng.randint(1, 9))
        ok = ok and L(P, sigma, PLConvexFunction.affine((Q(0), Q(0)), c)) == 0
    for _ in range(100):
        P = random_polygon(rng, span=5)
        sigma = random_weights(rng, P)
        T = random_unimodular(rng)
        shift = (rng.randint(-4, 4), rng.randint(-4, 4))
        f = PLConvexFunction.crease((rng.randint(-2, 2), rng.randint(1, 2)),
                                    Q(rng.randint(-3, 3), 2))
        PT, sigmaT, fT = unimodular_image(P, sigma, T, shift, f)
        ok = ok and L(P, sigma, f) == L(PT, sigmaT, fT)
    report(4, ok, "L(|x|) = 1 exact; 100 constant and 100 GL(2,Z) checks exact")


def test_criterion_5_three_way_futaki_agreement():
    """Expansion F1 vs L on linear functions: sign match and the volume-
    normalized ratio 2*vol*F1/L within 1% (k <= 40) on the square and two
    asymmetric polygons; filtration route within 3% at k = 256."""
    trap = Polytope.from_vertices([(0, 0), (2, 0), (1, 1), (0, 1)])
    poly2 = Polytope.from_vertices([(0, 0), (3, 0), (1, 1), (0, 1)])
    details = []
    ok = True
    for P in (SQUARE, trap, poly2):
        fit = expansion(P, (1, 0), 10, 40)
        lx = futaki_linear(P, unit(P))[0]
        if lx == 0:
            ok = ok and abs(fit.F1) < 1e-9
            details.append("square: F1 ~ 0")
        else:
            ok = ok and np.sign(fit.F1) == np.sign(float(lx))
            ratio = 2 * float(measures(P).vol) * fit.F1 / float(lx)
            ok = ok and abs(ratio - 1) < 0.01
            details.append(f"ratio {ratio:.4f}")
    f_abs = PLConvexFunction.abs_coordinate(1)
    v1 = filtration_futaki(SEG_SYM, f_abs, 128)
    v2 = filtration_futaki(SEG_SYM, f_abs, 256)
    f1 = float((v1 - v2) / (Q(1, 128) - Q(1, 256)))
    labs = float(L(SEG_SYM, unit(SEG_SYM), f_abs))
    filt_ratio = 2 * float(measures(SEG_SYM).vol) * f1 / labs
    ok = ok and abs(filt_ratio - 1) < 0.03
    details.append(f"filtration ratio {filt_ratio:.4f}")
    report(5, ok, "; ".join(details))


def test_criterion_6_integration_by_parts_contract():
    """At solver convergence, int sum u^{ab} f_ab dmu = L(f) for quadratic f
    to within 10x the quadrature error (baseline: the same pairing at the
    exact reference solution), and that error is itself within 10x its
    measured size: 7.4e-6 (segment, x^2, m = 256), 4.2e-4 (square, x^2 and
    y^2, m = 33) and 0 (square, xy)."""
    cases = [
        (SEG, unit(SEG), [([[1]], 7.4e-5)], 256, lambda x: 0.05 * np.sin(np.pi * x) ** 2),
        (SQUARE, unit(SQUARE),
         [([[1, 0], [0, 0]], 4.2e-3), ([[0, 0], [0, 1]], 4.2e-3),
          ([[0, Q(1, 2)], [Q(1, 2), 0]], 0.0)],
         33, lambda x, y: 0.02 * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2),
    ]
    worst = 0.0
    ok = bounded = True
    for P, sigma, qmats, m, phi0 in cases:
        rep = sol.solve(P, sigma, m=m, tol=1e-6, phi0=phi0)
        ok = ok and rep.converged
        base = geo.PotentialGrid.build(P, sigma, m)
        for qm, bound in qmats:
            got = ibp_pairing(rep.grid, qm)
            boundary, interior = box_quadratic_integrals(P, sigma, qm)
            want = float(boundary - measures(P, sigma).A * interior)
            error = abs(ibp_pairing(base, qm) - want)
            bounded = bounded and error <= bound
            baseline = max(error, 1e-7)
            ok = ok and abs(got - want) <= 10 * baseline
            worst = max(worst, abs(got - want) / baseline)
    report(6, ok and bounded, f"worst pairing error = {worst:.2f}x quadrature baseline (<= 10x); "
                              f"baselines within their bounds: {bounded}")


def test_criterion_7_obstruction_consistency():
    """Every tested square weighting with an exactly negative crease makes
    the solver terminate with the divergence certificate, never converge."""
    ok = True
    details = []
    for wval in (Q(1, 4), Q(1, 5)):
        sigma = BoundaryMeasure(tuple(
            wval if f.normal == (-1, 0) else Q(1) for f in SQUARE.facets))
        v = crease_search(SQUARE, sigma, 4)
        neg = v.best_creases[0]
        ok = ok and neg.L_value < 0
        rep = sol.solve(SQUARE, sigma, m=25, tol=1e-6,
                        require_futaki_zero=False, max_iter=600)
        ok = ok and rep.termination == "divergence-certificate"
        ok = ok and not rep.converged
        details.append(f"w={wval}: crease L={neg.L_value}, {rep.termination}")
    report(7, ok, "; ".join(details))


def test_criterion_8_kempf_ness_suite():
    """Sphere flows ((2,2) balanced, (3,1) limit |mu| = 2), matrix flows
    (normalization with spectrum conservation, nilpotent decay), and the
    Kempf-Ness convexity/slope agreement on 100 random trials; under 60 s."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    p = rng.standard_normal((2, 3))
    p /= np.linalg.norm(p, axis=1)[:, None]
    r22 = kn.sphere_flow(kn.SphereConfig(p, np.array([2, 2])))
    ok = r22.verdict == "balanced" and r22.mu_norms[-1] < 1e-8
    p = rng.standard_normal((2, 3))
    p /= np.linalg.norm(p, axis=1)[:, None]
    r31 = kn.sphere_flow(kn.SphereConfig(p, np.array([3, 1])))
    ok = ok and abs(r31.mu_norms[-1] - 2) < 1e-6

    mres = kn.matrix_flow([[1, 1], [0, 2]])
    eigs = np.sort(np.linalg.eigvals(mres.matrix).real)
    ok = ok and mres.commutator_norms[-1] < 1e-8
    ok = ok and np.abs(eigs - [1, 2]).max() < 1e-6
    nres = kn.matrix_flow([[0, 1], [0, 0]])
    ok = ok and np.linalg.norm(nres.matrix) < 1e-3

    done = 0
    while done < 100:
        m = int(rng.integers(2, 6))
        w = rng.integers(-5, 6, size=m)
        if not w.any():
            continue
        v = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) \
            * rng.integers(0, 2, size=m)
        if not np.abs(v).sum():
            continue
        done += 1
        lam = kn.OnePS(tuple(int(x) for x in w))
        ks = kn.kn_function(v, lam, s_range=(-60, 20), n=161)
        ok = ok and ks.convexity_violations == 0
        ok = ok and abs(ks.slope_minus_infinity - (-kn.hm_weight(lam, v))) < 1e-6
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    report(8, ok, f"flows and 100 slope trials in {elapsed:.1f}s; "
                  f"(3,1) limit |mu| err {abs(r31.mu_norms[-1] - 2):.1e}")


def test_criterion_9_ehrhart_sanity():
    """d_k for the square equals (k+1)^2 for k <= 40; exact polynomial
    interpolation reproduces all counts for 5 random integral polygons."""
    ok = all(count_and_weigh(SQUARE, (1, 0), k).d_k == (k + 1) ** 2
             for k in range(1, 41))
    rng = random.Random(77)
    for _ in range(5):
        P = random_integral_polygon(rng)
        counts = [count_and_weigh(P, (1, 0), k).d_k for k in range(1, 13)]
        poly = interpolate_polynomial([1, 2, 3], counts[:3])
        ok = ok and all(
            sum(c * k ** j for j, c in enumerate(poly)) == counts[k - 1]
            for k in range(1, 13))
    report(9, ok, "square counts exact to k=40; 5 random polygons interpolate")


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError:
                failures += 1
    raise SystemExit(1 if failures else 0)
