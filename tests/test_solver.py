import time
from fractions import Fraction as Q

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kstab import geometry as geo
from kstab import solver as sol
from kstab import stability as stab
from kstab.polytope import BoundaryMeasure, measures
from kstab.stability import L, PLConvexFunction, crease_search


def unit(P):
    return BoundaryMeasure.unit(P)


def bump1(x):
    return 0.05 * np.sin(np.pi * x) ** 2


def bump2(x, y):
    return 0.02 * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2


def history_non_increasing(hist, rtol=1e-6):
    # the Newton polish minimizes the residual, whose zero differs from the
    # discrete F minimizer by quadrature-level amounts; F may wiggle there
    return all(b <= a + rtol * (1 + abs(a)) for a, b in zip(hist, hist[1:]))


class TestMabuchi:
    def test_segment_reference_value(self, segment01):
        # closed form: -int log(1/(x(1-x))) = -2 and L(u0) = 0 - 2*(-1/2) = 1
        g = geo.guillemin(segment01, unit(segment01), m=128)
        assert abs(sol.mabuchi(segment01, unit(segment01), g) - (-1.0)) < 1e-12

    def test_square_reference_value(self, square):
        g = geo.guillemin(square, unit(square), m=33)
        assert abs(sol.mabuchi(square, unit(square), g) - (-2.0)) < 1e-12

    def test_affine_invariance_futaki_zero(self, segment01):
        g = geo.guillemin(segment01, unit(segment01), m=64)
        F0 = sol.mabuchi(segment01, unit(segment01), g)
        g2 = g.with_phi(lambda x: 0.7 * x - 0.3)
        assert abs(sol.mabuchi(segment01, unit(segment01), g2) - F0) < 1e-12

    def test_linear_shift_changes_by_L(self, segment01):
        sigma = BoundaryMeasure((Q(1), Q(2)))
        g = geo.guillemin(segment01, sigma, m=64)
        F0 = sol.mabuchi(segment01, sigma, g)
        s = 3.25
        g2 = g.with_phi(lambda x: s * x)
        lx = float(L(segment01, sigma, PLConvexFunction.affine((1,), 0)))
        assert abs(sol.mabuchi(segment01, sigma, g2) - (F0 + s * lx)) < 1e-10

    def test_convexity_guard(self, segment01):
        g = geo.guillemin(segment01, unit(segment01), m=64)
        g2 = g.with_phi(lambda x: -50.0 * (x - 0.5) ** 2)
        with pytest.raises(geo.ConvexityError):
            sol.mabuchi(segment01, unit(segment01), g2)


class TestJacobian:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_central_differences(self, dim, segment01, square):
        # the residual is smooth in phi, so central differences with step
        # eps agree with the exact Jacobian to O(eps^2)
        if dim == 1:
            P, sigma = segment01, BoundaryMeasure((Q(1), Q(2)))
            phi = lambda x: bump1(x) + 0.02 * x ** 3   # noqa: E731
        else:
            P, sigma = square, BoundaryMeasure(tuple(
                Q(2) if f.normal[0] != 0 else Q(3) for f in square.facets))
            phi = lambda x, y: bump2(x, y) + 0.01 * x * y ** 2   # noqa: E731
        g = geo.PotentialGrid.build(P, sigma, 17, phi=phi)
        J = sol.GridOperators(g).jacobian(geo.inverse_hessian_field(g)).toarray()
        eps = 1e-6
        fd = np.empty_like(J)
        for j in range(g.phi.size):
            e = np.zeros(g.phi.size)
            e[j] = eps
            e = e.reshape(g.shape)
            rp = geo.abreu_residual_field(g.with_phi(g.phi + e))
            rm = geo.abreu_residual_field(g.with_phi(g.phi - e))
            fd[:, j] = ((rp - rm) / (2 * eps)).ravel()
        assert np.abs(fd - J).max() < 1e-6 * np.abs(J).max()


def weighted_box(square):
    return BoundaryMeasure(tuple(
        Q(2) if f.normal[0] != 0 else Q(3) for f in square.facets))


def band_matrix(rng, n, kl, ku):
    """Random nonsymmetric sparse matrix with kl sub- and ku superdiagonals."""
    offsets = list(range(-kl, ku + 1))
    return sp.diags([rng.standard_normal(n - abs(k)) for k in offsets], offsets,
                    format="csr")


class TestBandedLU:
    @pytest.mark.parametrize("n, kl, ku", [(40, 3, 7), (60, 9, 2), (256, 3, 4)])
    def test_matches_dense_solve(self, n, kl, ku):
        rng = np.random.default_rng(n + 100 * kl + ku)
        A = band_matrix(rng, n, kl, ku)
        b = rng.standard_normal(n)
        lu = sol._BandedLU(A)
        assert (lu.kl, lu.ku) == (kl, ku)
        want = np.linalg.solve(A.toarray(), b)
        assert np.abs(lu.solve(b) - want).max() <= 1e-9 * np.abs(want).max()

    def test_exactly_singular_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(RuntimeError):
            sol._BandedLU(A)

    def test_factor_stays_in_its_mmap(self):
        # a copy made by the LAPACK wrapper would put the band back on the
        # heap, where glibc does not return it to the system
        lu = sol._BandedLU(band_matrix(np.random.default_rng(0), 50, 2, 3))
        assert np.shares_memory(lu.lu, np.frombuffer(lu.buffer, dtype=np.uint8))


class TestGaussNewtonStep:
    @pytest.mark.parametrize("damping", [1e-2, 4e-4])
    def test_matches_sparse_lu_through_the_jacobian(self, square, damping):
        # the damped normal equations are singular to working precision, so
        # two LU factorizations give very different steps; only J*delta,
        # the step's effect on the linearized residual, is determined
        sigma = weighted_box(square)
        g = geo.PotentialGrid.build(square, sigma, 33, phi=bump2)
        ops = sol.GridOperators(g)
        s = sol.evaluate(square, sigma, g)
        J = ops.jacobian(s.U)
        r = s.r.ravel()
        A = (J.T @ J + damping * ops.h2_matrix()).tocsc()
        rhs = -(J.T @ r)
        delta = sol._BandedLU(A).solve(rhs)
        oracle = spla.splu(A).solve(rhs)
        assert np.abs(J @ (delta - oracle)).max() <= 1e-6 * np.abs(r).max()
        assert np.abs(A @ delta - rhs).max() <= 1e-8 * np.abs(rhs).max()

    def test_singular_factor_raises_the_damping(self, square, monkeypatch):
        sigma = weighted_box(square)
        g = geo.PotentialGrid.build(square, sigma, 17, phi=bump2)
        ops = sol.GridOperators(g)
        s = sol.evaluate(square, sigma, g)
        matrices = []

        class FailOnce(sol._BandedLU):
            def __init__(self, A):
                matrices.append(A)
                if len(matrices) == 1:
                    raise RuntimeError("exactly singular")
                super().__init__(A)

        monkeypatch.setattr(sol, "_BandedLU", FailOnce)
        nxt, damping = sol._gauss_newton_step(ops, s, 1e-2, True)
        assert nxt is not None and len(matrices) == 2
        # A = JtJ + damping * M2, so the retry adds (10 - 1) * 1e-2 * M2
        diff = matrices[1] - matrices[0] - 9e-2 * ops.h2_matrix()
        assert abs(diff).max() <= 1e-12 * abs(matrices[0]).max()
        # an accepted step eases the damping it used by a factor of 5
        assert damping == pytest.approx(2e-2)


class TestSolve:
    def test_segment_csck(self, segment01):
        t0 = time.time()
        rep = sol.solve(segment01, unit(segment01), m=256, tol=1e-6, phi0=bump1)
        assert rep.converged
        assert rep.residual_sup < 1e-6
        # exact ODE oracle: (u^{11})'' = -A with the weighted boundary
        # contract forces u^{11} = x(1-x), i.e. u'' = 1/(x(1-x))
        H = geo.hessian_field(rep.grid)
        x = rep.grid.axes[0].nodes[1:-1]
        mid = np.argmin(np.abs(x - 0.5))
        exact = 1 / (x[mid] * (1 - x[mid]))
        assert abs(H[(0, 0)][mid] - exact) / exact < 1e-4
        assert history_non_increasing(rep.mabuchi_history)
        assert time.time() - t0 < 10

    @pytest.mark.parametrize("weight, termination", [(Q(1), "converged"),
                                                     (Q(1, 4), "divergence-certificate")])
    def test_measures_computed_once_per_grid(self, square, monkeypatch, weight, termination):
        calls = []

        def counted(*args):
            calls.append(args)
            return measures(*args)

        for mod in (geo, sol, stab):
            monkeypatch.setattr(mod, "measures", counted)
        sigma = BoundaryMeasure(tuple(
            weight if f.normal == (-1, 0) else Q(1) for f in square.facets))
        rep = sol.solve(square, sigma, m=25, tol=1e-6, phi0=bump2,
                        require_futaki_zero=False, max_iter=600)
        assert rep.termination == termination and rep.iterations > 1
        # futaki_linear and the first grid; every later grid shares its A
        assert len(calls) == 2

    def test_weighted_segment_refused(self, segment01):
        rep = sol.solve(segment01, BoundaryMeasure((Q(1), Q(2))), m=64)
        assert rep.termination == "refused-futaki"
        assert rep.futaki == (Q(1, 2),)
        assert rep.iterations == 0

    def test_square_converges_to_reference(self, square):
        rep = sol.solve(square, unit(square), m=33, tol=1e-6, phi0=bump2)
        assert rep.converged
        # S -> A/2 = 2 uniformly: the sup residual bounds |2S - A|
        assert rep.residual_sup < 1e-6
        # final u equals u0 up to affine functions: second derivatives match
        H = geo.hessian_field(rep.grid)
        x = rep.grid.axes[0].nodes[1:-1]
        ref = 1 / (x * (1 - x))
        rel = np.abs(H[(0, 0)] - ref[:, None]) / ref[:, None]
        core = slice(8, -8)
        assert rel[core, core].max() < 1e-2
        mid = len(x) // 2
        assert rel[mid, mid] < 1e-3
        assert history_non_increasing(rep.mabuchi_history)

    def test_weighted_stable_box(self, square):
        sigma = BoundaryMeasure(tuple(
            Q(2) if f.normal[0] != 0 else Q(3) for f in square.facets))
        rep = sol.solve(square, sigma, m=33, tol=1e-6, phi0=bump2)
        assert rep.converged

    def test_mesh_refinement_accuracy(self, segment01):
        errs = []
        for m in (128, 256):
            rep = sol.solve(segment01, unit(segment01), m=m, tol=1e-6, phi0=bump1)
            assert rep.converged
            H = geo.hessian_field(rep.grid)
            x = rep.grid.axes[0].nodes[1:-1]
            mid = np.argmin(np.abs(x - 0.5))
            exact = 1 / (x[mid] * (1 - x[mid]))
            errs.append(abs(H[(0, 0)][mid] - exact) / exact)
        assert errs[1] <= errs[0] + 1e-7

    def test_large_asymmetric_start(self, segment01):
        # nonlinear regime: the flow phase must carry the state into the
        # Newton basin from a sizeable non-symmetric perturbation
        rep = sol.solve(segment01, unit(segment01), m=128, tol=1e-6,
                        phi0=lambda x: 0.3 * x ** 2 * (1 - x) ** 3 * np.sin(3 * x))
        assert rep.converged
        rep2 = sol.solve(segment01, unit(segment01), m=128, tol=1e-6,
                         phi0=lambda x: 0.15 * np.sin(np.pi * x) ** 2)
        assert rep2.converged

    def test_square_larger_start(self, square):
        rep = sol.solve(square, unit(square), m=25, tol=1e-6,
                        phi0=lambda x, y: 0.08 * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2)
        assert rep.converged

    def test_report_diagnostics_populated(self, segment01):
        rep = sol.solve(segment01, unit(segment01), m=64, tol=1e-6, phi0=bump1)
        n = len(rep.mabuchi_history)
        assert len(rep.residual_history) == n
        assert len(rep.min_det_history) == n
        assert len(rep.sup_u_history) == n
        assert min(rep.min_det_history) > 0


class TestObstruction:
    def test_destabilized_square_diverges(self, square):
        # increasing the boundary weight contrast until a crease goes
        # negative: weights (1, w, 1, 1) with w = 1/4 give
        # L(max(0, x - 1/2)) = -1/32 exactly
        sigma = BoundaryMeasure(tuple(
            Q(1, 4) if f.normal == (-1, 0) else Q(1) for f in square.facets))
        f = PLConvexFunction.crease((1, 0), Q(1, 2))
        assert L(square, sigma, f) == Q(-1, 32)
        v = crease_search(square, sigma, 4)
        assert v.best_creases[0].L_value < 0
        rep = sol.solve(square, sigma, m=25, tol=1e-6,
                        require_futaki_zero=False, max_iter=600)
        assert rep.termination == "divergence-certificate"
        assert not rep.converged
        assert rep.certificate is not None
        assert rep.certificate["min_det"] > 0
        assert np.abs(rep.certificate["direction"]).max() <= 1.0 + 1e-12

    def test_weighted_segment_escapes_along_linear(self, segment01):
        rep = sol.solve(segment01, BoundaryMeasure((Q(1), Q(2))), m=96,
                        tol=1e-6, require_futaki_zero=False, max_iter=800)
        assert rep.termination == "divergence-certificate"
        # the escape direction is essentially linear in x
        d = rep.certificate["direction"]
        x = rep.grid.axes[0].nodes
        corr = np.corrcoef(d, x)[0, 1]
        assert abs(corr) > 0.99

    def test_mabuchi_decreases_during_escape(self, square):
        sigma = BoundaryMeasure(tuple(
            Q(1, 4) if f.normal == (-1, 0) else Q(1) for f in square.facets))
        rep = sol.solve(square, sigma, m=25, tol=1e-6,
                        require_futaki_zero=False, max_iter=600)
        assert history_non_increasing(rep.mabuchi_history, rtol=1e-6)
        assert rep.mabuchi_history[-1] < rep.mabuchi_history[0]


class TestRaySlope:
    def test_linear_exact(self, segment01):
        sigma = BoundaryMeasure((Q(1), Q(2)))
        rs = sol.ray_slope(segment01, sigma, lambda x: 1.0 * x, s_max=1e3)
        lx = float(L(segment01, sigma, PLConvexFunction.affine((1,), 0)))
        assert abs(rs.slope - lx) < 1e-12
        assert abs(rs.l_value - lx) < 1e-12

    def test_quadratic_within_tolerance(self, segment01):
        sigma = BoundaryMeasure((Q(1), Q(2)))
        rs = sol.ray_slope(segment01, sigma, lambda x: x ** 2, s_max=1e3)
        # exact L(x^2) = (1*0 + 2*1) - 3/3 = 1
        assert abs(rs.slope - 1.0) < 0.05

    def test_zero_direction(self, segment01):
        rs = sol.ray_slope(segment01, unit(segment01), lambda x: 0.0 * x, s_max=10)
        assert rs.slope == 0

    def test_2d_linear(self, square):
        sigma = BoundaryMeasure(tuple(
            Q(1, 4) if f.normal == (-1, 0) else Q(1) for f in square.facets))
        rs = sol.ray_slope(square, sigma, lambda x, y: 1.0 * x, s_max=100, m=25)
        lx = float(L(square, sigma, PLConvexFunction.affine((1, 0), 0)))
        assert abs(rs.slope - lx) < 1e-10


class TestSolutionCertificate:
    def test_ibp_quadratics_at_convergence(self, segment01, square):
        cases = [
            (segment01, unit(segment01), [[[1]]], 256, bump1),
            (square, unit(square), [[[1, 0], [0, 0]], [[0, 0], [0, 1]],
                                    [[0, Q(1, 2)], [Q(1, 2), 0]]], 33, bump2),
        ]
        for P, sigma, qmats, m, phi0 in cases:
            rep = sol.solve(P, sigma, m=m, tol=1e-6, phi0=phi0)
            assert rep.converged
            base = geo.PotentialGrid.build(P, sigma, m)   # exact solution u0
            for qm in qmats:
                got = sol.ibp_pairing(rep.grid, qm)
                want = float(sol.quadratic_l_exact(P, sigma, qm, [0] * P.dim, 0))
                baseline = abs(sol.ibp_pairing(base, qm) - want)
                assert abs(got - want) <= 10 * max(baseline, 1e-7)
