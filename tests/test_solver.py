import logging
import mmap
import time
import types
import weakref
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

from conftest import box_quadratic_integrals, ibp_pairing


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

    @pytest.mark.parametrize("first, second", [((4, 6), (4, 6)), ((9, 8), (3, 2)),
                                               ((2, 3), (9, 8))],
                             ids=["same-band", "smaller-band", "larger-band"])
    def test_refill_matches_a_fresh_factor(self, first, second):
        # the fast path refills the buffer of an earlier factor; the fresh
        # map of each factorization is its oracle, bit for bit
        rng = np.random.default_rng(7)
        n = 120
        B, A = band_matrix(rng, n, *first), band_matrix(rng, n, *second)
        b = rng.standard_normal(n)
        earlier = sol._BandedLU(B)
        buffer = earlier.buffer
        refilled = sol._BandedLU(A, buffer)
        fresh = sol._BandedLU(A)
        fits = 2 * second[0] + second[1] + 1 <= 2 * first[0] + first[1] + 1
        assert (refilled.buffer is buffer) == fits
        assert refilled.lu.tobytes() == fresh.lu.tobytes()
        assert np.array_equal(refilled.piv, fresh.piv)
        assert refilled.solve(b).tobytes() == fresh.solve(b).tobytes()


class TestClosure:
    @pytest.mark.parametrize("m", [9, 17, 65])
    def test_reproduces_cubics_1d(self, m):
        x = geo.graded_nodes(0.0, 1.0, m)
        E = sol._closure_1d(x)
        assert E.shape == (m, m - 4)
        for p in [lambda t: 1 + 0 * t, lambda t: t - 0.3, lambda t: (t - 0.4) ** 2,
                  lambda t: 2 * t ** 3 - t + 5]:
            assert np.abs(E @ p(x[2:-2]) - p(x)).max() <= 1e-12

    def test_reproduces_bicubics_2d(self, square):
        g = geo.PotentialGrid.build(square, unit(square), (17, 21))
        ops = sol.GridOperators(g)
        X, Y = g.node_grids()
        for i in range(4):
            for j in range(4):
                f = (X - 0.3) ** i * (Y + 0.2) ** j
                deep = f[2:-2, 2:-2].ravel()
                assert np.abs(ops.closure @ deep - f.ravel()).max() <= 1e-12


def jacobian_by_16_products(ops, U):
    """d(residual)/d(phi) as the plain sum over a, b, c, d (n^4 products)."""
    n = ops.g.n
    J = None
    Uv = {k: U[k].ravel() for k in U}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    w = -Uv[sol._key(a, c)] * Uv[sol._key(d, b)]
                    term = ops.d2i[(a, b)] @ sp.diags(w) @ ops.hess[(c, d)]
                    J = term if J is None else J + term
    return J.tocsr()


class TestGroupedJacobian:
    @pytest.mark.parametrize("dim, m", [(1, 64), (2, 33), (2, 65)])
    def test_matches_16_products(self, dim, m, segment01, square):
        if dim == 1:
            P, sigma, phi = segment01, BoundaryMeasure((Q(1), Q(2))), bump1
        else:
            P, sigma = square, weighted_box(square)
            phi = lambda x, y: bump2(x, y) + 0.01 * x * y ** 2   # noqa: E731
        g = geo.PotentialGrid.build(P, sigma, m, phi=phi)
        ops = sol.GridOperators(g)
        U = geo.inverse_hessian_field(g)
        J, oracle = ops.jacobian(U), jacobian_by_16_products(ops, U)
        assert J.nnz == oracle.nnz
        assert abs(J - oracle).max() <= 1e-15 * abs(oracle).max()


class SpsolveLU:
    """Stand-in for _BandedLU that solves with SuperLU through spsolve."""

    def __init__(self, A, buffer=None):
        self.A = A.tocsc()
        self.buffer = buffer

    def solve(self, b):
        return spla.spsolve(self.A, b)


def box_start(square, m):
    g = geo.PotentialGrid.build(square, weighted_box(square), m, phi=bump2)
    return sol.GridOperators(g), sol.evaluate(square, weighted_box(square), g)


def pinned_by_products(ops, J):
    """The pinned J*E matrix as diag(keep) @ J*E @ diag(keep) + diagonal."""
    A = (J @ ops.closure).tocsr()
    scale = float(np.abs(A.data).max())
    keep = sp.diags(ops.unpinned)
    return (keep @ A @ keep + sp.diags(scale * (1.0 - ops.unpinned))).tocsr()


class TestNewtonStep:
    @pytest.mark.parametrize("dim, m", [(1, 64), (2, 17), (2, 65)])
    def test_masked_system_matches_products(self, dim, m, segment01, square):
        if dim == 1:
            g = geo.PotentialGrid.build(segment01, unit(segment01), m, phi=bump1)
            ops, s = sol.GridOperators(g), sol.evaluate(segment01, unit(segment01), g)
        else:
            ops, s = box_start(square, m)
        J = ops.jacobian(s.U)
        A, _ = sol._newton_system(ops, J, s.r)
        oracle = pinned_by_products(ops, J)
        assert A.format == "csr" and A.nnz == oracle.nnz
        assert abs(A - oracle).max() == 0

    @pytest.mark.parametrize("m", [17, 33])
    def test_banded_lu_matches_spsolve(self, square, m):
        ops, s = box_start(square, m)
        A, rhs = sol._newton_system(ops, ops.jacobian(s.U), s.r)
        lu = sol._BandedLU(A)
        # deep row-major ordering: the closure reaches 3 deep rows across
        assert lu.kl <= 3 * (m - 4) + 3 and lu.ku <= 3 * (m - 4) + 3
        x = lu.solve(rhs)
        oracle = spla.spsolve(A.tocsc(), rhs)
        assert np.abs(x - oracle).max() <= 1e-9 * np.abs(oracle).max()
        # x vanishes at the pinned nodes and solves every other equation
        assert np.all(x[ops.pinned] == 0)
        keep = np.setdiff1d(np.arange(len(x)), ops.pinned)
        lin = ops.jacobian(s.U) @ (ops.closure @ x) + s.r.ravel()
        assert np.abs(lin[keep]).max() <= 1e-8 * np.abs(s.r).max()

    def test_step_lands_on_a_closed_iterate(self, square):
        ops, s = box_start(square, 17)
        nxt = sol._newton_step(ops, s)
        assert nxt is not None
        assert np.abs(nxt.r).max() < 0.5 * np.abs(s.r).max()
        phi = nxt.g.phi
        closed = ops.closure @ phi[2:-2, 2:-2].ravel()
        assert np.abs(closed - phi.ravel()).max() <= 1e-12 * (1 + np.abs(phi).max())

    def test_singular_factor_returns_none(self, square, monkeypatch):
        ops, s = box_start(square, 17)

        class Singular:
            def __init__(self, A, buffer=None):
                raise RuntimeError("exactly singular")

        monkeypatch.setattr(sol, "_BandedLU", Singular)
        assert sol._newton_step(ops, s) is None

    @pytest.mark.parametrize("case", ["box-33", "box-65", "criterion-1"])
    def test_spsolve_gives_the_same_iteration_counts(self, case, segment01, square,
                                                     monkeypatch):
        # the closed system is well posed, so two LAPACK paths take the
        # same steps up to rounding and the solve the same path
        if case == "criterion-1":
            def run():
                return sol.solve(segment01, unit(segment01), m=256, tol=1e-5, phi0=bump1)
        else:
            def run():
                return sol.solve(square, weighted_box(square), m=int(case[4:]),
                                 tol=1e-6, phi0=bump2)
        banded = run()
        monkeypatch.setattr(sol, "_BandedLU", SpsolveLU)
        superlu = run()
        assert banded.converged and superlu.converged
        assert superlu.iterations == banded.iterations
        assert superlu.phase_history == banded.phase_history


def core_hessian(g):
    """Hessian entries on the core (middle half of each axis), flattened."""
    H = geo.hessian_field(g)
    core = np.ix_(*[np.abs(ax.nodes[1:-1] - (ax.lo + ax.hi) / 2) <= (ax.hi - ax.lo) / 4
                    for ax in g.axes])
    return np.concatenate([H[k][core].ravel() for k in sorted(H)])


def counted_factors(monkeypatch):
    """Patch _BandedLU to record, at each construction, which earlier
    factors are still alive; returns the list of those records."""
    made, alive_at_start = [], []

    class Counted(sol._BandedLU):
        def __init__(self, A, buffer=None):
            alive_at_start.append([r() is not None for r in made])
            made.append(weakref.ref(self))
            super().__init__(A, buffer)

    monkeypatch.setattr(sol, "_BandedLU", Counted)
    return alive_at_start


class TestFactorReuse:
    @pytest.mark.parametrize("case", ["box-33", "box-65", "criterion-1"])
    def test_matches_refactoring_every_step(self, case, segment01, square, monkeypatch):
        # the chord steps are a fast path; with _CHORD_CUT = 0 no chord step
        # is accepted, every step refactors, and that run is the oracle
        if case == "criterion-1":
            def run():
                return sol.solve(segment01, unit(segment01), m=256, tol=1e-5, phi0=bump1)
        else:
            def run():
                return sol.solve(square, weighted_box(square), m=int(case[4:]),
                                 tol=1e-6, phi0=bump2)
        fast = run()
        monkeypatch.setattr(sol, "_CHORD_CUT", 0.0)
        slow = run()
        assert fast.converged and slow.converged
        assert fast.factorizations < slow.factorizations == slow.phase_history.count("newton")
        a, b = core_hessian(fast.grid), core_hessian(slow.grid)
        assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max()

    def test_box_m65_factors_at_most_three_times(self, square, monkeypatch, caplog):
        made = counted_factors(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="kstab.solver"):
            rep = sol.solve(square, weighted_box(square), m=65, tol=1e-6, phi0=bump2)
        assert rep.converged
        assert rep.factorizations == len(made) <= 3
        # one debug line per Newton step, saying whether it refactored
        steps = [r.getMessage() for r in caplog.records if r.name == "kstab.solver"]
        assert len(steps) == rep.phase_history.count("newton") == len(rep.phase_history)
        assert sum("refactor" in m for m in steps) == rep.factorizations
        assert sum("reuse" in m for m in steps) == len(steps) - rep.factorizations

    def test_one_band_map_per_solve(self, square, monkeypatch):
        # every refactorization refills the solve's one band buffer (16.6 MB
        # at m = 65) in place, and the stale factor is dropped before its
        # band is overwritten
        maps = []

        def counted_mmap(*args):
            maps.append(args)
            return mmap.mmap(*args)

        monkeypatch.setattr(sol, "mmap", types.SimpleNamespace(mmap=counted_mmap))
        made = counted_factors(monkeypatch)
        rep = sol.solve(square, weighted_box(square), m=33, tol=1e-6, phi0=bump2)
        assert rep.converged and rep.factorizations == len(made) >= 2
        assert len(maps) == 1
        assert not any(any(alive) for alive in made)

    def test_refill_matches_a_fresh_map_every_time(self, square, monkeypatch):
        # the oracle maps a new band buffer at every factorization
        def run():
            return sol.solve(square, weighted_box(square), m=65, tol=1e-6, phi0=bump2)

        refilled = run()

        class Fresh(sol._BandedLU):
            def __init__(self, A, buffer=None):
                super().__init__(A)

        monkeypatch.setattr(sol, "_BandedLU", Fresh)
        fresh = run()
        assert refilled.converged and refilled.factorizations >= 2
        assert (refilled.iterations, refilled.factorizations) == (fresh.iterations,
                                                                  fresh.factorizations)
        assert refilled.grid.phi.tobytes() == fresh.grid.phi.tobytes()


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

        for mod in (geo, stab):
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
        # nonlinear regime: Newton from the start converges from a sizeable
        # non-symmetric perturbation, where the flow crawled for 136 steps
        rep = sol.solve(segment01, unit(segment01), m=128, tol=1e-6,
                        phi0=lambda x: 0.3 * x ** 2 * (1 - x) ** 3 * np.sin(3 * x))
        assert rep.converged
        assert "flow" not in rep.phase_history
        # F falls steeply here, but zero Futaki means a solution exists, so
        # every step is still a Newton step
        rep2 = sol.solve(segment01, unit(segment01), m=128, tol=1e-6,
                         phi0=lambda x: 0.15 * np.sin(np.pi * x) ** 2)
        assert rep2.converged
        assert "flow" not in rep2.phase_history

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
        # one step per iteration but the last, which only tests for convergence
        assert len(rep.phase_history) == n - 1
        assert set(rep.phase_history) == {"newton"}

    def test_box_polish_ends_in_newton_steps(self, square):
        rep = sol.solve(square, weighted_box(square), m=65, tol=1e-6, phi0=bump2)
        assert rep.converged
        assert rep.phase_history[-3:] == ["newton"] * 3

    def test_box_m97_converges_quickly(self, square):
        # the damped normal equations took 389 iterations and minutes here
        t0 = time.time()
        rep = sol.solve(square, weighted_box(square), m=97, tol=1e-6, phi0=bump2)
        assert time.time() - t0 < 10
        assert rep.converged and rep.iterations <= 25
        # the canonical potential of a box is the exact discrete solution
        # too, so the converged Hessian matches it to rounding on the core
        g = rep.grid
        H = geo.hessian_field(g)
        ref, core = [], []
        for ax in g.axes:
            x = ax.nodes[1:-1]
            ref.append(1 / (ax.w_lo * (x - ax.lo)) + 1 / (ax.w_hi * (ax.hi - x)))
            core.append(np.abs(x - (ax.lo + ax.hi) / 2) <= (ax.hi - ax.lo) / 4)
        r0, r1 = ref[0][:, None], ref[1][None, :]
        err = np.maximum.reduce([np.abs(H[(0, 0)] - r0) / r0, np.abs(H[(1, 1)] - r1) / r1,
                                 np.abs(H[(0, 1)]) / np.sqrt(r0 * r1)])
        assert err[np.ix_(*core)].max() <= 1e-10


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
        # nonzero Futaki: every step of the escape is a flow step
        assert set(rep.phase_history) == {"flow"}

    def test_escape_never_factors(self, square, monkeypatch):
        # nonzero Futaki: the flow is the only path, so the escape never
        # builds a Newton factor (an attempt would raise out of solve)
        class Refused:
            def __init__(self, A, buffer=None):
                raise AssertionError("an escape run factored the Newton system")

        monkeypatch.setattr(sol, "_BandedLU", Refused)
        sigma = BoundaryMeasure(tuple(
            Q(1, 4) if f.normal == (-1, 0) else Q(1) for f in square.facets))
        rep = sol.solve(square, sigma, m=25, tol=1e-6,
                        require_futaki_zero=False, max_iter=600)
        assert rep.termination == "divergence-certificate"
        assert rep.factorizations == 0

    @pytest.mark.parametrize("m, w", [(96, Q(2)), (96, Q(10, 9)), (128, Q(20, 19))],
                             ids=["m96-w2", "m96-w10_9", "m128-w20_19"])
    def test_weighted_segment_escapes_along_linear(self, segment01, m, w):
        # near w = 1 the escape is weak and F falls slowly; nonzero Futaki
        # still means every step is a flow step, and the run never factors
        rep = sol.solve(segment01, BoundaryMeasure((Q(1), w)), m=m,
                        tol=1e-6, require_futaki_zero=False, max_iter=800)
        assert rep.termination == "divergence-certificate"
        assert rep.factorizations == 0
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

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_an_error(self, square):
        # the Hessian of u0 + s x^2 overflows at s ~ 1e300: the slope was NaN
        with pytest.raises(ValueError, match="not finite"):
            sol.ray_slope(square, unit(square), lambda x, y: x * x + y * y, s_max=1e300, m=25)

    def test_2d_linear(self, square):
        sigma = BoundaryMeasure(tuple(
            Q(1, 4) if f.normal == (-1, 0) else Q(1) for f in square.facets))
        rs = sol.ray_slope(square, sigma, lambda x, y: 1.0 * x, s_max=100, m=25)
        lx = float(L(square, sigma, PLConvexFunction.affine((1, 0), 0)))
        assert abs(rs.slope - lx) < 1e-10

    @pytest.mark.parametrize("s_max", [0.0, -5.0, float("nan"), float("inf")])
    def test_s_max_must_be_finite_and_positive(self, segment01, s_max):
        # 0 divided by zero, nan failed in the field extension, -5 ran the ray backwards
        with pytest.raises(ValueError, match="s_max must be finite and positive"):
            sol.ray_slope(segment01, unit(segment01), lambda x: 1.0 * x, s_max=s_max)


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
                got = ibp_pairing(rep.grid, qm)
                boundary, interior = box_quadratic_integrals(P, sigma, qm)
                want = float(boundary - measures(P, sigma).A * interior)
                baseline = abs(ibp_pairing(base, qm) - want)
                assert abs(got - want) <= 10 * max(baseline, 1e-7)
