import logging
import math
import mmap
import os
import re
import subprocess
import sys
import textwrap
import time
import types
import warnings
import weakref
from fractions import Fraction as Q

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from kstab import geometry as geo
from kstab import solver as sol
from kstab import stability as stab
from kstab.polytope import BoundaryMeasure, measures, parse_polytope_text
from kstab.stability import L, PLConvexFunction, crease_search

from conftest import box_quadratic_integrals, count_calls, ibp_pairing, oracle_stencils


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
        assert abs(sol.evaluate(g).F - (-1.0)) < 1e-12

    def test_square_reference_value(self, square):
        g = geo.guillemin(square, unit(square), m=33)
        assert abs(sol.evaluate(g).F - (-2.0)) < 1e-12

    def test_affine_invariance_futaki_zero(self, segment01):
        g = geo.guillemin(segment01, unit(segment01), m=64)
        F0 = sol.evaluate(g).F
        g2 = g.with_phi(lambda x: 0.7 * x - 0.3)
        assert abs(sol.evaluate(g2).F - F0) < 1e-12

    def test_linear_shift_changes_by_L(self, segment01):
        sigma = BoundaryMeasure((Q(1), Q(2)))
        g = geo.guillemin(segment01, sigma, m=64)
        F0 = sol.evaluate(g).F
        s = 3.25
        g2 = g.with_phi(lambda x: s * x)
        lx = float(L(segment01, sigma, PLConvexFunction.affine((1,), 0)))
        assert abs(sol.evaluate(g2).F - (F0 + s * lx)) < 1e-10

    def test_convexity_guard(self, segment01):
        g = geo.guillemin(segment01, unit(segment01), m=64)
        g2 = g.with_phi(lambda x: -50.0 * (x - 0.5) ** 2)
        with pytest.raises(geo.ConvexityError):
            sol.evaluate(g2).F


class TestEvaluate:
    FIELDS = ("hessian_field", "det_field", "inverse_hessian_field", "divergence2_field")

    @pytest.mark.parametrize("dim", [1, 2])
    def test_each_field_is_computed_once(self, dim, segment01, square, monkeypatch):
        # residual, F and the convexity check read the fields evaluate keeps
        calls = count_calls(monkeypatch, geo, self.FIELDS)
        g = (geo.guillemin(segment01, unit(segment01), m=33) if dim == 1
             else geo.PotentialGrid.build(square, weighted_box(square), 17, phi=bump2))
        s = sol.evaluate(g)
        assert calls == dict.fromkeys(self.FIELDS, 1)
        assert np.array_equal(s.r, s.div + g.A)
        assert np.array_equal(s.det, geo.det_field(s.H))

    def test_off_the_cone_raises_with_the_location(self, segment01, monkeypatch):
        g = geo.guillemin(segment01, unit(segment01), m=33).with_phi(
            lambda x: -40.0 * (x - 0.5) ** 2)
        calls = count_calls(monkeypatch, geo, self.FIELDS)
        with pytest.raises(geo.ConvexityError, match=r"near \(0\.\d+,\) \(det = -"):
            sol.evaluate(g)
        assert calls == {"hessian_field": 1, "det_field": 1, "inverse_hessian_field": 0,
                         "divergence2_field": 0}


def weighted_box(square):
    return BoundaryMeasure(tuple(
        Q(2) if f.normal[0] != 0 else Q(3) for f in square.facets))


# -- the sparse assembly of the Newton matrix, the oracle of the band ----------

def stencil_matrices(x):
    """(d1, d2) of conftest.oracle_stencils as sparse (len(x) - 2, len(x))
    matrices taking values at the points x to derivatives at x[1:-1]."""
    k = len(x) - 2
    rows = np.repeat(np.arange(k), 3)
    cols = (np.arange(k)[:, None] + np.arange(3)).ravel()
    return tuple(sp.csr_matrix((T.ravel(), (rows, cols)), shape=(k, k + 2))
                 for T in oracle_stencils(x))


def kronecker_operators(g, inner):
    """{(a, b): D_ab} from the axes' stencil_matrices at the nodes (or, if
    `inner`, at the interior nodes): D_aa the second difference along a and
    D_01 the cross difference, as Kronecker products, an axis not
    differenced keeping its inner entries."""
    d1, d2 = zip(*(stencil_matrices(ax.nodes[1:-1] if inner else ax.nodes) for ax in g.axes))
    if g.n == 1:
        return {(0, 0): d2[0]}
    rx, ry = (sp.eye(*M.shape, k=1, format="csr") for M in d2)
    D = {(0, 0): sp.kron(d2[0], ry, format="csr"), (1, 1): sp.kron(rx, d2[1], format="csr"),
         (0, 1): sp.kron(d1[0], d1[1], format="csr")}
    D[(1, 0)] = D[(0, 1)]
    return D


def hessian_matrices(g):
    """{(a, b): Hess_ab}, nodes -> interior lattice, as sparse matrices."""
    return kronecker_operators(g, False)


def second_divergence(g):
    """{(a, b): D2I_ab}, interior lattice -> two layers in, as sparse matrices."""
    return kronecker_operators(g, True)


def jacobian_by_16_products(ops, U):
    """d(residual)/d(phi) as the plain sum over a, b, c, d (n^4 products)."""
    n = ops.g.n
    D2I, hess = second_divergence(ops.g), hessian_matrices(ops.g)
    J = None
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    w = -(U[a, c] * U[d, b]).ravel()
                    term = D2I[(a, b)] @ sp.diags(w) @ hess[(c, d)]
                    J = term if J is None else J + term
    return J.tocsr()


def closure_1d(x):
    """Sparse (m, m - 4) map from the deep values x[2:-2] to all m nodes: the
    identity on the deep nodes, and the cubic Lagrange extrapolation through
    the 4 nearest deep nodes at each outer node (two per side)."""
    m = len(x)
    E = np.zeros((m, m - 4))
    E[2:-2] = np.eye(m - 4)
    for outer, src, coef in geo.outer_extrapolation(x, 2, 4):
        E[np.ix_(outer, [i - 2 for i in src])] = coef
    return sp.csr_matrix(E)


def closure_by_kron(g):
    """The closure E of a grid as a sparse matrix, the Kronecker product of
    the axes' closure_1d: the oracle of solver._close."""
    E = [closure_1d(ax.nodes) for ax in g.axes]
    return E[0] if g.n == 1 else sp.kron(E[0], E[1], format="csr")


def pinned_by_products(ops, J):
    """The pinned J*E matrix as diag(keep) @ J*E @ diag(keep) + diagonal."""
    A = (J @ closure_by_kron(ops.g)).tocsr()
    scale = float(np.abs(A.data).max())
    keep = sp.diags(ops.unpinned)
    return (keep @ A @ keep + sp.diags(scale * (1.0 - ops.unpinned))).tocsr()


def bandwidths(A):
    """(kl, ku) read off the stored entries of a sparse matrix."""
    A = A.tocoo()
    off = A.row - A.col
    return int(off.max(initial=0)), int(-off.min(initial=0))


def to_band(A, kl, ku):
    """A in LAPACK band storage: 2 kl + ku + 1 rows, Fortran order, A[i, j]
    at [kl + ku + i - j, j]."""
    A = A.tocoo()
    assert all(np.less_equal(bandwidths(A), (kl, ku)))
    ab = np.zeros((2 * kl + ku + 1, A.shape[1]), order="F")
    np.add.at(ab, (kl + ku + A.row - A.col, A.col), A.data)
    return ab


def from_band(ab, kl, ku):
    """The sparse matrix held in LAPACK band storage (inverse of to_band)."""
    n = ab.shape[1]
    offsets = range(-kl, ku + 1)   # column - row
    return sp.diags([ab[kl + ku - k, max(0, k):n + min(0, k)] for k in offsets],
                    offsets, format="csr")


def within_one_ulp(got, want, bound):
    """got against want rounded once to float32, entry by entry: at most
    bound plus one float32 ulp of the rounded want apart."""
    want = np.asarray(want, dtype=np.float32)
    return np.all(np.abs(np.asarray(got, dtype=float) - want)
                  <= bound + np.spacing(np.abs(want)))


def oracle_jacobian(ops, U, dtype=np.float32):
    """GridOperators.jacobian by sparse products, in a new band every call,
    with the bandwidths read off the sparse matrix: the pinned J*E times
    2^-e, max|J*E| in [2^(e-1), 2^e), rounded once to dtype."""
    A = pinned_by_products(ops, jacobian_by_16_products(ops, U))
    kl, ku = bandwidths(A)
    scale = float(np.abs(A.data).max())
    band = np.ldexp(to_band(A, kl, ku), -math.frexp(scale)[1]).astype(dtype)
    return band, kl, ku, scale


def backward_error(A, x, b):
    """max|A x - b| / (||A|| max|x| + max|b|), ||A|| the sup norm."""
    return np.abs(A @ x - b).max() / (abs(A).sum(axis=1).max() * np.abs(x).max()
                                      + np.abs(b).max())


# backward error of a float32 banded LU solve: 1.2e-8 to 2.1e-8 measured on
# the random bands of TestBandedLU, 7.7e-8 and 1.2e-7 on the m = 17 and 33
# Newton bands; a float64 factor reads about 1e-16, a wrong one about 1
F32_BACKWARD = 8 * np.finfo(np.float32).eps


def band_matrix(rng, n, kl, ku):
    """Random nonsymmetric sparse matrix with kl sub- and ku superdiagonals."""
    offsets = list(range(-kl, ku + 1))
    return sp.diags([rng.standard_normal(n - abs(k)) for k in offsets], offsets,
                    format="csr")


# segments and boxes: at m <= 10 a deep axis is shorter than 7, so stencil
# offsets (dx, dy) and (dx + 1, dy - m + 4) share a band diagonal
GRIDS = ([pytest.param(1, m, id=f"1-{m}") for m in (64, 256)]
         + [pytest.param(2, m, id=f"2-{m}") for m in (8, 9, 10, 12, 17, 33, 65)]
         + [pytest.param(2, m, id=f"2-{m[0]}x{m[1]}") for m in ((9, 13), (17, 21))])


def asymmetric_start(dim, m, segment01, square):
    """Operators and inverse Hessian of a weighted segment or box at a start
    without the symmetries that could hide a transposed stencil."""
    if dim == 1:
        P, sigma = segment01, BoundaryMeasure((Q(1), Q(2)))
        phi = lambda x: bump1(x) + 0.02 * x ** 3   # noqa: E731
    else:
        P, sigma = square, weighted_box(square)
        phi = lambda x, y: bump2(x, y) + 0.01 * x * y ** 2   # noqa: E731
    g = geo.PotentialGrid.build(P, sigma, m, phi=phi)
    return sol.GridOperators(g), sol.evaluate(g).U


class TestJacobian:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_central_differences(self, dim, segment01, square):
        # the closed map x -> r(E x) on the deep values is smooth, so central
        # differences with step eps agree with the band, off the pinned rows
        # and columns, to O(eps^2)
        ops, _ = asymmetric_start(dim, 17, segment01, square)
        g = ops.g
        x = g.phi[(slice(2, -2),) * g.n].ravel()
        g = g.with_phi(sol._close(g, x).reshape(g.shape))

        def r(v):
            return sol.evaluate(g.with_phi(sol._close(g, v).reshape(g.shape))).r.ravel()

        band, kl, ku, scale = ops.jacobian(sol.evaluate(g).U)
        A = from_band(band, kl, ku).toarray()
        eps = 1e-6
        fd = np.empty(A.shape)
        for j in range(x.size):
            e = np.zeros(x.size)
            e[j] = eps
            fd[:, j] = (r(x + e) - r(x - e)) / (2 * eps)
        # the band holds J*E times 2^-e, scale = max|J*E| in [2^(e-1), 2^e),
        # each entry rounded once to float32
        big = np.abs(fd).max()
        assert abs(scale - big) < 1e-6 * big
        fd = np.ldexp(fd, -math.frexp(scale)[1])
        keep = ops.unpinned.astype(bool)
        assert within_one_ulp(A[np.ix_(keep, keep)], fd[np.ix_(keep, keep)],
                              1e-6 * np.abs(fd).max())
        # pinned: zero rows and columns but for max|J*E| on the diagonal
        p = ops.pinned
        assert not A[p][:, keep].any() and not A[keep][:, p].any()
        assert within_one_ulp(A[p, p], np.full(len(p), np.abs(fd).max()),
                              1e-6 * np.abs(fd).max())
        assert np.all((0.5 <= A[p, p]) & (A[p, p] <= 1))


class TestBandedLU:
    @pytest.mark.parametrize("n, kl, ku", [(40, 3, 7), (60, 9, 2), (256, 3, 4)])
    def test_matches_dense_solve(self, n, kl, ku):
        # the solve the solver makes: float64 GMRES preconditioned by the
        # float32 factor
        rng = np.random.default_rng(n + 100 * kl + ku)
        A = band_matrix(rng, n, kl, ku)
        b = rng.standard_normal(n)
        lu = sol._BandedLU(to_band(A, kl, ku).astype(np.float32), kl, ku)
        want = np.linalg.solve(A.toarray(), b)
        x, _ = sol._gmres(lambda v: A @ v, lu.solve, b, 1e-13 * np.linalg.norm(b), 20)
        assert np.abs(x - want).max() <= 1e-9 * np.abs(want).max()
        # the factor's own solve is backward stable in float32
        assert backward_error(A, lu.solve(b), b) <= F32_BACKWARD

    def test_exactly_singular_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(RuntimeError):
            sol._BandedLU(to_band(A, 1, 1).astype(np.float32), 1, 1)

    def test_factor_stays_in_its_mmap(self, square):
        # a copy made by the LAPACK wrapper would put the band back on the
        # heap, where glibc does not return it to the system
        ops, s = box_start(square, 17)
        band, kl, ku, _ = ops.jacobian(s.U)
        assert isinstance(band.base, mmap.mmap) and band.dtype == np.float32
        lu = sol._BandedLU(band, kl, ku)
        assert np.shares_memory(lu.lu, np.frombuffer(band.base, dtype=np.uint8))

    def test_one_blas_thread_inside_and_the_count_restored(self, square, monkeypatch):
        set_threads = sol._openblas_threads()
        if set_threads is None:
            pytest.skip("scipy's LAPACK is not OpenBLAS")

        def count():
            c = set_threads(1)
            set_threads(c)
            return c

        seen = []

        def counted(lapack):
            def call(*args, **kwargs):
                seen.append(count())
                return lapack(*args, **kwargs)
            return call

        monkeypatch.setattr(lapack, "sgbtrf", counted(lapack.sgbtrf))
        monkeypatch.setattr(lapack, "sgbtrs", counted(lapack.sgbtrs))
        ops, s = box_start(square, 17)
        before = set_threads(2)
        try:
            lu = sol._BandedLU(*ops.jacobian(s.U)[:3])
            assert count() == 2
            lu.solve(s.r.ravel())
            assert count() == 2
            with pytest.raises(RuntimeError):
                sol._BandedLU(to_band(sp.csr_matrix(np.ones((2, 2))), 1, 1).astype(np.float32),
                              1, 1)
            assert count() == 2
        finally:
            set_threads(before)
        assert seen == [1, 1, 1]


class TestClosure:
    @pytest.mark.parametrize("m", [9, 17, 65])
    def test_reproduces_cubics_1d(self, m, segment01):
        g = geo.PotentialGrid.build(segment01, unit(segment01), m)
        x = g.axes[0].nodes
        for p in [lambda t: 1 + 0 * t, lambda t: t - 0.3, lambda t: (t - 0.4) ** 2,
                  lambda t: 2 * t ** 3 - t + 5]:
            got = sol._close(g, p(x[2:-2]))
            assert got.shape == (m,)
            assert np.abs(got - p(x)).max() <= 1e-12

    def test_reproduces_bicubics_2d(self, square):
        g = geo.PotentialGrid.build(square, unit(square), (17, 21))
        X, Y = g.node_grids()
        for i in range(4):
            for j in range(4):
                f = (X - 0.3) ** i * (Y + 0.2) ** j
                deep = f[2:-2, 2:-2].ravel()
                assert np.abs(sol._close(g, deep) - f.ravel()).max() <= 1e-12

    @pytest.mark.parametrize("dim, m", [(1, 9), (1, 17), (1, 65), (2, 17), (2, (17, 21))],
                             ids=["1-9", "1-17", "1-65", "2-17", "2-17x21"])
    def test_matches_the_kronecker_closure(self, dim, m, segment01, square):
        # the two differ by the order of the sums only, so by rounding on the
        # scale of |E| |v|: the corner weights of a box sum to about 670 in
        # absolute value, and max|v| alone is no scale there
        P = segment01 if dim == 1 else square
        g = geo.PotentialGrid.build(P, unit(P), m)
        E = closure_by_kron(g)
        for seed in range(5):
            v = np.random.default_rng(seed).standard_normal(E.shape[1])
            assert np.abs(sol._close(g, v) - E @ v).max() <= 1e-15 * (abs(E) @ np.abs(v)).max()


class TestGroupedJacobian:
    @pytest.mark.parametrize("dim, m", GRIDS)
    def test_matches_16_products(self, dim, m, segment01, square):
        ops, U = asymmetric_start(dim, m, segment01, square)
        oracle = pinned_by_products(ops, jacobian_by_16_products(ops, U))
        band, kl, ku, scale = ops.jacobian(U)
        assert (kl, ku) == bandwidths(oracle)
        # deep row-major ordering: the closure reaches 3 deep rows across
        assert max(kl, ku) <= (3 * ops.deep_shape[-1] + 3 if dim == 2 else 3)
        assert band.shape == (2 * kl + ku + 1, oracle.shape[0]) and band.dtype == np.float32
        big = np.abs(oracle.data).max()
        assert abs(scale - big) <= 1e-14 * big
        want = np.ldexp(to_band(oracle, kl, ku), -math.frexp(scale)[1])
        assert within_one_ulp(band, want, 1e-14 * np.abs(want).max())


class TestJacobianProduct:
    @pytest.mark.parametrize("dim, m", GRIDS)
    def test_matches_16_products(self, dim, m, segment01, square):
        # the product differentiates the residual's own code; the pinned J*E
        # by sparse products is its oracle, pinned rows and columns included
        ops, U = asymmetric_start(dim, m, segment01, square)
        oracle = pinned_by_products(ops, jacobian_by_16_products(ops, U))
        scale = ops.jacobian(U)[3]
        rng = np.random.default_rng(oracle.shape[0])
        for _ in range(3):
            v = rng.standard_normal(oracle.shape[0])
            got = ops.jacobian_product(U, v, scale)
            # rounding on the scale of |J*E| |v|, the terms the sums cancel
            bound = 1e-13 * (abs(oracle) @ np.abs(v)).max()
            assert np.abs(got - oracle @ v).max() <= bound
            assert np.all(got[ops.pinned] == scale * v[ops.pinned])
        # a vector on the pinned nodes only: zero off the pinned rows
        v = np.zeros(oracle.shape[0])
        v[ops.pinned] = 1.0
        got = ops.jacobian_product(U, v, scale)
        assert not np.delete(got, ops.pinned).any()


class TestGMRES:
    @staticmethod
    def system(n=60, seed=0):
        rng = np.random.default_rng(seed)
        A = np.eye(n) * 4 + rng.standard_normal((n, n)) / np.sqrt(n)
        return A, rng.standard_normal(n)

    def test_meets_the_tolerance(self):
        A, b = self.system()
        x, its = sol._gmres(lambda v: A @ v, lambda v: v, b, 1e-10, 60)
        assert 1 < its < 60
        assert np.linalg.norm(b - A @ x) <= 1e-10
        assert np.abs(x - np.linalg.solve(A, b)).max() <= 1e-9

    def test_exact_preconditioner_takes_one_iteration(self):
        A, b = self.system()
        x, its = sol._gmres(lambda v: A @ v, lambda v: np.linalg.solve(A, v), b, 1e-10, 20)
        assert its == 1
        assert np.abs(x - np.linalg.solve(A, b)).max() <= 1e-12

    def test_cap_returns_none(self):
        A, b = self.system()
        assert sol._gmres(lambda v: A @ v, lambda v: v, b, 1e-14, 3) == (None, 3)
        assert sol._gmres(lambda v: A @ v, lambda v: v, b, 1e-14, 0) == (None, 0)

    def test_zero_right_side(self):
        A, _ = self.system()
        x, its = sol._gmres(lambda v: A @ v, lambda v: v, np.zeros(len(A)), 1e-10, 20)
        assert its == 0 and not x.any()


def h2_matrix(g, cross=2):
    """The flow's preconditioner matrix from hessian_matrices: sum_ab
    Hess_ab^T W Hess_ab, the mixed term counted `cross` times, then the
    uniform and the weighted ridge."""
    hess = hessian_matrices(g)
    W = sp.diags(g.mesh.interior_weights.ravel())
    M = sum((1 if a == b else cross) * (hess[(a, b)].T @ W @ hess[(a, b)])
            for a in range(g.n) for b in range(a, g.n))
    t = geo.node_weights(g).ravel()
    M = (M + sp.diags(np.full(t.size, 1e-12 * M.diagonal().mean()))).tocsc()
    return (M + sp.diags(1e-10 * M.diagonal().mean() * np.maximum(t, t.max() * 1e-3))).tocsc()


def factored_preconditioner(ops, monkeypatch):
    """ops.preconditioner() and the matrix it handed to splu."""
    seen, real_splu = [], spla.splu

    def splu(A, **kwargs):
        seen.append(A)
        return real_splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", splu)
    lu = ops.preconditioner()
    assert len(seen) == 1
    return lu, seen[0]


H2_GRIDS = pytest.mark.parametrize("dim, m", [(1, 96), (2, 33), (2, (17, 21))],
                                ids=["1-96", "2-33", "2-17x21"])


class TestPreconditioner:
    @H2_GRIDS
    def test_matches_the_kronecker_oracle(self, dim, m, segment01, square, monkeypatch):
        # the stencil sums in another order than the sparse products, so
        # entries agree to rounding; the mirrored planes are exactly symmetric
        ops, _ = asymmetric_start(dim, m, segment01, square)
        _, M = factored_preconditioner(ops, monkeypatch)
        scale = abs(M).max()
        assert abs(M - h2_matrix(ops.g)).max() <= 4 * np.finfo(float).eps * scale
        assert (M != M.T).nnz == 0
        if dim == 2:
            # the check sees a mixed term counted once
            assert abs(M - h2_matrix(ops.g, cross=1)).max() > 4 * np.finfo(float).eps * scale

    @H2_GRIDS
    def test_solve_is_backward_stable(self, dim, m, segment01, square, monkeypatch):
        ops, _ = asymmetric_start(dim, m, segment01, square)
        lu, M = factored_preconditioner(ops, monkeypatch)
        b = np.random.default_rng(ops.t_full.size).standard_normal(ops.t_full.size)
        x = lu.solve(b)
        # ||M x - b|| / (||M|| ||x|| + ||b||) in the sup norm
        norm = abs(M).sum(axis=1).max()
        assert np.abs(M @ x - b).max() <= 1e-14 * (norm * np.abs(x).max() + np.abs(b).max())


class SpsolveLU:
    """Stand-in for _BandedLU that solves with SuperLU through spsolve."""

    def __init__(self, ab, kl, ku):
        self.A = from_band(ab, kl, ku).tocsc()

    def solve(self, b):
        return spla.spsolve(self.A, b)


def box_start(square, m):
    g = geo.PotentialGrid.build(square, weighted_box(square), m, phi=bump2)
    return sol.GridOperators(g), sol.evaluate(g)


def run_from_bump(dim, m, segment01, square):
    if dim == 1:
        return sol.solve(segment01, unit(segment01), m=m, tol=1e-6, phi0=bump1)
    return sol.solve(square, weighted_box(square), m=m, tol=1e-6, phi0=bump2)


class TestNewtonStep:
    @pytest.mark.parametrize("dim, m", [(1, 64), (2, 17), (2, 65)])
    def test_masked_system_matches_products(self, dim, m, segment01, square):
        # the pinned rows and columns are zero but for the diagonal, which
        # holds max|J*E| taken before they are zeroed; the right side is
        # zero there too
        ops, U = asymmetric_start(dim, m, segment01, square)
        JE = jacobian_by_16_products(ops, U) @ closure_by_kron(ops.g)
        band, kl, ku, scale = ops.jacobian(U)
        A = from_band(band, kl, ku).tocsr()
        p = ops.pinned
        keep = np.flatnonzero(ops.unpinned)
        assert not A[p][:, keep].toarray().any() and not A[keep][:, p].toarray().any()
        big = np.abs(JE.data).max()
        assert abs(scale - big) <= 1e-14 * big
        # the band holds J*E times 2^-e, so max|J*E| * 2^-e on the diagonal
        want = np.ldexp(big * np.eye(len(p)), -math.frexp(scale)[1])
        assert within_one_ulp(A[p][:, p].toarray(), want, 1e-14 * want.max())
        assert np.all(sol._newton_rhs(ops, np.ones(A.shape[0]))[p] == 0)

    @pytest.mark.parametrize("m", [17, 33])
    def test_banded_lu_matches_spsolve(self, square, m):
        ops, s = box_start(square, m)
        rhs = sol._newton_rhs(ops, s.r)
        A = pinned_by_products(ops, jacobian_by_16_products(ops, s.U))
        oracle = spla.spsolve(A.tocsc(), rhs)
        # the solve the solver makes: float64 GMRES on the exact product,
        # preconditioned by the float32 factor
        band, kl, ku, scale = ops.jacobian(s.U)
        lu = sol._BandedLU(band, kl, ku)
        x, _ = sol._gmres(lambda v: ops.jacobian_product(s.U, v, scale), lu.solve, rhs,
                          1e-13 * np.linalg.norm(rhs), 20)
        assert np.abs(x - oracle).max() <= 1e-9 * np.abs(oracle).max()
        # the factor's own solve is backward stable in float32, for the
        # band's matrix J*E * 2^-e
        y = lu.solve(rhs)
        assert backward_error(A, y, rhs * 2.0 ** math.frexp(scale)[1]) <= F32_BACKWARD
        # x vanishes at the pinned nodes and solves every other equation
        assert np.all(x[ops.pinned] == 0)
        keep = np.setdiff1d(np.arange(len(x)), ops.pinned)
        lin = jacobian_by_16_products(ops, s.U) @ sol._close(ops.g, x) + s.r.ravel()
        assert np.abs(lin[keep]).max() <= 1e-8 * np.abs(s.r).max()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extent, scale", [("1e-50", 4.175e109), ("1e50", 4.175e-91)])
    def test_band_at_the_ends_of_the_range_fits_float32(self, extent, scale):
        # max|J*E| lies far outside float32 at both ends of the extent range;
        # the band is J*E times a power of two that puts its max in [1/2, 1)
        P, sigma = parse_polytope_text(f"dim 1\nfacets\n1 0\n-1 -{extent}\n")
        ops = sol.GridOperators(geo.PotentialGrid.build(P, sigma, 256))
        band, kl, ku, got = ops.jacobian(sol.evaluate(ops.g).U)
        assert abs(got - scale) <= 1e-3 * scale
        assert np.isfinite(band).all() and np.abs(band).max() <= 1
        diag = band[kl + ku, ops.pinned]
        assert np.all((0.5 <= diag) & (diag <= 1))
        sol._BandedLU(band, kl, ku)     # not exactly singular
        if extent == "1e-50":
            # its one Newton step finds no decrease, as with a float64 band
            rep = sol.solve(P, sigma)
            assert (rep.termination, rep.iterations, rep.factorizations) == ("stalled", 1, 1)
            assert rep.residual_sup == 1.0697793063576476e+39

    def test_step_lands_on_a_closed_iterate(self, square):
        ops, s = box_start(square, 17)
        nxt = sol._newton_step(ops, s, sol._Factor())
        assert nxt is not None
        assert np.abs(nxt.r).max() < 0.5 * np.abs(s.r).max()
        phi = nxt.g.phi
        closed = sol._close(nxt.g, phi[2:-2, 2:-2])
        assert np.abs(closed - phi.ravel()).max() <= 1e-12 * (1 + np.abs(phi).max())

    def test_every_iterate_is_closed(self, square, monkeypatch):
        # solve() closes the start, and each step lands on a closed iterate
        def is_closed(g):
            phi = g.phi
            return (np.abs(sol._close(g, phi[(slice(2, -2),) * g.n]) - phi.ravel()).max()
                    <= 1e-12 * (1 + np.abs(phi).max()))

        seen = []
        newton_step = sol._newton_step

        def checked(ops, s, factor):
            seen.append(is_closed(s.g))
            return newton_step(ops, s, factor)

        monkeypatch.setattr(sol, "_newton_step", checked)
        first = []
        rep = sol.solve(square, weighted_box(square), m=33, tol=1e-6, phi0=bump2,
                        callback=lambda it, s: first.append(s.g) if it == 1 else None)
        assert rep.converged and len(seen) == rep.iterations - 1 >= 2
        assert is_closed(first[0]) and np.abs(first[0].phi).max() > 0.01
        assert all(seen)

    def test_start_whose_closure_is_not_convex_is_refused(self, segment01):
        # phi0 is 0 on the first five nodes and a steep parabola after them:
        # convex, but the cubic through nodes 2 to 5 dives at the outer two
        def phi0(x):
            return 1000 * np.maximum(x - 0.012, 0) ** 2

        g = geo.PotentialGrid.build(segment01, unit(segment01), 64, phi=phi0)
        assert sol.evaluate(g) is not None
        with pytest.raises(geo.ConvexityError):
            sol.solve(segment01, unit(segment01), m=64, phi0=phi0)

    def test_singular_factor_returns_none(self, square, monkeypatch):
        ops, s = box_start(square, 17)

        class Singular:
            def __init__(self, ab, kl, ku):
                raise RuntimeError("exactly singular")

        monkeypatch.setattr(sol, "_BandedLU", Singular)
        assert sol._newton_step(ops, s, sol._Factor()) is None

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

    @pytest.mark.parametrize("dim, m", GRIDS)
    def test_sparse_assembly_takes_the_same_path(self, dim, m, segment01, square,
                                                 monkeypatch):
        # the stencil assembly and the sparse products differ by rounding
        # only, and the band is only the preconditioner of every step, so
        # the solve takes the same steps either way.  A converged phi is
        # itself near rounding level (the box's u0 is the exact solution),
        # so phi is compared on the largest sup|phi| of the run.  The m = 9
        # box stalls where J*E is nearly singular, and there each GMRES
        # solve, accurate to _GMRES_ETA, leaves rounding free to move the
        # step along the near null space: its residuals agree to that
        band = run_from_bump(dim, m, segment01, square)
        monkeypatch.setattr(sol.GridOperators, "jacobian", oracle_jacobian)
        sparse = run_from_bump(dim, m, segment01, square)
        assert (band.termination, band.iterations, band.factorizations) == (
            sparse.termination, sparse.iterations, sparse.factorizations)
        a, b = np.array(band.residual_history), np.array(sparse.residual_history)
        if sparse.converged:
            assert np.all(np.abs(a - b) <= 1e-6 + 1e-9 * b)
            assert (np.abs(band.grid.phi - sparse.grid.phi).max()
                    <= 1e-10 * max(sparse.sup_phi_history))
        else:
            assert np.all(np.abs(a - b) <= sol._GMRES_ETA * b)
        # the m = 9 box stalls; the benchmark's m = 65 box factors once
        if (dim, m) == (2, 9):
            assert (band.termination, band.iterations, band.factorizations) == ("stalled", 5, 2)
        if (dim, m) == (2, 65):
            assert (band.termination, band.iterations, band.factorizations) == ("converged", 5, 1)


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
        def __init__(self, ab, kl, ku):
            alive_at_start.append([r() is not None for r in made])
            made.append(weakref.ref(self))
            super().__init__(ab, kl, ku)

    monkeypatch.setattr(sol, "_BandedLU", Counted)
    return alive_at_start


def exact_newton_step(ops, s, factor):
    """The oracle of _newton_step: a full Newton step in float64, the
    pinned J*E by sparse products factored afresh and solved by spsolve,
    the closed phi moved by E x and projected off the affine gauge.  None
    unless it lowers the sup residual."""
    g = s.g
    A = pinned_by_products(ops, jacobian_by_16_products(ops, s.U)).tocsc()
    x = spla.spsolve(A, sol._newton_rhs(ops, s.r))
    phi_c = sol._close(g, g.phi[(slice(2, -2),) * g.n])
    trial = sol._moved(s, ops.gauge_project(phi_c - g.phi.ravel() + sol._close(g, x),
                                            include_linear=True))
    return trial if trial is not None and np.abs(trial.r).max() < np.abs(s.r).max() else None


class TestFactorReuse:
    @pytest.mark.parametrize("case", ["box-33", "box-65", "criterion-1"])
    def test_matches_refactoring_every_step(self, case, segment01, square, monkeypatch):
        # GMRES preconditioned by one float32 factor is a fast path; exact
        # Newton steps, each refactoring J*E in float64, are the oracle
        if case == "criterion-1":
            def run():
                return sol.solve(segment01, unit(segment01), m=256, tol=1e-5, phi0=bump1)
        else:
            def run():
                return sol.solve(square, weighted_box(square), m=int(case[4:]),
                                 tol=1e-6, phi0=bump2)
        fast = run()
        monkeypatch.setattr(sol, "_newton_step", exact_newton_step)
        slow = run()
        assert fast.converged and slow.converged
        assert fast.factorizations == 1 and slow.factorizations == 0
        a, b = core_hessian(fast.grid), core_hessian(slow.grid)
        assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max()

    def test_a_factor_perturbed_at_float32_rounding_keeps_the_gate(self, segment01,
                                                                  monkeypatch):
        # the factor only preconditions, and GMRES sets each step's
        # accuracy: another float32 rounding of the band (another BLAS, say)
        # must not move the segment off exact Newton steps.  These seeds
        # read at most 3.7e-12; with eta = min(_GMRES_ETA, sup residual)
        # they read up to 1.3e-9 (seed 5)
        def run():
            return sol.solve(segment01, unit(segment01), m=256, tol=1e-5, phi0=bump1)

        jacobian = sol.GridOperators.jacobian
        monkeypatch.setattr(sol, "_newton_step", exact_newton_step)
        exact = core_hessian(run().grid)
        monkeypatch.undo()
        for seed in range(8):
            rng = np.random.default_rng(seed)

            def perturbed(ops, U, dtype=np.float32):
                band, kl, ku, scale = jacobian(ops, U, dtype)
                band *= (1 + 2e-7 * rng.standard_normal(band.shape)).astype(dtype)
                return band, kl, ku, scale

            monkeypatch.setattr(sol.GridOperators, "jacobian", perturbed)
            rep = run()
            assert rep.converged
            assert np.abs(core_hessian(rep.grid) - exact).max() <= 1e-9 * np.abs(exact).max()

    @pytest.mark.parametrize("mesh", [33, 65])
    def test_box_factors_once(self, square, monkeypatch, caplog, mesh):
        made = counted_factors(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="kstab.solver"):
            rep = sol.solve(square, weighted_box(square), m=mesh, tol=1e-6, phi0=bump2)
        assert rep.converged
        assert rep.factorizations == len(made) == 1
        # one debug line per Newton step, saying whether it refactored, and
        # how many GMRES iterations to which tolerance
        steps = [r.getMessage() for r in caplog.records if r.name == "kstab.solver"]
        assert len(steps) == rep.iterations - 1
        assert sum("refactor" in m for m in steps) == rep.factorizations
        assert sum("reuse" in m for m in steps) == len(steps) - rep.factorizations
        # the first step factors, and reports its GMRES iterations too
        assert re.match(rf"newton step: refactor, [1-9]\d* gmres iterations to eta "
                        rf"{sol._GMRES_ETA:.1e}, ", steps[0])
        assert all(re.match(r"newton step: reuse, [1-9]\d* gmres iterations to eta ", m)
                   for m in steps[1:])

    def test_gmres_cap_hit_refactors_and_converges(self, square, monkeypatch, caplog):
        # the m = 65 box's GMRES solves with the first factor take 3, 7, 7
        # and 7 iterations: with a cap of 3 the second and third steps
        # refactor, and GMRES then converges with the fresh factor
        monkeypatch.setattr(sol, "_GMRES_CAP", 3)
        with caplog.at_level(logging.DEBUG, logger="kstab.solver"):
            rep = sol.solve(square, weighted_box(square), m=65, tol=1e-6, phi0=bump2)
        assert rep.converged and rep.factorizations == 3
        steps = [r.getMessage() for r in caplog.records if r.name == "kstab.solver"]
        refactored = [m for m in steps if m.startswith("newton step: refactor, ")]
        assert len(refactored) == rep.factorizations
        # a step that refactored counts the capped iterations too
        assert all(int(m.split()[3]) > 3 for m in refactored[1:])

    def test_float64_factors_once_gmres_fails_with_a_fresh_float32_one(self, square, monkeypatch,
                                                                        caplog):
        # with a cap of 1, GMRES with the first, float32, factor does not
        # converge; the run goes on with float64 factors, with which one
        # GMRES iteration is enough, and refactors whenever the last one is
        # stale
        dtypes = []

        class Counted(sol._BandedLU):
            def __init__(self, ab, kl, ku):
                dtypes.append(ab.dtype)
                super().__init__(ab, kl, ku)

        monkeypatch.setattr(sol, "_BandedLU", Counted)
        monkeypatch.setattr(sol, "_GMRES_CAP", 1)
        with caplog.at_level(logging.DEBUG, logger="kstab.solver"):
            rep = sol.solve(square, weighted_box(square), m=33, tol=1e-6, phi0=bump2)
        assert rep.converged and rep.factorizations == len(dtypes) == rep.iterations
        assert dtypes == [np.float32] + [np.float64] * (len(dtypes) - 1)
        steps = [r.getMessage() for r in caplog.records if r.name == "kstab.solver"]
        assert all(m.startswith("newton step: refactor float64, 2 gmres iterations ")
                   for m in steps)

    def test_a_fresh_band_map_per_factorization(self, square, monkeypatch):
        # with a GMRES cap of 3 the m = 33 box refactors twice after the
        # first step: each factorization maps its own band (0.9 MB), and
        # only once the stale factor, which holds the last band, is dropped
        factors, alive_at_map = [], []

        class Counted(sol._BandedLU):
            def __init__(self, ab, kl, ku):
                factors.append(weakref.ref(self))
                super().__init__(ab, kl, ku)

        def counted_mmap(*args):
            alive_at_map.append([f() is not None for f in factors])
            return mmap.mmap(*args)

        monkeypatch.setattr(sol, "_BandedLU", Counted)
        monkeypatch.setattr(sol, "mmap", types.SimpleNamespace(mmap=counted_mmap))
        monkeypatch.setattr(sol, "_GMRES_CAP", 3)
        rep = sol.solve(square, weighted_box(square), m=33, tol=1e-6, phi0=bump2)
        assert rep.converged and rep.factorizations == 3
        assert len(alive_at_map) == len(factors) == rep.factorizations
        assert not any(any(alive) for alive in alive_at_map)


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

    def test_max_iter_reports_the_returned_iterate(self, square):
        # a run stopped at max-iter returns the iterate it recorded last; one
        # more step returned an unrecorded one (residual_sup 12.88, sup |final.r| 1.40)
        rep = sol.solve(square, weighted_box(square), m=33, max_iter=2, phi0=bump2)
        assert (rep.termination, rep.iterations, len(rep.residual_history)) == ("max-iter", 2, 2)
        assert rep.residual_sup == rep.residual_history[-1] == float(np.abs(rep.final.r).max())
        assert rep.mabuchi_history[-1] == rep.final.F
        assert rep.min_det_history[-1] == float(rep.final.det.min())
        assert rep.grid is rep.final.g

    @pytest.mark.parametrize("weight, termination", [(Q(1), "converged"),
                                                     (Q(1, 4), "divergence-certificate")])
    def test_measures_computed_once_per_grid(self, square, monkeypatch, weight, termination):
        calls = []

        def counted(*args):
            calls.append(args)
            return measures(*args)

        for mod in (geo, stab, sol):
            monkeypatch.setattr(mod, "measures", counted)
        sigma = BoundaryMeasure(tuple(
            weight if f.normal == (-1, 0) else Q(1) for f in square.facets))
        rep = sol.solve(square, sigma, m=25, tol=1e-6, phi0=bump2,
                        require_futaki_zero=False, max_iter=600)
        assert rep.termination == termination and rep.iterations > 1
        # once per solve: the Futaki vector and the first grid's A; every
        # later grid shares its mesh, and with it A
        assert len(calls) == 1

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
        assert rep.converged and rep.factorizations >= 1
        # F falls steeply here, but zero Futaki means a solution exists, so
        # every step is still a Newton step
        rep2 = sol.solve(segment01, unit(segment01), m=128, tol=1e-6,
                         phi0=lambda x: 0.15 * np.sin(np.pi * x) ** 2)
        assert rep2.converged and rep2.factorizations >= 1

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
        # one entry per iteration; a converged run steps in each but the
        # last, and with zero Futaki each step is a Newton step
        assert rep.converged and rep.iterations == n
        assert rep.factorizations >= 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("futaki_zero", [True, False])
    def test_non_finite_start_is_refused(self, square, bad, futaki_zero):
        # a Newton run reads the deep nodes, a flow run every node
        phi0 = np.zeros((29, 29))
        phi0[10, 10] = bad
        sigma = unit(square) if futaki_zero else BoundaryMeasure(tuple(
            Q(1, 4) if f.normal == (-1, 0) else Q(1) for f in square.facets))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="phi0 must be finite"):
                sol.solve(square, sigma, m=29, phi0=phi0, require_futaki_zero=False)

    def test_start_not_finite_on_the_outer_layers_is_closed_off(self, square):
        # a Newton run replaces the outer two layers, so it never reads them
        def phi0(x, y):
            with np.errstate(divide="ignore", invalid="ignore"):
                return 0.01 * x * np.log(x)

        assert not np.isfinite(geo.PotentialGrid.build(square, unit(square), 29,
                                                       phi=phi0).phi).all()
        assert sol.solve(square, unit(square), m=29, tol=1e-6, phi0=phi0).converged

    @pytest.mark.parametrize("shape", [(), (29 * 29,), (28, 29)], ids=["0d", "flat", "28x29"])
    def test_start_of_the_wrong_shape_is_refused(self, square, shape):
        with pytest.raises(ValueError, match=r"phi0 must be a callable or an array of "
                                             r"the mesh's shape \(29, 29\)"):
            sol.solve(square, unit(square), m=29, phi0=np.zeros(shape))

    def test_newton_builds_no_sparse_matrix(self, square, monkeypatch):
        # zero Futaki: the preconditioner and its sparse LU are the flow's
        # alone, so a Newton run makes no Kronecker product and no splu
        def refused(*args, **kwargs):
            raise AssertionError("a Newton run built a flow operator")

        monkeypatch.setattr(sp, "kron", refused)
        monkeypatch.setattr(spla, "splu", refused)
        rep = sol.solve(square, weighted_box(square), m=33, tol=1e-6, phi0=bump2)
        assert rep.converged and rep.factorizations >= 1

    def test_box_polish_ends_in_newton_steps(self, square):
        rep = sol.solve(square, weighted_box(square), m=65, tol=1e-6, phi0=bump2)
        # three steps or more, each a Newton step
        assert rep.converged and rep.iterations - 1 >= 3
        assert rep.factorizations >= 1

    def test_box_m97_converges_quickly(self, square):
        # the damped normal equations took 389 iterations and minutes here;
        # tol = 1e-6 would not imply the 1e-10 Hessian gate below (exact
        # float64 Newton steps can stop at 4.2e-7 with a core error of 3e-10)
        t0 = time.time()
        rep = sol.solve(square, weighted_box(square), m=97, tol=1e-8, phi0=bump2)
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

    def test_box_m97_phi_independent_of_blas_threads(self):
        # with dgbtrf on all cores, phi here depended on the core count
        # (sha256 24b2... with OPENBLAS_NUM_THREADS=1, a55c... with 2)
        if sol._openblas_threads() is None:
            pytest.skip("scipy's LAPACK is not OpenBLAS")
        script = textwrap.dedent("""\
            import hashlib
            import numpy as np
            from kstab.polytope import parse_polytope_text
            from kstab.solver import solve
            P, sigma = parse_polytope_text(
                "dim 2\\nfacets\\n1 0 0 2\\n-1 0 -1 2\\n0 1 0 3\\n0 -1 -1 3\\n")
            rep = solve(P, sigma, m=97, tol=1e-6,
                        phi0=lambda x, y: 0.02 * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2)
            assert rep.converged
            print(hashlib.sha256(rep.grid.phi.tobytes()).hexdigest())
            """)
        src = os.path.dirname(os.path.dirname(sol.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout)
        assert digests[0] == digests[1]


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
        assert rep.iterations > 1 and rep.factorizations == 0

    def test_escape_never_factors(self, square, monkeypatch):
        # nonzero Futaki: the flow is the only path, so the escape never
        # builds a Newton factor (an attempt would raise out of solve)
        class Refused:
            def __init__(self, ab, kl, ku):
                raise AssertionError("an escape run factored the Newton system")

        monkeypatch.setattr(sol, "_BandedLU", Refused)
        sigma = BoundaryMeasure(tuple(
            Q(1, 4) if f.normal == (-1, 0) else Q(1) for f in square.facets))
        rep = sol.solve(square, sigma, m=25, tol=1e-6,
                        require_futaki_zero=False, max_iter=600)
        assert rep.termination == "divergence-certificate"
        assert rep.factorizations == 0

    def test_escape_never_closes(self, square, monkeypatch):
        # the closure is Newton's alone; the flow never extrapolates phi
        def refused(g, deep):
            raise AssertionError("an escape run closed phi")

        monkeypatch.setattr(sol, "_close", refused)
        sigma = BoundaryMeasure(tuple(
            Q(1, 4) if f.normal == (-1, 0) else Q(1) for f in square.facets))
        rep = sol.solve(square, sigma, m=65, tol=1e-6,
                        require_futaki_zero=False, max_iter=600)
        assert rep.termination == "divergence-certificate"

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

    @pytest.mark.parametrize("dim, m, iterations", [(1, 96, 39), (2, 33, 24), (2, 65, 24),
                                                    (2, 97, 25)],
                             ids=["segment-96", "square-33", "square-65", "square-97"])
    def test_escape_counts_and_certificate(self, segment01, square, monkeypatch,
                                           dim, m, iterations):
        # the preconditioner is summed as a stencil, with no Kronecker
        # product; the escape keeps its iteration count, and the direction
        # of its certificate lowers the quadrature L
        def refused(*args, **kwargs):
            raise AssertionError("the flow made a Kronecker product")

        monkeypatch.setattr(sp, "kron", refused)
        if dim == 1:
            P, sigma = segment01, BoundaryMeasure((Q(1), Q(10, 9)))
        else:
            P, sigma = square, BoundaryMeasure(tuple(
                Q(1, 4) if f.normal == (-1, 0) else Q(1) for f in square.facets))
        rep = sol.solve(P, sigma, m=m, tol=1e-6, require_futaki_zero=False, max_iter=800)
        assert rep.termination == "divergence-certificate"
        assert rep.iterations == iterations
        g = geo.PotentialGrid.build(P, sigma, m)
        d = rep.certificate["direction"]
        lq = geo.l_functional_quadrature
        assert lq(g, d) - lq(g, np.zeros_like(d)) < 0


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
        # (f = x^T Q x, bound on the quadrature error of u0's pairing): 10x
        # the measured 7.4e-6 (segment, x^2, m = 256), 4.2e-4 (square, x^2
        # and y^2, m = 33) and 0 (square, xy), so a wrong exact value fails
        cases = [
            (segment01, unit(segment01), [([[1]], 7.4e-5)], 256, bump1),
            (square, unit(square), [([[1, 0], [0, 0]], 4.2e-3), ([[0, 0], [0, 1]], 4.2e-3),
                                    ([[0, Q(1, 2)], [Q(1, 2), 0]], 0.0)], 33, bump2),
        ]
        for P, sigma, qmats, m, phi0 in cases:
            rep = sol.solve(P, sigma, m=m, tol=1e-6, phi0=phi0)
            assert rep.converged
            base = geo.PotentialGrid.build(P, sigma, m)   # exact solution u0
            for qm, bound in qmats:
                got = ibp_pairing(rep.grid, qm)
                boundary, interior = box_quadratic_integrals(P, sigma, qm)
                want = float(boundary - measures(P, sigma).A * interior)
                baseline = abs(ibp_pairing(base, qm) - want)
                assert baseline <= bound
                assert abs(got - want) <= 10 * max(baseline, 1e-7)
