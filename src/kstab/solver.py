"""Minimization of the toric Mabuchi functional and the Abreu equation.

The functional is F(u) = -int log det(u_ab) dmu + L(u); its L2 gradient at
u = u0 + phi is -(residual) where residual = sum (u^{ab})_{,ab} + A.

The Futaki vector decides before the first iteration which question a run
answers, and each answer has one step.  When it vanishes F is convex and
the Abreu equation has a solution, so every iteration is a Newton step on
the residual.  The residual lives on the nodes two layers in, so phi's two
outer layers on each side are closed off as the cubic extrapolation E of
the deep values (Guillemin's boundary condition makes phi smooth up to the
boundary).  J*E is then square, singular only along the affine gauge,
which Newton pins at n + 1 deep nodes.  The pinned system is factored by
banded LU with partial pivoting (LAPACK dgbtrf): in the deep row-major
ordering of a tensor grid its bandwidths l and u are about 3(m - 4) + 3.
There is one band buffer per solve, refilled in place by each
refactorization.
The last factor is kept: from a closed iterate a Newton step first tries
it as a chord step (one dgbtrs, one evaluation), accepted only if it cuts
the sup residual ten-fold, and refactors otherwise.  Affine gauge of phi:
constants are always projected out; linear components only when the
Futaki vector vanishes (they are exactly F-neutral then, and genuine
escape directions otherwise).

When the Futaki vector does not vanish F falls without bound along a
destabilizing ray, and every iteration is a step of the descent flow
phi_dot = residual.  The flow is fourth-order stiff, so the descent
direction is smoothed by an H2-seminorm preconditioner built on the graded
mesh (one sparse LU per solve, made on first use).  A run that leaves the
phi ceiling while F is still decreasing terminates with a divergence
certificate carrying the normalized escape direction: that is the
numerical footprint of a destabilizing ray.  A step that finds no
acceptable trial, in either regime, ends the run as stalled.
"""

from __future__ import annotations

import logging
import math
import mmap
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs

from kstab import geometry as geo
from kstab.polytope import BoundaryMeasure, Polytope, measures
from kstab.stability import futaki_linear

Q = Fraction
log = logging.getLogger(__name__)

# a chord step (the kept factor, the current residual) is accepted only if it
# cuts the sup residual at least this much; a weaker rule stops the box
# polish short of the rounding floor
_CHORD_CUT = 0.1


# -- discrete operators -------------------------------------------------------

def _tensor_second_differences(d1x, d2x, d1y, d2y) -> dict:
    """Second-difference matrices {(a, b): D_ab} on a 2D tensor grid.

    Kronecker products of the axis matrices; an axis that is not
    differenced is restricted to its inner entries.
    """
    rx = sp.eye(*d2x.shape, k=1, format="csr")
    ry = sp.eye(*d2y.shape, k=1, format="csr")
    D = {(0, 0): sp.kron(d2x, ry, format="csr"),
         (1, 1): sp.kron(rx, d2y, format="csr"),
         (0, 1): sp.kron(d1x, d1y, format="csr")}
    D[(1, 0)] = D[(0, 1)]
    return D


class GridOperators:
    """Sparse difference operators and quadrature vectors for a grid.

    The Hessian (nodes -> interior) and the second divergence (interior ->
    two layers in) are assembled from the grid axes' own matrices.
    """

    def __init__(self, g: geo.PotentialGrid):
        self.g = g
        if g.n == 1:
            self.hess = {(0, 0): g.axes[0].d2}
            self.d2i = {(0, 0): g.axes[0].d2i}
        else:
            x, y = g.axes
            self.hess = _tensor_second_differences(x.d1, x.d2, y.d1, y.d2)
            self.d2i = _tensor_second_differences(x.d1i, x.d2i, y.d1i, y.d2i)
        self.t_full = geo.node_weights(g).ravel()
        self.t_int = geo.interior_weights(g).ravel()
        self.n_all = int(np.prod(g.shape))
        self.deep_shape = tuple(m - 4 for m in g.shape)
        self.t_deep = self.t_full.reshape(g.shape)[(slice(2, -2),) * g.n].ravel()
        # affine basis on nodes (constants first)
        grids = g.node_grids()
        basis = [np.ones(self.n_all)]
        for arr in grids:
            basis.append(arr.ravel())
        self.affine_basis = np.stack(basis, axis=1)
        self._precond = None
        # closure: deep values -> all nodes (Guillemin: phi is smooth up to dP)
        E = [_closure_1d(ax.nodes) for ax in g.axes]
        self.closure = E[0] if g.n == 1 else sp.kron(E[0], E[1], format="csr")
        # n + 1 deep nodes that fix the affine gauge of a Newton step
        k = self.deep_shape
        self.pinned = np.array([0, k[0] - 1] if g.n == 1
                               else [0, k[1] - 1, (k[0] - 1) * k[1]])
        self.unpinned = np.ones(int(np.prod(k)))
        self.unpinned[self.pinned] = 0.0

    def gauge_project(self, v: np.ndarray, include_linear: bool) -> np.ndarray:
        """Remove the weighted-L2 best affine (or constant) fit from v."""
        B = self.affine_basis if include_linear else self.affine_basis[:, :1]
        tw = self.t_full
        G = B.T @ (tw[:, None] * B)
        rhs = B.T @ (tw * v)
        coef = np.linalg.solve(G, rhs)
        return v - B @ coef

    def preconditioner(self):
        """Factorized descent preconditioner, made on first use.

        The SPD H2-seminorm operator sum_ab Hess_ab^T W Hess_ab, with a tiny
        uniform ridge and then a mild one weighted by the node quadrature.
        """
        if self._precond is None:
            W = sp.diags(self.t_int)
            M = sum(self.hess[(a, b)].T @ W @ self.hess[(a, b)]
                    for a in range(self.g.n) for b in range(self.g.n))
            M = (M + sp.diags(np.full(self.n_all, 1e-12 * M.diagonal().mean()))).tocsc()
            M = M + sp.diags(1e-10 * M.diagonal().mean()
                             * np.maximum(self.t_full, self.t_full.max() * 1e-3))
            self._precond = spla.splu(M.tocsc())
        return self._precond

    def embed_deep(self, v_deep: np.ndarray) -> np.ndarray:
        full = np.zeros(self.g.shape)
        full[(slice(2, -2),) * self.g.n] = v_deep.reshape(self.deep_shape)
        return full.ravel()

    def jacobian(self, U: dict) -> sp.csr_matrix:
        """d(residual)/d(phi) = -sum_abcd D2I_ab diag(U^{ac} U^{db}) Hess_cd.

        D2I and Hess are symmetric in their index pair, so the sum is taken
        over pairs a <= b and c <= d: J = sum_ab D2I_ab K_ab with K_ab =
        sum_cd diag(w_abcd) Hess_cd, each term a row scaling of Hess_cd's
        CSR data.  That is n(n+1)/2 sparse products in place of n^4.
        """
        pairs = [(a, b) for a in range(self.g.n) for b in range(a, self.g.n)]
        Uv = {k: U[k].ravel() for k in U}
        J = None
        for a, b in pairs:
            K = None
            for c, d in pairs:
                w = -sum(Uv[_key(i, k)] * Uv[_key(l, j)]
                         for i, j in _orderings(a, b) for k, l in _orderings(c, d))
                H = self.hess[(c, d)]
                term = sp.csr_matrix((H.data * np.repeat(w, np.diff(H.indptr)),
                                      H.indices, H.indptr), shape=H.shape)
                K = term if K is None else K + term
            term = self.d2i[(a, b)] @ K
            J = term if J is None else J + term
        return J.tocsr()


def _key(a, b):
    return (min(a, b), max(a, b))


def _orderings(a, b):
    return [(a, b)] if a == b else [(a, b), (b, a)]


def _closure_1d(x: np.ndarray) -> sp.csr_matrix:
    """Sparse (m, m - 4) map from the deep values x[2:-2] to all m nodes.

    The deep nodes map to themselves; each outer node (two per side) gets
    the cubic Lagrange extrapolation through the 4 nearest deep nodes
    (geometry.outer_extrapolation), so cubics, and affine functions in
    particular, are reproduced.
    """
    m = len(x)
    E = np.zeros((m, m - 4))
    E[2:-2] = np.eye(m - 4)
    for j, src, coef in geo.outer_extrapolation(x, 2, 4):
        E[j, [i - 2 for i in src]] = coef
    return sp.csr_matrix(E)


class _BandedLU:
    """LU with partial pivoting of a sparse band matrix (LAPACK dgbtrf).

    The lower and upper bandwidths l and u are read off the sparsity
    pattern.  The band storage (2l+u+1 rows, Fortran order, factored in
    place) is an anonymous mmap, not a numpy heap array: once glibc frees
    the first heap block of this size (16.6 MB at m = 65) its dynamic mmap
    threshold rises above it, every later band comes from the heap, which
    is not trimmed, and the peak RSS of a solve grows by about 20 %.

    A buffer of an earlier factor that is large enough is zeroed and
    refilled in place, which costs about 1 ms at m = 65 where faulting in a
    fresh 16.6 MB map costs about 11 ms; a smaller one is left alone and a
    new map is made.  The earlier factor is overwritten either way.
    """

    def __init__(self, A: sp.spmatrix, buffer: mmap.mmap | None = None):
        A = A.tocsr()
        A.sum_duplicates()
        n = A.shape[0]
        row = np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr))
        off = row - A.indices   # row - column of each stored entry
        self.kl = int(off.max(initial=0))
        self.ku = int(-off.min(initial=0))
        rows = 2 * self.kl + self.ku + 1
        reuse = buffer is not None and len(buffer) >= rows * n * 8
        self.buffer = buffer if reuse else mmap.mmap(-1, rows * n * 8)
        ab = np.ndarray((rows, n), dtype=np.float64, buffer=self.buffer, order="F")
        if reuse:
            # as a fresh map is; dgbtrf leaves the corner of rows 0 .. l-1
            # outside the matrix as it finds it
            ab.fill(0.0)
        ab[self.kl + self.ku + off, A.indices] = A.data
        self.lu, self.piv, info = dgbtrf(ab, self.kl, self.ku, overwrite_ab=True)
        if info > 0:
            raise RuntimeError(f"banded LU: U[{info - 1}, {info - 1}] is exactly zero")
        if info < 0:
            raise ValueError(f"dgbtrf rejected argument {-info}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = dgbtrs(self.lu, self.kl, self.ku, b, self.piv)
        if info != 0:
            raise ValueError(f"dgbtrs rejected argument {-info}")
        return x


# -- Mabuchi functional -------------------------------------------------------

def log_singular_field(g: geo.PotentialGrid) -> np.ndarray:
    """sum_k log(w_k ell_k) at the interior lattice (separable for boxes)."""
    n = g.n
    out = np.zeros(tuple(ax.m - 2 for ax in g.axes))
    for a, ax in enumerate(g.axes):
        x = ax.nodes[1:-1]
        vec = np.log(ax.w_lo * (x - ax.lo)) + np.log(ax.w_hi * (ax.hi - x))
        shape = [1] * n
        shape[a] = len(x)
        out = out + vec.reshape(shape)
    return out


def mabuchi(P: Polytope, sigma: BoundaryMeasure, g: geo.PotentialGrid,
            H: dict | None = None) -> float:
    """F(u) = -int log det(u_ab) dmu + L(u) on the grid's quadrature.

    The log-singular parts (reference potential and boundary-layer log
    terms) are integrated in closed form; the smooth remainders by
    trapezoid.  Raises ConvexityError off the convex cone.
    """
    H = geo.hessian_field(g) if H is None else H
    det = geo.det_field(g, H)
    if (det <= 0).any() or (H[(0, 0)] <= 0).any():
        geo.check_convexity(g, H)
    # log det ~ -sum log(w ell) near the boundary, so this sum is smooth
    r = np.log(det) + log_singular_field(g)
    r_full = geo.extend_interior_field(g, r)
    log_det_integral = geo.integrate_nodes(g, r_full) - geo.integral_log_terms_exact(g)
    return -log_det_integral + geo.l_functional_quadrature(g)


# -- solve --------------------------------------------------------------------

@dataclass
class SolveReport:
    grid: geo.PotentialGrid
    termination: str              # converged | refused-futaki | divergence-certificate | max-iter | stalled
    residual_sup: float
    iterations: int
    mabuchi_history: list[float] = field(default_factory=list)
    residual_history: list[float] = field(default_factory=list)
    min_det_history: list[float] = field(default_factory=list)
    sup_u_history: list[float] = field(default_factory=list)
    sup_phi_history: list[float] = field(default_factory=list)
    # the step each iteration took ("flow" or "newton"); the last iteration,
    # which only tests for termination, takes none
    phase_history: list[str] = field(default_factory=list)
    futaki: tuple = ()
    certificate: dict | None = None
    wall_time: float = 0.0
    factorizations: int = 0       # banded LUs of the Newton system

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


@dataclass
class Iterate:
    """One evaluated potential: grid, Hessian, det, inverse, residual, F."""
    g: geo.PotentialGrid
    H: dict
    det: np.ndarray
    U: dict
    r: np.ndarray
    F: float


def evaluate(P: Polytope, sigma: BoundaryMeasure, grid: geo.PotentialGrid) -> Iterate | None:
    """The solver's view of a grid; None off the convex cone."""
    H = geo.hessian_field(grid)
    det = geo.det_field(grid, H)
    if (det <= 0).any() or (H[(0, 0)] <= 0).any():
        return None
    U = geo.inverse_hessian_field(grid, H)
    r = geo.abreu_residual_field(grid, U)
    return Iterate(grid, H, det, U, r, mabuchi(P, sigma, grid, H))


def _moved(s: Iterate, delta: np.ndarray) -> Iterate | None:
    """Evaluate the iterate's grid with phi moved by the node vector delta."""
    g = s.g
    return evaluate(g.P, g.sigma, g.with_phi(g.phi + delta.reshape(g.shape)))


def _flow_step(ops: GridOperators, s: Iterate, dt: float) -> tuple[Iterate | None, float]:
    """Preconditioned gradient descent with Armijo backtracking.

    The step of nonzero-Futaki runs, so only constants are projected out:
    linear components are escape directions there.  Returns the accepted
    iterate (None if no step lowers F) and the next dt.
    """
    grad = ops.embed_deep(s.r.ravel() * ops.t_deep)
    d = ops.preconditioner().solve(grad)
    d = ops.gauge_project(d, include_linear=False)
    dd = float(grad @ d)   # = <dF-direction, d>; positive for descent
    if dd <= 0:
        return None, dt
    dsup = float(np.abs(d).max())
    # cap the per-step movement so escape rays grow geometrically,
    # not in one jump (keeps the certificate history meaningful)
    dt = min(dt, 4.0 * (1.0 + float(np.abs(s.g.phi).max())) / max(dsup, 1e-300))
    for _ in range(40):
        trial = _moved(s, dt * d)
        if trial is not None and trial.F <= s.F - 1e-4 * dt * dd:
            return trial, min(dt * 1.3, 1e12)
        dt /= 2
    return None, dt


def _newton_system(ops: GridOperators, J: sp.csr_matrix,
                   r: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
    """The closed Newton system J*E x = -r with the affine gauge pinned.

    J*E is square on the deep nodes, singular only along the n + 1 affine
    directions.  The pinned nodes' rows and columns are zeroed, with
    max|J*E| on their diagonal and 0 on the right-hand side, so x vanishes
    there and the matrix keeps the band of the deep row-major ordering
    (l and u about 3(m - 4) + 3).
    """
    A = (J @ ops.closure).tocsr()
    scale = float(np.abs(A.data).max())
    row = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    A.data *= ops.unpinned[row] * ops.unpinned[A.indices]
    # the sum drops the zeroed entries: the same CSR matrix as the products
    # diag(unpinned) @ A @ diag(unpinned), for less time
    return A + sp.diags(scale * (1.0 - ops.unpinned), format="csr"), _newton_rhs(ops, r)


def _newton_rhs(ops: GridOperators, r: np.ndarray) -> np.ndarray:
    """-r with the pinned nodes' equations zeroed (see _newton_system)."""
    return -r.ravel() * ops.unpinned


@dataclass
class _Factor:
    """The solver's last banded LU of the pinned J*E system, its band
    buffer, and a count.

    Newton steps from a closed iterate try the LU as a chord step before
    they refactor.  The stale LU is dropped before a new Jacobian is
    assembled, and every refactorization refills the one band buffer of
    the solve in place (a new one is mapped only if the band grows).
    """
    lu: _BandedLU | None = None
    buffer: mmap.mmap | None = None
    count: int = 0


def _newton_step(ops: GridOperators, s: Iterate,
                 factor: _Factor | None = None) -> Iterate | None:
    """Newton on the closed square system, the step of zero-Futaki runs.

    From a closed iterate with a kept factor, the chord step (that factor
    applied to the current residual) is taken first, and accepted at full
    length if it cuts the sup residual by _CHORD_CUT.  Otherwise the
    iterate is closed (its two outer layers replaced by the extrapolation
    of its deep values; iterates that came from a full Newton step already
    are), the pinned J*E system is factored afresh and kept in `factor`,
    and the step is accepted, from the full step down in quarters, once it
    lowers the sup residual.  The affine gauge is projected out of every
    step.  Returns None when no trial does, when the factor is exactly
    singular, or when the closed iterate leaves the convex cone.
    """
    factor = _Factor() if factor is None else factor
    phi = s.g.phi.ravel()
    phi_c = ops.closure @ phi.reshape(s.g.shape)[(slice(2, -2),) * s.g.n].ravel()
    closed = np.abs(phi_c - phi).max() <= 1e-12 * (1.0 + np.abs(phi).max())
    sup = float(np.abs(s.r).max())
    if closed and factor.lu is not None:
        x = factor.lu.solve(_newton_rhs(ops, s.r))
        trial = _moved(s, ops.gauge_project((phi_c - phi) + ops.closure @ x,
                                            include_linear=True))
        if trial is not None and np.abs(trial.r).max() <= _CHORD_CUT * sup:
            log.debug("newton step: reuse, sup residual %.3e -> %.3e, step 1",
                      sup, np.abs(trial.r).max())
            return trial
    factor.lu = None   # the refactorization below overwrites its band
    base = s
    if not closed:
        base = _moved(s, phi_c - phi)
        if base is None:
            log.debug("newton step: the closed iterate leaves the convex cone")
            return None
    A, rhs = _newton_system(ops, ops.jacobian(base.U), base.r)
    factor.count += 1
    try:
        factor.lu = _BandedLU(A, factor.buffer)
    except RuntimeError:
        log.debug("newton step: refactor, exactly singular")
        return None
    factor.buffer = factor.lu.buffer
    delta = (phi_c - phi) + ops.closure @ factor.lu.solve(rhs)
    delta = ops.gauge_project(delta, include_linear=True)
    step = 1.0
    for _ in range(4):
        trial = _moved(s, step * delta)
        if trial is not None and (np.abs(trial.r).max() < sup * (1 - 1e-3 * step)
                                  or np.abs(trial.r).max() < 0.9 * sup):
            log.debug("newton step: refactor, sup residual %.3e -> %.3e, step %g",
                      sup, np.abs(trial.r).max(), step)
            return trial
        step /= 4
    log.debug("newton step: refactor, sup residual %.3e -> no decrease", sup)
    return None


def solve(P: Polytope, sigma: BoundaryMeasure, m=None, tol: float = 1e-5,
          max_iter: int = 400, phi0=None, require_futaki_zero: bool = True,
          callback=None) -> SolveReport:
    """Solve the Abreu equation by Newton, or descend the Mabuchi functional.

    The Futaki vector picks the step of every iteration.  On zero-Futaki
    data it is a Newton step, reusing the last banded LU factor as a chord
    step while that cuts the residual ten-fold.  A nonzero Futaki vector is
    refused (no constant-scalar-curvature solution exists) unless
    require_futaki_zero=False, the mode that exhibits divergence
    certificates on destabilized data: there every step is a preconditioned
    flow step, and the run never factors the Newton system.  A step that
    returns no iterate ends the run as stalled.  phi0 may be a callable on
    coordinates or a node array; the default start is the reference
    potential itself (phi = 0).  callback(iteration, grid) is invoked once
    per iteration (grid snapshots, progress logging).  tol must be finite
    and positive and max_iter at least 1 (ValueError).
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    t_start = time.time()
    fut = futaki_linear(P, sigma)
    futaki_zero = all(v == 0 for v in fut)
    if m is None:
        m = 256 if P.dim == 1 else 49
    g = geo.PotentialGrid.build(P, sigma, m, phi=phi0)
    if not futaki_zero and require_futaki_zero:
        report = SolveReport(g, "refused-futaki", float("inf"), 0, futaki=fut)
        report.wall_time = time.time() - t_start
        return report
    ops = GridOperators(g)
    diam = math.sqrt(sum(float(hi - lo) ** 2 for lo, hi in P.bounding_box()))
    ceiling = 1e3 * diam * g.A
    g.phi = ops.gauge_project(g.phi.ravel(), include_linear=futaki_zero).reshape(g.shape)
    s = evaluate(P, sigma, g)
    if s is None:
        geo.check_convexity(g)

    hist_F, hist_r, hist_det, hist_u, hist_phi = [], [], [], [], []
    phases = []
    dt = 1.0
    factor = _Factor()
    termination = "max-iter"
    certificate = None
    it = 0
    sup = float("inf")

    for it in range(1, max_iter + 1):
        sup = float(np.abs(s.r).max())
        hist_F.append(s.F)
        hist_r.append(sup)
        hist_det.append(float(s.det.min()))
        hist_u.append(float(np.abs(s.g.u_values()).max()))
        hist_phi.append(float(np.abs(s.g.phi).max()))
        if callback is not None:
            callback(it, s.g)
        if sup < tol:
            termination = "converged"
            break
        if hist_phi[-1] > ceiling:
            window = hist_F[-8:]
            if len(window) >= 2 and window[-1] < window[0]:
                termination = "divergence-certificate"
                mloc = np.unravel_index(np.argmin(s.det), s.det.shape)
                certificate = {
                    "message": "phi ceiling exceeded while F still decreasing; "
                               "the normalized direction is a destabilizer candidate",
                    "direction": s.g.phi / max(hist_phi[-1], 1e-300),
                    "recent_F": window,
                    "min_det": float(s.det.min()),
                    "min_det_location": tuple(float(s.g.axes[a].nodes[i + 1])
                                              for a, i in enumerate(mloc)),
                }
            else:
                termination = "stalled"
            break

        if futaki_zero:
            nxt = _newton_step(ops, s, factor)
        else:
            nxt, dt = _flow_step(ops, s, dt)
        if nxt is None:
            termination = "stalled"
            break
        phases.append("newton" if futaki_zero else "flow")
        s = nxt
    else:
        it = max_iter

    report = SolveReport(s.g, termination, sup, it, hist_F, hist_r, hist_det,
                         hist_u, hist_phi, phases, fut, certificate,
                         factorizations=factor.count)
    report.wall_time = time.time() - t_start
    return report


# -- instability ray ----------------------------------------------------------

@dataclass
class RaySlope:
    slope: float
    samples: list[tuple[float, float]]
    l_value: float        # quadrature L of the ray direction


def ray_slope(P: Polytope, sigma: BoundaryMeasure, f_tilde, s_max: float = 1e3,
              m=None) -> RaySlope:
    """Fit the asymptotic slope of s -> F(u0 + s f) on a geometric ladder.

    F is sampled at the nine points s_max / 2^j, j = 8, ..., 0, and the
    slope is the secant through the last two.  For convex f the slope tends
    to L(f); linear f gives exactly L(f) at every s because the Hessian
    term is unchanged.  s_max must be finite and positive (ValueError).
    """
    if not 0 < s_max < math.inf:
        raise ValueError(f"s_max must be finite and positive, got {s_max!r}")
    if m is None:
        m = 257 if P.dim == 1 else 49
    g0 = geo.PotentialGrid.build(P, sigma, m)
    fvals = geo._phi_array(g0, f_tilde)
    lval = geo.l_functional_quadrature(g0, fvals) - geo.l_functional_quadrature(
        g0, np.zeros_like(fvals))
    ladder = [s_max / 2.0 ** j for j in range(8, -1, -1)]
    samples = []
    for s in ladder:
        gs = g0.with_phi(s * fvals)
        samples.append((s, mabuchi(P, sigma, gs)))
    (s1, F1), (s2, F2) = samples[-2], samples[-1]
    return RaySlope((F2 - F1) / (s2 - s1), samples, lval)


# -- integration-by-parts certificates ---------------------------------------

def quadratic_l_exact(P: Polytope, sigma: BoundaryMeasure, qmat, lin, const) -> Q:
    """Exact L of the quadratic x^T Q x + lin.x + const on a box polytope."""
    if not P.is_box():
        raise NotImplementedError("exact quadratic L implemented for boxes")
    box = P.bounding_box()
    n = P.dim
    qmat = [[Q(qmat[a][b]) for b in range(n)] for a in range(n)]
    lin = [Q(v) for v in lin]
    const = Q(const)

    def mono1(lo, hi, p):
        # integral of t^p over [lo, hi]
        return (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)

    def integral_over_box(expr):
        # expr: dict {(p1,..,pn): coeff} of monomials
        total = Q(0)
        for powers, cf in expr.items():
            val = cf
            for (lo, hi), p in zip(box, powers):
                val *= mono1(lo, hi, p)
            total += val
        return total

    expr = {}
    for a in range(n):
        for b in range(n):
            pw = [0] * n
            pw[a] += 1
            pw[b] += 1
            expr[tuple(pw)] = expr.get(tuple(pw), Q(0)) + qmat[a][b]
    for a in range(n):
        pw = [0] * n
        pw[a] = 1
        expr[tuple(pw)] = expr.get(tuple(pw), Q(0)) + lin[a]
    expr[(0,) * n] = expr.get((0,) * n, Q(0)) + const

    interior = integral_over_box(expr)
    # boundary: per facet, pin one coordinate and integrate the rest
    boundary = Q(0)
    for f, w in zip(P.facets, sigma.weights):
        axis = next(a for a in range(n) if f.normal[a] != 0)
        pinned = box[axis][0] if f.normal[axis] == 1 else box[axis][1]
        total = Q(0)
        for powers, cf in expr.items():
            val = cf * pinned ** powers[axis]
            for a in range(n):
                if a != axis:
                    val *= mono1(box[a][0], box[a][1], powers[a])
            total += val
        boundary += w * total
    mm = measures(P, sigma)
    return boundary - mm.A * interior


def ibp_pairing(g: geo.PotentialGrid, qmat) -> float:
    """Quadrature value of int sum u^{ab} f_ab dmu for f = x^T Q x (f_ab = 2Q)."""
    U = geo.inverse_hessian_field(g)
    n = g.n
    integrand = np.zeros(tuple(ax.m - 2 for ax in g.axes))
    for a in range(n):
        for b in range(n):
            integrand = integrand + U[_key(a, b)] * (2.0 * float(qmat[a][b]))
    full = geo.extend_interior_field(g, integrand)
    return geo.integrate_nodes(g, full)


def divergence_pairing(g: geo.PotentialGrid, qmat) -> float:
    """Quadrature value of int sum (u^{ab})_{,ab} f dmu for quadratic f."""
    div = geo.divergence2_field(g)
    grids = g.node_grids()
    f = np.zeros(g.shape)
    n = g.n
    for a in range(n):
        for b in range(n):
            f += float(qmat[a][b]) * grids[a] * grids[b]
    full = geo.extend_interior_field(g, div, layers=2)
    return geo.integrate_nodes(g, full * f)
