"""Minimization of the toric Mabuchi functional and the Abreu equation.

The functional is F(u) = -int log det(u_ab) dmu + L(u); its L2 gradient at
u = u0 + phi is -(residual) where residual = sum (u^{ab})_{,ab} + A.  Both
come from one evaluation of the potential (evaluate), which computes the
Hessian, its determinant, its inverse and the second divergence once each
and keeps them in the Iterate that the steps, the callback and the report
read.

The Futaki vector decides before the first iteration which question a run
answers, and each answer has one step.  When it vanishes F is convex and
the Abreu equation has a solution, so every iteration is a Newton step on
the residual.  The residual lives on the nodes two layers in, so phi's
two outer layers on each side are closed off as the cubic extrapolation E
of the deep values, geometry's field extension through 4 points
(Guillemin's boundary condition makes phi smooth up to the boundary).
J*E is then square, singular only along the affine gauge, which Newton
pins at n + 1 deep nodes.  On a tensor grid J*E is a 7^n-point stencil
made of the axes' 3-point ones, whose planes are the diagonals of its band
(bandwidths about 3(m - 4) + 3): it is summed, scaled by a power of two,
straight into a fresh float32 LAPACK band and factored there by banded LU
with partial pivoting (sgbtrf) on one OpenBLAS thread, so phi does not
depend on the core count.  Every step solves its system by float64 GMRES
right-preconditioned by the kept factor (Newton-Krylov), applying J*E as
the derivative of the residual's own code (GridOperators.jacobian_product),
and refactors only when that fails (_newton_step).  Affine gauge of phi:
constants are always projected out; linear components only when the
Futaki vector vanishes (they are exactly F-neutral then, and genuine
escape directions otherwise).

When the Futaki vector does not vanish F falls without bound along a
destabilizing ray, and every iteration is a step of the descent flow
phi_dot = residual.  The flow is fourth-order stiff, so the descent
direction is smoothed by an H2-seminorm preconditioner M, the module's only
sparse matrix: a 5^n-point stencil on the nodes summed from Newton's Hessian
taps, exactly symmetric and positive definite, factored on first use by its
one sparse LU in SuperLU's symmetric mode.  At m = 65 (2 cores, medians of
21) building M takes about 3.5 ms and the factor 33 ms, against 11 ms and
78 ms for M summed from Kronecker products (the tests' oracle) and
factored with SuperLU's unsymmetric defaults (COLAMD, partial pivoting).
A run that leaves the phi ceiling while F is still decreasing terminates
with a divergence certificate carrying the normalized escape direction:
that is the numerical footprint of a destabilizing ray.  A step that
finds no acceptable trial, in either regime, ends the run as stalled.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import logging
import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from kstab import geometry as geo
from kstab.polytope import BoundaryMeasure, Polytope, measures
from kstab.stability import _futaki

log = logging.getLogger(__name__)

# a Newton step refactors once GMRES with the kept factor takes more iterations
_GMRES_CAP = 20
# GMRES stops at a residual 2-norm of eta * sup residual, eta = min(this,
# sup residual^2).  A float32 factor leaves GMRES just under that: 1e-2 here
# let the m = 129 box wander for 32 iterations, and min(this, sup residual)
# left the m = 256 segment up to 3.5e-9 off exact Newton steps (4e-12 now)
_GMRES_ETA = 1e-3

# the Newton band is private anonymous memory, faulted in by the kernel in one
# pass (MAP_POPULATE where the platform has it): the planes' strided writes
# would otherwise fault it in one 4 KB page at a time
_BAND_MAP = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)


# -- discrete operators -------------------------------------------------------

def _pair_taps(g: geo.PotentialGrid, inner: bool) -> dict:
    """{(a, b): {taps: coefficient field}} of the tensor stencils D_ab, a <= b.

    Axis e takes d1 or d2 (d1i, d2i if `inner`) for (a == e) + (b == e) =
    1 or 2, else the middle tap 1; a tap is one position per axis.
    """
    orders = [[{1: 1.0}] + [{t: geo._on_axis(T[:, t], g.n, e) for t in range(3)}
                            for T in ((ax.d1i, ax.d2i) if inner else (ax.d1, ax.d2))]
              for e, ax in enumerate(g.axes)]
    out = {}
    for a in range(g.n):
        for b in range(a, g.n):
            out[(a, b)] = {(): 1.0}
            for e in range(g.n):
                out[(a, b)] = {s + (t,): c * v for s, c in out[(a, b)].items()
                               for t, v in orders[e][(a == e) + (b == e)].items()}
    return out


class GridOperators:
    """Quadrature vectors, the affine gauge and each step's operators for a grid.

    Built once per solve with what both steps share; each step makes its
    own operators on first use: the flow its factored preconditioner
    (preconditioner), Newton its stencils and band layout (stencils).
    """

    def __init__(self, g: geo.PotentialGrid):
        self.g = g
        self.t_full = g.mesh.node_weights.ravel()
        self.deep_shape = tuple(m - 4 for m in g.shape)
        # affine basis on nodes (constants first), each coordinate taken from
        # its axis's lower end: far from the origin x itself would make the
        # Gram matrix of the basis singular in floats
        self.affine_basis = np.stack([np.ones(self.t_full.size)]
                                     + [(arr - ax.lo).ravel()
                                        for arr, ax in zip(g.node_grids(), g.axes)], axis=1)
        # the Gram matrices of the affine basis and of the constants, by include_linear
        self.gram = {lin: B.T @ (self.t_full[:, None] * B)
                     for lin, B in ((True, self.affine_basis), (False, self.affine_basis[:, :1]))}
        self._precond = None
        # n + 1 deep nodes that fix the affine gauge of a Newton step
        k = self.deep_shape
        self.pinned = np.array([0, k[0] - 1] if g.n == 1
                               else [0, k[1] - 1, (k[0] - 1) * k[1]])
        self.unpinned = np.ones(int(np.prod(k)))
        self.unpinned[self.pinned] = 0.0

    def gauge_project(self, v: np.ndarray, include_linear: bool) -> np.ndarray:
        """Remove the weighted-L2 best affine (or constant) fit from v."""
        B = self.affine_basis if include_linear else self.affine_basis[:, :1]
        coef = np.linalg.solve(self.gram[include_linear], B.T @ (self.t_full * v))
        return v - B @ coef

    def preconditioner(self):
        """The flow's factored SPD preconditioner, made on first use.

        M = sum_ab Hess_ab^T W Hess_ab, W the interior weights, is a 5^n-point
        stencil on the node grid summed from Newton's Hessian taps
        (_pair_taps): taps s and t of Hess_ab at interior node i give
        c_s W c_t at node i + s of the plane of offset t - s.  Each a <= b is
        summed once, twice weighted off the diagonal; only the planes of
        offset >= 0 are summed, the others are their mirror images, so M is
        exactly symmetric.  A tiny uniform ridge and then a mild one weighted
        by the node quadrature make it SPD, and SuperLU factors it in
        symmetric mode: minimum degree on M + M^T, diagonal pivots.
        """
        if self._precond is None:
            import scipy.sparse as sp
            import scipy.sparse.linalg as spla
            g, n, shape, size = self.g, self.g.n, self.g.shape, self.t_full.size
            offsets = list(itertools.product(range(-2, 3), repeat=n))   # lexicographic

            def plane(d):
                return tuple(k + 2 for k in d)

            def on_grid(d):     # the nodes p with p + d a node
                return tuple(slice(max(-k, 0), m - max(k, 0)) for k, m in zip(d, shape))

            W = g.mesh.interior_weights
            S = np.zeros((5,) * n + shape)     # S[plane(d)][p] = M[p, p + d]
            for (a, b), taps in _pair_taps(g, False).items():
                Wab = W if a == b else 2.0 * W
                for s, cs in taps.items():
                    for t, ct in taps.items():
                        d = tuple(j - i for i, j in zip(s, t))
                        if d >= (0,) * n:      # lexicographic, so offset >= 0
                            S[plane(d)][tuple(slice(i, i + m - 2) for i, m in zip(s, shape))] \
                                += cs * ct * Wab
            live = np.zeros(S.shape, dtype=bool)
            for d in offsets:
                if d > (0,) * n:    # M[p, p - d] = M[p - d, p]
                    neg = tuple(-k for k in d)
                    S[plane(neg)][on_grid(neg)] = S[plane(d)][on_grid(d)]
                live[plane(d)][on_grid(d)] = True
            diag = S[plane((0,) * n)]
            diag += 1e-12 * diag.mean()
            t = self.t_full.reshape(shape)
            diag += 1e-10 * diag.mean() * np.maximum(t, t.max() * 1e-3)
            # row p lists p + d in the lexicographic order of d, so by column;
            # M is symmetric, so its CSR arrays are its CSC arrays
            S, live = S.reshape(-1, size).T, live.reshape(-1, size).T
            strides = [math.prod(shape[e + 1:]) for e in range(n)]
            cols = np.arange(size)[:, None] + np.array(offsets) @ strides
            indptr = np.concatenate(([0], np.cumsum(live.sum(axis=1))))
            M = sp.csc_matrix((S[live], cols[live], indptr), shape=(size, size))
            self._precond = spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                      options={"SymmetricMode": True})
        return self._precond

    @functools.cached_property
    def stencils(self) -> tuple[dict, dict, list, list]:
        """Newton's set-up, made on the first jacobian call.

        _pair_taps of the Hessian and of the second divergence; per axis,
        the folds R[k] of the two rows k at each end, which hold at
        [3 + o, 3 + d] the closure's weight of deep column k + d in node
        k + 2 + o, read from the axis's extension weights; and (offsets,
        band offset, first row, end row) of each plane of J*E with an entry
        off the pinned rows and columns.
        """
        n, k = self.g.n, self.deep_shape
        folds, reach = [], []
        for m, ax in zip(k, self.g.axes):
            R = np.zeros((m, 7, 7))
            R[:, range(1, 6), range(1, 6)] = 1.0
            # outer node j sits at [j - row + 1] in the stencil of deep row
            # `row`, and node i of its sources at column i - row + 1
            for outer, src, coefs in ax.extension[(2, 4)]:
                for j, coef in zip(outer, coefs):
                    for row in range(max(j - 4, 0), min(j, m - 1) + 1):
                        R[row, j - row + 1] = 0.0
                        R[row, j - row + 1, [i - row + 1 for i in src]] = coef
            folds.append({row: R[row] for row in (0, 1, m - 2, m - 1)})
            reach.append(R.any(axis=1).T)
        planes = []
        for d in np.ndindex((7,) * n):
            off = sum((i - 3) * math.prod(k[e + 1:]) for e, i in enumerate(d))
            live = np.array(functools.reduce(np.multiply.outer,
                                             [r[i] for r, i in zip(reach, d)])).ravel()
            cols = self.pinned - off    # the rows whose column is pinned
            live[self.pinned] = live[cols[(cols >= 0) & (cols < live.size)]] = False
            if live.any():
                hit = np.flatnonzero(live)
                planes.append((d, off, hit[0], hit[-1] + 1))
        return _pair_taps(self.g, False), _pair_taps(self.g, True), folds, planes

    def jacobian(self, U: dict, dtype=np.float32) -> tuple[np.ndarray, int, int, float]:
        """(band, kl, ku, scale): the pinned Newton matrix J*E, scaled, in band storage.

        J = d(residual)/d(phi) = -sum_abcd D2I_ab diag(U^{ac} U^{db}) Hess_cd
        = sum_ab D2I_ab K_ab over a <= b, K_ab = sum_cd diag(w_abcd) Hess_cd
        over c <= d: a 3^n-point stencil on the interior lattice, and J a
        5^n-point one on the deep lattice.  Folding the outer columns
        (stencils) gives J*E.  Pinned rows and columns are zeroed, with
        scale = max|J*E| on their diagonal.  The band holds J*E times 2^-e,
        scale in [2^(e-1), 2^e), rounded to dtype as it is summed, so
        max|J*E| = 4.2e109 (a segment of length 1e-50) cannot overflow.  It
        has 2 kl + ku + 1 rows, Fortran order, A[i, j] at [kl + ku + i - j,
        j], in a new private anonymous mmap (_BAND_MAP), pre-faulted in one
        pass: a heap band would raise glibc's mmap threshold above it once
        freed, later bands would come from a heap it does not trim, and a
        solve's peak RSS would grow by 20 %.  RuntimeError if J*E is not
        finite (the products of U overflow), before the band is mapped.
        """
        (hess_taps, div_taps, folds, planes), n, deep = self.stencils, self.g.n, self.deep_shape
        J = np.zeros((7,) * n + deep)
        # one buffer each: a fresh one per term costs more to fault in than the sums
        K = np.empty((3,) * n + tuple(m - 2 for m in self.g.shape))
        KD = np.empty((3,) * n + deep)
        with np.errstate(over="ignore", invalid="ignore"):     # an overflow shows in scale
            for ab, div in div_taps.items():
                K.fill(0.0)
                for cd, hess in hess_taps.items():
                    w = -sum(U[i, k] * U[l, j] for i, j in {ab, ab[::-1]}
                             for k, l in {cd, cd[::-1]})
                    for s, t in hess.items():
                        K[s] += w * t
                for s, t in div.items():
                    np.multiply(K[(slice(None),) * n
                                  + tuple(slice(i, i + m) for i, m in zip(s, deep))], t, out=KD)
                    J[tuple(slice(i + 1, i + 4) for i in s)] += KD
            for e, fold in enumerate(folds):
                Je = np.moveaxis(J, (e, n + e), (0, 1))
                for row, F in fold.items():
                    Je[:, row] = np.tensordot(F, Je[:, row], axes=(0, 0))
        scale = max(J.max(), -J.min())     # nan if J holds one
        if not math.isfinite(scale):
            raise RuntimeError("the Jacobian is not finite")
        J[(slice(None),) * n + np.unravel_index(self.pinned, deep)] = 0.0
        e = math.frexp(scale)[1]
        np.ldexp(J, -e, out=J)      # a power of two: exact but in the subnormals
        kl, ku, size = max(-p[1] for p in planes), max(p[1] for p in planes), self.unpinned.size
        band = np.ndarray((2 * kl + ku + 1, size), dtype=dtype, order="F", buffer=mmap.mmap(
            -1, (2 * kl + ku + 1) * size * np.dtype(dtype).itemsize, _BAND_MAP))
        for d, off, lo, hi in planes:
            # planes that share a diagonal (a deep axis shorter than 7) add
            band[kl + ku - off, lo + off:hi + off] += J[d].ravel()[lo:hi]
        band[kl:, self.pinned] = 0.0
        band[kl + ku, self.pinned] = math.ldexp(scale, -e)
        return band, kl, ku, scale

    def jacobian_product(self, U: dict, v: np.ndarray, scale: float) -> np.ndarray:
        """The pinned J*E (jacobian's matrix) times the deep vector v, flat.

        The derivative of the residual's own code along E v, its pinned
        entries zeroed: dH the difference Hessian of E v, dU = -U dH U,
        and the second divergence of dU.  The pinned rows give scale * v,
        scale the max|J*E| that jacobian returns.  Elementwise
        products and sums only, so no threaded BLAS.
        """
        g, n = self.g, self.g.n
        dH = geo.difference_hessian(g, _close(g, v * self.unpinned).reshape(g.shape))
        dU = {}
        for a in range(n):
            for b in range(a, n):
                dU[(a, b)] = dU[(b, a)] = -sum(U[a, c] * dH[c, d] * U[d, b]
                                               for c in range(n) for d in range(n))
        out = geo.divergence2_field(g, dU).ravel() * self.unpinned
        out[self.pinned] = scale * v[self.pinned]
        return out


def _close(g: geo.PotentialGrid, deep: np.ndarray) -> np.ndarray:
    """The closure E: deep node values (flat or deep-shaped) -> all nodes, flat.

    The deep nodes keep their values; each outer node (two per side) gets
    the cubic Lagrange extrapolation through the 4 nearest deep nodes, so
    cubics, and affine functions in particular, are reproduced.
    """
    deep = deep.reshape(tuple(m - 4 for m in g.shape))
    return geo.extend_interior_field(g, deep, layers=2, points=4).ravel()


@functools.cache
def _openblas_threads():
    """openblas_set_num_threads_local of the OpenBLAS scipy's LAPACK calls, or None.

    dlsym on scipy's LAPACK module also searches the libraries it loaded,
    so this finds the OpenBLAS that the banded LU runs on, not numpy's own
    copy, which exports the same name.  The function sets the thread count
    (for the calling thread in an OpenMP build, for the process in a
    pthreads one) and returns the count it replaces.
    """
    try:
        from scipy.linalg import _flapack
        fn = ctypes.CDLL(_flapack.__file__).openblas_set_num_threads_local
    except (ImportError, AttributeError, OSError):    # not an OpenBLAS build
        return None
    fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
    return fn


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block's LAPACK calls on one OpenBLAS thread, then restore the count.

    Does nothing where scipy's LAPACK is not OpenBLAS.
    """
    set_threads = _openblas_threads()
    if set_threads is None:
        yield
        return
    before = set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


class _BandedLU:
    """LU with partial pivoting of a band matrix, in place (LAPACK sgbtrf,
    or dgbtrf for a float64 band).

    ab is the band as jacobian writes it; the factor overwrites it and
    holds it for as long as the factor lives.  solve rounds b to the band's
    precision and returns float64.  The factor and its solves run on one
    OpenBLAS thread (_one_blas_thread): a second thread made the m = 65
    factor no faster but spun beside it, and changed the rounding of larger
    ones, so phi followed the core count.
    """

    def __init__(self, ab: np.ndarray, kl: int, ku: int):
        from scipy.linalg import lapack
        p = "s" if ab.dtype == np.float32 else "d"
        self.kl, self.ku, self.gbtrs = kl, ku, getattr(lapack, p + "gbtrs")
        with _one_blas_thread():
            self.lu, self.piv, info = getattr(lapack, p + "gbtrf")(ab, kl, ku, overwrite_ab=True)
        if info > 0:
            raise RuntimeError(f"banded LU: U[{info - 1}, {info - 1}] is exactly zero")
        if info < 0:
            raise ValueError(f"{p}gbtrf rejected argument {-info}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        with _one_blas_thread():
            x, info = self.gbtrs(self.lu, self.kl, self.ku, b.astype(self.lu.dtype), self.piv,
                                 overwrite_b=True)
        if info != 0:
            raise ValueError(f"gbtrs rejected argument {-info}")
        return x.astype(np.float64)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> by an elementwise product and numpy's pairwise sum: np.dot
    would go through numpy's own OpenBLAS, whose threads _one_blas_thread
    does not pin, and phi would follow the core count."""
    return float((a * b).sum())


def _gmres(apply, precondition, b: np.ndarray, atol: float, cap: int):
    """Right-preconditioned GMRES for A x = b from x = 0: (x, iterations).

    apply is A and precondition M^-1; the Krylov space is that of A M^-1,
    so the first iterate is the chord step M^-1 b scaled to least residual.
    Arnoldi by modified Gram-Schmidt, the Hessenberg least squares by
    Givens rotations; stops once |b - A x| <= atol in the 2-norm.  Returns
    (None, iterations) if that takes more than cap iterations, or if the
    Hessenberg matrix turns singular.
    """
    beta = math.sqrt(_dot(b, b))
    if beta == 0.0:
        return np.zeros_like(b), 0
    V, Z, R = [b / beta], [], []     # basis, its preconditioned images, columns of R
    cs, sn, res = [], [], [beta]     # rotations; res[-1] is the residual norm
    for j in range(cap):
        Z.append(precondition(V[j]))
        w = apply(Z[j])
        h = []
        for v in V:
            h.append(_dot(w, v))
            w = w - h[-1] * v
        h.append(math.sqrt(_dot(w, w)))
        for i in range(j):
            h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], cs[i] * h[i + 1] - sn[i] * h[i]
        r = math.hypot(h[j], h[j + 1])
        if r == 0.0:    # A M^-1 maps the Krylov space into a smaller one
            return None, j + 1
        cs.append(h[j] / r)
        sn.append(h[j + 1] / r)
        h[j] = r
        R.append(h[:j + 1])
        res.append(-sn[j] * res[j])
        res[j] *= cs[j]
        if abs(res[-1]) <= atol:
            y = [0.0] * (j + 1)
            for i in range(j, -1, -1):
                y[i] = (res[i] - sum(R[k][i] * y[k] for k in range(i + 1, j + 1))) / R[i][i]
            x = y[0] * Z[0]
            for yi, z in zip(y[1:], Z[1:]):
                x += yi * z
            return x, j + 1
        V.append(w / h[j + 1])
    return None, cap


# -- Mabuchi functional -------------------------------------------------------

def mabuchi(g: geo.PotentialGrid, det: np.ndarray) -> float:
    """F(u) = -int log det(u_ab) dmu + L(u) on the grid's quadrature, from
    det = det(u_ab) > 0 on the interior lattice (evaluate's field).

    The log-singular parts (reference potential and boundary-layer log
    terms) are integrated in closed form; the smooth remainders by
    trapezoid; the mesh keeps the log-singular field and its integral.
    """
    # log det ~ -sum log(w ell) near the boundary, so this sum is smooth
    r = np.log(det) + g.mesh.log_singular
    r_full = geo.extend_interior_field(g, r)
    log_det_integral = geo.integrate_nodes(g, r_full) - g.mesh.integral_log_terms
    return -log_det_integral + geo.l_functional_quadrature(g)


# -- solve --------------------------------------------------------------------

@dataclass
class Iterate:
    """One evaluated potential: its grid, and the fields evaluate computed
    once each: the Hessian H, det = det(u_ab) and the inverse U on the
    interior lattice, the second divergence div of U and the residual
    r = div + A two layers in, and the Mabuchi functional F."""
    g: geo.PotentialGrid
    H: dict
    det: np.ndarray
    U: dict
    div: np.ndarray
    r: np.ndarray
    F: float


@dataclass
class SolveReport:
    """A run's outcome; final is its last Iterate (on grid), None if refused."""
    grid: geo.PotentialGrid
    termination: str              # converged | refused-futaki | divergence-certificate | max-iter | stalled
    residual_sup: float
    # iterations evaluated; each took one step (Newton if the Futaki vector
    # is zero, else flow) but the last one
    iterations: int
    mabuchi_history: list[float] = field(default_factory=list)
    residual_history: list[float] = field(default_factory=list)
    min_det_history: list[float] = field(default_factory=list)
    sup_u_history: list[float] = field(default_factory=list)
    sup_phi_history: list[float] = field(default_factory=list)
    futaki: tuple = ()
    certificate: dict | None = None
    factorizations: int = 0       # banded LUs of the Newton system
    final: Iterate | None = None

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


def evaluate(grid: geo.PotentialGrid) -> Iterate:
    """The solver's view of a grid: geo.potential_fields (ConvexityError off
    the convex cone), the residual from div and F from det."""
    H, det, U, div = geo.potential_fields(grid)
    return Iterate(grid, H, det, U, div, geo.abreu_residual_field(grid, div), mabuchi(grid, det))


def _moved(s: Iterate, delta: np.ndarray) -> Iterate | None:
    """The iterate's grid evaluated with phi moved by delta; None off the cone."""
    try:
        return evaluate(s.g.with_phi(s.g.phi + delta.reshape(s.g.shape)))
    except geo.ConvexityError:
        return None


def _flow_step(ops: GridOperators, s: Iterate, dt: float) -> tuple[Iterate | None, float]:
    """Preconditioned gradient descent with Armijo backtracking.

    The step of nonzero-Futaki runs, so only constants are projected out:
    linear components are escape directions there.  Returns the accepted
    iterate (None if no step lowers F) and the next dt.
    """
    grad = np.pad(s.r * ops.t_full.reshape(s.g.shape)[(slice(2, -2),) * s.g.n], 2).ravel()
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


def _newton_rhs(ops: GridOperators, r: np.ndarray) -> np.ndarray:
    """-r with the pinned nodes' equations zeroed (see GridOperators.jacobian)."""
    return -r.ravel() * ops.unpinned


@dataclass
class _Factor:
    """The solver's last banded LU of the pinned J*E system, the max|J*E|
    of its pinned rows, a count, and the dtype of the next band.  The stale
    LU, and with it its band, is dropped before jacobian maps the next band.
    """
    lu: _BandedLU | None = None
    scale: float = 0.0
    count: int = 0
    dtype: type = np.float32


def _newton_line_search(ops: GridOperators, s: Iterate, offset: np.ndarray, x: np.ndarray,
                        sup: float) -> tuple[Iterate | None, float]:
    """(trial, step) for the first step 1, 1/4, 1/16 or 1/64 along the gauge-
    projected offset + E x (x GMRES's deep step, offset = phi_c - phi) whose
    trial lowers the sup residual sup; (None, 1/256) if none does."""
    delta = ops.gauge_project(offset + _close(s.g, x), include_linear=True)
    step = 1.0
    for _ in range(4):
        trial = _moved(s, step * delta)
        if trial is not None and (np.abs(trial.r).max() < sup * (1 - 1e-3 * step)
                                  or np.abs(trial.r).max() < 0.9 * sup):
            return trial, step
        step /= 4
    return None, step


def _newton_step(ops: GridOperators, s: Iterate, factor: _Factor) -> Iterate | None:
    """Newton-Krylov on the closed square system, the step of zero-Futaki runs.

    The iterate is closed (solve() closes the start) and so is every trial.
    Float64 GMRES (_gmres) solves the pinned J*E system, applying the
    current J*E as jacobian_product, preconditioned by the kept factor, to
    a residual 2-norm of eta times the sup residual, eta = min(_GMRES_ETA,
    sup residual^2).  With no factor, or once GMRES with the kept one passes
    _GMRES_CAP iterations or its step finds no acceptable trial, J*E is
    factored afresh and GMRES runs again: in float32 until GMRES fails with
    a fresh float32 factor (as LAPACK's dsgesv falls back to double), then in
    float64.  A step is accepted, from the full step down in quarters, once
    it lowers the sup residual; it adds phi_c - phi, which re-closes phi, and
    is projected off the affine gauge.  None when a fresh factor's step has
    no such trial, or J*E is not finite or its factor exactly singular.
    """
    offset = _close(s.g, s.g.phi[(slice(2, -2),) * s.g.n]) - s.g.phi.ravel()
    sup = float(np.abs(s.r).max())
    rhs = _newton_rhs(ops, s.r)
    eta = min(_GMRES_ETA, sup * sup)
    its = 0
    fresh = factor.lu is None
    for _ in range(3):      # the kept factor, a fresh one, a fresh float64 one
        if fresh:
            factor.lu = None   # unmaps its band before the next one is mapped
            try:    # J*E not finite, or its factor exactly singular
                band, kl, ku, factor.scale = ops.jacobian(s.U, factor.dtype)
                factor.count += 1
                factor.lu = _BandedLU(band, kl, ku)
            except RuntimeError as exc:
                log.debug("newton step: refactor, %s", exc)
                return None
        x, n = _gmres(lambda v: ops.jacobian_product(s.U, v, factor.scale),
                      factor.lu.solve, rhs, eta * sup, _GMRES_CAP)
        its += n
        trial, step = (_newton_line_search(ops, s, offset, x, sup) if x is not None
                       else (None, None))
        if trial is not None or fresh and (x is not None or factor.dtype == np.float64):
            break
        if fresh:
            factor.dtype = np.float64
        fresh = True
    kind = ("refactor" if fresh else "reuse") + ("" if factor.dtype == np.float32 else " float64")
    after = (f"{np.abs(trial.r).max():.3e}, step {step:g}" if trial is not None
             else "no decrease" if step else "gmres did not converge")
    log.debug("newton step: %s, %d gmres iterations to eta %.1e, sup residual %.3e -> %s",
              kind, its, eta, sup, after)
    return trial


def solve(P: Polytope, sigma: BoundaryMeasure, m=None, tol: float = 1e-5,
          max_iter: int = 400, phi0=None, require_futaki_zero: bool = True,
          callback=None) -> SolveReport:
    """Solve the Abreu equation by Newton, or descend the Mabuchi functional.

    The Futaki vector picks the step of every iteration.  On zero-Futaki
    data it is a Newton step, from a start closed first (its two outer
    layers replaced by the extrapolation of its deep values; ConvexityError
    if that leaves the convex cone), solved by GMRES preconditioned with a
    banded factor (_newton_step).  A nonzero Futaki vector is
    refused (no constant-scalar-curvature solution exists) unless
    require_futaki_zero=False, the mode that exhibits divergence
    certificates on destabilized data: there every step is a preconditioned
    flow step, and the run never factors the Newton system.  A step that
    returns no iterate ends the run as stalled.  phi0 may be a callable on
    coordinates or a node array; the default start is the reference
    potential itself (phi = 0).  callback(iteration, iterate) is invoked
    once per iteration with the evaluated Iterate (grid snapshots, progress
    logging).  tol must be finite
    and positive, max_iter at least 1, and phi0 an array of the mesh's
    shape (if not a callable) and finite on the nodes the run reads: all
    of them in a flow run, the deep ones (two or more layers in) in a
    Newton run, which extrapolates the rest (ValueError).
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    meas = measures(P, sigma)      # once: the Futaki vector and the grid's A
    fut = _futaki(meas)
    futaki_zero = all(v == 0 for v in fut)
    if m is None:
        m = 256 if P.dim == 1 else 49
    g = geo.PotentialGrid.build(P, sigma, m, phi=phi0, A=meas.A)
    if g.phi.shape != g.shape:
        raise ValueError(f"phi0 must be a callable or an array of the mesh's shape "
                         f"{g.shape}, got shape {g.phi.shape}")
    if not futaki_zero and require_futaki_zero:
        return SolveReport(g, "refused-futaki", float("inf"), 0, futaki=fut)
    # a Newton run reads the start on the deep nodes only, and closes it
    deep = g.phi[(slice(2, -2),) * g.n]
    if not np.isfinite(deep if futaki_zero else g.phi).all():
        raise ValueError("phi0 must be finite " + ("on the nodes two or more layers in"
                                                   if futaki_zero else "at every node"))
    if futaki_zero:     # Newton's iterates are closed, from the start on
        g.phi = _close(g, deep).reshape(g.shape)
    ops = GridOperators(g)
    diam = math.sqrt(sum(float(hi - lo) ** 2 for lo, hi in P.bounding_box()))
    ceiling = 1e3 * diam * g.A
    g.phi = ops.gauge_project(g.phi.ravel(), include_linear=futaki_zero).reshape(g.shape)
    s = evaluate(g)

    hist_F, hist_r, hist_det, hist_u, hist_phi = [], [], [], [], []
    dt = 1.0
    factor = _Factor()
    termination = "max-iter"
    certificate = None

    for it in range(1, max_iter + 1):      # max_iter >= 1, so it and sup are bound
        sup = float(np.abs(s.r).max())
        hist_F.append(s.F)
        hist_r.append(sup)
        hist_det.append(float(s.det.min()))
        hist_u.append(float(np.abs(s.g.u_values()).max()))
        hist_phi.append(float(np.abs(s.g.phi).max()))
        if callback is not None:
            callback(it, s)
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
        if it == max_iter:      # the run ends on the iterate it has recorded
            break

        if futaki_zero:
            nxt = _newton_step(ops, s, factor)
        else:
            nxt, dt = _flow_step(ops, s, dt)
        if nxt is None:
            termination = "stalled"
            break
        s = nxt

    return SolveReport(s.g, termination, sup, it, hist_F, hist_r, hist_det,
                       hist_u, hist_phi, fut, certificate, factor.count, s)


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
    term is unchanged.  s_max must be finite and positive, and so must every
    sample of F (ValueError; the Hessian overflows when s_max is too large).
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
    with np.errstate(all="ignore"):     # an overflow shows as the F it spoils
        for s in ladder:
            samples.append((s, evaluate(g0.with_phi(s * fvals)).F))
            if not math.isfinite(samples[-1][1]):
                raise ValueError(f"F(u0 + s f) is not finite at s = {s:g}; lower s_max")
    (s1, F1), (s2, F2) = samples[-2], samples[-1]
    return RaySlope((F2 - F1) / (s2 - s1), samples, lval)

