import itertools
import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from kstab import geometry as geo
from kstab.futaki import require_integral
from kstab.polytope import BoundaryMeasure, Polytope, integrate_affine, measures, parse_polytope_text
from kstab.stability import PLConvexFunction, decompose


@pytest.fixture
def segment01():
    return Polytope.from_vertices([(0,), (1,)])


@pytest.fixture
def segment_sym():
    return Polytope.from_vertices([(-1,), (1,)])


@pytest.fixture
def square():
    return Polytope.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture
def trapezoid():
    return Polytope.from_vertices([(0, 0), (2, 0), (1, 1), (0, 1)])


@pytest.fixture
def unstable_hexagon():
    """Zero Futaki vector but an exact destabilizing crease.

    Two facet weights were solved exactly so both centroids coincide; the
    crease max(0, 1/4 - y) then has L = -12193/33088 < 0.
    """
    P = Polytope.from_vertices([(-4, 2), (-1, 0), (3, -1), (4, 0), (2, 4), (-3, 4)])
    wmap = {
        (2, 3): Q(7197, 517),
        (1, 4): Q(1),
        (-1, 1): Q(1),
        (-2, -1): Q(3635, 517),
        (0, -1): Q(1),
        (2, -1): Q(1),
    }
    sigma = BoundaryMeasure(tuple(wmap[f.normal] for f in P.facets))
    return P, sigma


def random_polygon(rng: random.Random, span: int = 8) -> Polytope:
    while True:
        pts = [(Q(rng.randint(-span, span), rng.randint(1, 4)),
                Q(rng.randint(-span, span), rng.randint(1, 4)))
               for _ in range(rng.randint(4, 9))]
        try:
            return Polytope.from_vertices(pts)
        except Exception:
            continue


def random_integral_polygon(rng: random.Random, span: int = 6) -> Polytope:
    while True:
        pts = [(rng.randint(-span, span), rng.randint(-span, span))
               for _ in range(rng.randint(4, 9))]
        try:
            return Polytope.from_vertices(pts)
        except Exception:
            continue


def random_weights(rng: random.Random, P: Polytope) -> BoundaryMeasure:
    return BoundaryMeasure(tuple(Q(rng.randint(1, 9), rng.randint(1, 4))
                                 for _ in P.facets))


def random_unimodular(rng: random.Random):
    while True:
        T = [[rng.randint(-3, 3), rng.randint(-3, 3)],
             [rng.randint(-3, 3), rng.randint(-3, 3)]]
        if abs(T[0][0] * T[1][1] - T[0][1] * T[1][0]) == 1:
            return T


def format_polytope_text(P: Polytope, sigma: BoundaryMeasure | None = None) -> str:
    """Inverse of parse_polytope_text (facets mode, exact)."""
    if sigma is None:
        sigma = BoundaryMeasure.unit(P)
    out = [f"dim {P.dim}", "facets"]
    for f, w in zip(P.facets, sigma.weights):
        out.append(" ".join(str(n) for n in f.normal) + f" {f.offset} {w}")
    return "\n".join(out) + "\n"


def unimodular_image(P, sigma, T, shift, f=None):
    """(T P + shift, its sigma, f o T^{-1}(y - shift)) for unimodular integer T.

    Facet normals and the gradients of f's pieces map by T^{-T}, which keeps
    normals primitive.  The image is read back from its facets text, which
    gives each facet the weight written with its normal.  sigma None is the
    unit measure; the third entry is None when f is.
    """
    n = P.dim
    det = T[0][0] if n == 1 else T[0][0] * T[1][1] - T[0][1] * T[1][0]
    inv_t = [[det]] if n == 1 else [[det * T[1][1], -det * T[1][0]],
                                    [-det * T[0][1], det * T[0][0]]]

    def push(v, b, sign):
        w = tuple(sum(inv_t[i][j] * v[j] for j in range(n)) for i in range(n))
        return w, b + sign * sum(wi * si for wi, si in zip(w, shift))

    sigma = sigma or BoundaryMeasure.unit(P)
    lines = [f"dim {n}", "facets"]
    for fc, w in zip(P.facets, sigma.weights):
        nu, c = push(fc.normal, fc.offset, 1)       # <nu, x> >= c
        lines.append(" ".join(map(str, nu)) + f" {c} {w}")
    PT, sigmaT = parse_polytope_text("\n".join(lines))
    fT = None if f is None else PLConvexFunction(tuple(push(a, b, -1) for a, b in f.pieces))
    return PT, sigmaT, fT


def lattice_points(P: Polytope, k: int = 1):
    """The lattice points of k*P in lexicographic order, row by row (exact)."""
    for prefix, lo, hi in oracle_rows(P, k):
        for y in range(lo, hi + 1):
            yield prefix + (y,)


# -- the per-row scan, kept as the oracle of the lattice sums --------------------

def oracle_rows(P: Polytope, k: int):
    """(prefix, lo, hi) for each nonempty row of kP, one Python step per row.

    The first n-1 coordinates range over the bounding box of kP, and the
    facet tests q*<nu, m> >= k*p, in Python ints, cut the last one to lo..hi.
    """
    ranges = [range(math.ceil(lo * k), math.floor(hi * k) + 1) for lo, hi in P.bounding_box()]
    last = ranges.pop()
    # q*<nu, m> >= k*p  <=>  c*y >= k*p - q*<nu', prefix>  with c = q*nu_n
    tests = [(f.normal[:-1], f.offset.denominator * f.normal[-1], k * f.offset.numerator,
              f.offset.denominator) for f in P.facets]
    for prefix in itertools.product(*ranges):
        lo, hi = last.start, last.stop - 1
        for nu, c, kp, q in tests:
            r = kp - q * sum(a * b for a, b in zip(nu, prefix))
            if c > 0:
                lo = max(lo, -(-r // c))
            elif c < 0:
                hi = min(hi, r // c)
            elif r > 0:
                break               # a facet parallel to the row excludes all of it
            if lo > hi:
                break
        else:
            yield prefix, lo, hi


def oracle_row_sums(P: Polytope, k: int) -> tuple[int, list[int]]:
    """(d_k, the sum of each coordinate) over oracle_rows, each row in closed form."""
    d, sums = 0, [0] * P.dim
    for prefix, lo, hi in oracle_rows(P, k):
        n = hi - lo + 1
        d += n
        sums = [s + v for s, v in zip(sums, (*(c * n for c in prefix), (lo + hi) * n // 2))]
    return d, sums


def oracle_row_weights(P: Polytope, xi, k: int) -> tuple[int, int]:
    """(d_k, w_k) summed over oracle_rows."""
    d, sums = oracle_row_sums(P, k)
    return d, sum(x * s for x, s in zip(xi, sums))


def oracle_ceiling_sum(P: Polytope, f: PLConvexFunction, k: int) -> Q:
    """sum of ceil(k f(m/k)) / (k d_k) over oracle_rows's points, one point at a time.

    With D the common denominator of f's coefficients, D*k*f(m/k) is the
    max of the integers D*(<a_j, m> + k*b_j), so every step is an integer one.
    """
    D = math.lcm(*(c.denominator for a, b in f.pieces for c in (*a, b)))
    pieces = [([int(c * D) for c in a], int(b * D * k)) for a, b in f.pieces]
    total = d = 0
    for prefix, lo, hi in oracle_rows(P, k):
        for y in range(lo, hi + 1):
            m = prefix + (y,)
            total += -(-max(sum(c * x for c, x in zip(a, m)) + b for a, b in pieces) // D)
            d += 1
    return Q(total, k * d)


# -- the stencil route the axis matrices replaced, kept as the test oracle ----
#
# mode "analytic" is the library's route: u0 differentiated in closed form,
# phi by difference stencils.  mode "numeric" differences the node values of
# u = u0 + phi throughout; it is second-order accurate and independent of
# the closed forms, so it checks them.

def oracle_stencils(x):
    """(m-2, 3) arrays of (left, centre, right) first/second difference coefficients."""
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    s = hm + hp
    d1 = np.stack([-hp / (hm * s), (hp - hm) / (hm * hp), hm / (hp * s)], axis=1)
    d2 = np.stack([2 / (hm * s), -2 / (hm * hp), 2 / (hp * s)], axis=1)
    return d1, d2


def apply_stencil(coef, arr, axis):
    arr = np.moveaxis(arr, axis, 0)
    out = (coef[:, 0] * arr[:-2].T + coef[:, 1] * arr[1:-1].T + coef[:, 2] * arr[2:].T).T
    return np.moveaxis(out, 0, axis)


def restrict(arr, skip):
    """Drop the end entries along every axis except `skip`."""
    return arr[tuple(slice(None) if a == skip else slice(1, -1) for a in range(arr.ndim))]


def oracle_hessian_and_gradient(g, mode):
    base = g.phi if mode == "analytic" else g.u_values()
    H, grad = {}, []
    for a, ax in enumerate(g.axes):
        d1, d2 = oracle_stencils(ax.nodes)
        h = restrict(apply_stencil(d2, base, a), a)
        gr = restrict(apply_stencil(d1, base, a), a)
        if mode == "analytic":
            shape = [1] * g.n
            shape[a] = ax.m - 2
            h = h + ax.u0_d2().reshape(shape)
            gr = gr + ax.u0_d1().reshape(shape)
        H[(a, a)] = h
        grad.append(gr)
    if g.n == 2:
        d1x, d1y = (oracle_stencils(ax.nodes)[0] for ax in g.axes)
        H[(0, 1)] = H[(1, 0)] = apply_stencil(d1y, apply_stencil(d1x, base, 0), 1)
    return H, grad


def oracle_divergence2(g, U):
    out = None
    for a, ax in enumerate(g.axes):
        arr = restrict(apply_stencil(oracle_stencils(ax.nodes[1:-1])[1], U[(a, a)], a), a)
        out = arr if out is None else out + arr
    if g.n == 2:
        d1x, d1y = (oracle_stencils(ax.nodes[1:-1])[0] for ax in g.axes)
        out = out + 2 * apply_stencil(d1y, apply_stencil(d1x, U[(0, 1)], 0), 1)
    return out


def numeric_scalar_curvature(g):
    """S = -(1/2) sum (u^{ab})_{,ab} on the depth-2 lattice, by the numeric route."""
    H, _ = oracle_hessian_and_gradient(g, "numeric")
    return -0.5 * oracle_divergence2(g, geo.inverse_hessian_field(H, geo.det_field(H)))


def scalar_curvature_field(g):
    """S = -(1/2) sum (U^{ab})_{,ab} on the depth-2 lattice."""
    return -0.5 * geo.potential_fields(g)[3]


def oracle_csv(rows) -> bytes:
    """CSV bytes of rows (header first) by the row formatter the column
    writer replaced: each field's str, joined by commas, each line ending in CRLF."""
    return "".join(",".join(map(str, row)) + "\r\n" for row in rows).encode()


def count_calls(monkeypatch, module, names):
    """Patch module.name for each name with a wrapper counting its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def uniform_core_mask(g):
    """Depth-2 lattice nodes whose full stencil sits in uniformly spaced mesh.

    On these nodes both differencing stages are genuinely second-order, so
    mesh-convergence ratios are clean; at grading transitions the composed
    stencil error is irregular.
    """
    masks = []
    for ax in g.axes:
        gaps = ax.gaps
        ok = np.zeros(ax.m - 4, dtype=bool)
        for i, j in enumerate(range(2, ax.m - 2)):
            window = gaps[j - 2:j + 2]
            ok[i] = np.allclose(window, window[0], rtol=1e-10)
        masks.append(ok)
    if g.n == 1:
        return masks[0]
    return masks[0][:, None] & masks[1][None, :]


# -- integration-by-parts certificates -----------------------------------------

def box_quadratic_integrals(P, sigma, qmat):
    """Exact (sigma-weighted boundary integral, interior integral) of x^T Q x on a box P."""
    # moments[c][p]: the integral of x_c^p over the box's c-th side
    moments = [[(hi ** (p + 1) - lo ** (p + 1)) / (p + 1) for p in range(3)]
               for lo, hi in P.bounding_box()]

    def integral(moments):
        return sum((Q(qmat[a][b]) * math.prod(m[(c == a) + (c == b)] for c, m in enumerate(moments))
                    for a in range(P.dim) for b in range(P.dim)), Q(0))

    boundary = Q(0)
    for fc, w in zip(P.facets, sigma.weights):
        axis = next(c for c in range(P.dim) if fc.normal[c])
        at = fc.offset * fc.normal[axis]                 # the facet is x_axis = at
        boundary += w * integral(moments[:axis] + [[at ** p for p in range(3)]] + moments[axis + 1:])
    return boundary, integral(moments)


def ibp_pairing(g: geo.PotentialGrid, qmat) -> float:
    """Quadrature value of int sum u^{ab} f_ab dmu for f = x^T Q x (f_ab = 2Q)."""
    U = geo.potential_fields(g)[2]
    n = g.n
    integrand = np.zeros(tuple(ax.m - 2 for ax in g.axes))
    for a in range(n):
        for b in range(n):
            integrand = integrand + U[a, b] * (2.0 * float(qmat[a][b]))
    full = geo.extend_interior_field(g, integrand)
    return geo.integrate_nodes(g, full)


def divergence_pairing(g: geo.PotentialGrid, qmat) -> float:
    """Quadrature value of int sum (u^{ab})_{,ab} f dmu for quadratic f."""
    div = geo.potential_fields(g)[3]
    grids = g.node_grids()
    f = np.zeros(g.shape)
    n = g.n
    for a in range(n):
        for b in range(n):
            f += float(qmat[a][b]) * grids[a] * grids[b]
    full = geo.extend_interior_field(g, div, layers=2)
    return geo.integrate_nodes(g, full * f)


# -- routes the library replaced, kept as test oracles -------------------------

def oracle_boundary_integral(P, sigma, f):
    """Integral of f over the sigma-weighted boundary, facet by facet.

    Each edge is split at every crossing of two pieces' crease lines and f
    is evaluated at the midpoint of each part; this was L's boundary route
    before L integrated each cell over its own facets.
    """
    if P.dim == 1:
        wmap = {fc.normal: w for fc, w in zip(P.facets, sigma.weights)}
        (lo,), (hi,) = P.vertices
        return wmap[(1,)] * f((lo,)) + wmap[(-1,)] * f((hi,))
    total = Q(0)
    verts = P.vertices
    nv = len(verts)
    for k in range(nv):
        p, q = verts[k], verts[(k + 1) % nv]
        d = (q[0] - p[0], q[1] - p[1])
        ell = P.edge_lattice_length(k) * sigma.weights[k]
        ts = {Q(0), Q(1)}
        pieces = f.pieces
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                (ai, bi), (aj, bj) = pieces[i], pieces[j]
                da = tuple(x - y for x, y in zip(ai, aj))
                denom = da[0] * d[0] + da[1] * d[1]
                if denom == 0:
                    continue
                t = -((da[0] * p[0] + da[1] * p[1]) + (bi - bj)) / denom
                if 0 < t < 1:
                    ts.add(t)
        ts = sorted(ts)
        for t0, t1 in zip(ts, ts[1:]):
            tm = (t0 + t1) / 2
            mid = (p[0] + tm * d[0], p[1] + tm * d[1])
            total += ell * (t1 - t0) * f(mid)
    return total


def oracle_L(P, sigma, f):
    """L(f) with the boundary integral of oracle_boundary_integral."""
    interior = sum((integrate_affine(cell, *f.pieces[i]) for i, cell in decompose(P, f)), Q(0))
    return oracle_boundary_integral(P, sigma, f) - measures(P, sigma).A * interior


def oracle_extend_interior_field(g, F, layers=1):
    """The NaN-filled extension loop with its own 3-point Lagrange weights."""
    def lagrange3(x0, x1, x2, x3):
        c1 = (x0 - x2) * (x0 - x3) / ((x1 - x2) * (x1 - x3))
        c2 = (x0 - x1) * (x0 - x3) / ((x2 - x1) * (x2 - x3))
        c3 = (x0 - x1) * (x0 - x2) / ((x3 - x1) * (x3 - x2))
        return c1, c2, c3

    full = np.full(g.shape, np.nan)
    full[(slice(layers, -layers),) * g.n] = F
    for a in range(g.n):
        x = g.axes[a].nodes
        for side in range(2):
            for off in range(layers):
                j = off if side == 0 else g.shape[a] - 1 - off
                base = layers if side == 0 else g.shape[a] - 1 - layers
                step = 1 if side == 0 else -1
                js = [base, base + step, base + 2 * step]
                cs = lagrange3(x[j], x[js[0]], x[js[1]], x[js[2]])
                idx_t = [slice(None)] * g.n
                src = []
                for jj in js:
                    idx_s = idx_t.copy()
                    idx_s[a] = jj
                    src.append(full[tuple(idx_s)])
                idx_t[a] = j
                full[tuple(idx_t)] = cs[0] * src[0] + cs[1] * src[1] + cs[2] * src[2]
    assert not np.isnan(full).any()
    return full


def oracle_filtration_futaki(P, f, k):
    """(sum of ceil(k f(m/k)) / (k d_k), min of f(m/k)), one lattice point at a time.

    f is any callable returning a rational; this is the per-point route the
    row and floor-sum path of filtration_futaki replaced.
    """
    require_integral(P)
    total = d = 0
    minval = None
    for m in (prefix + (y,) for prefix, lo, hi in oracle_rows(P, k) for y in range(lo, hi + 1)):
        val = Q(f(tuple(Q(mi, k) for mi in m)))
        minval = val if minval is None else min(minval, val)
        total += math.ceil(k * val)
        d += 1
    return Q(total, k * d), minval


# -- the separate 1-D and 2-D boundary integrals the loop over facets replaced --

def oracle_boundary_integral_u0_exact(g: geo.PotentialGrid) -> float:
    """Closed-form sigma-weighted boundary integral of u0, one body per dimension."""
    if g.n == 1:
        ax = g.axes[0]
        v_lo, v_hi = ax.u0_end_values()
        return ax.w_lo * v_lo + ax.w_hi * v_hi
    ax0, ax1 = g.axes
    total = 0.0
    # edges where axis 0 is pinned
    for side, w_edge in ((0, ax0.w_lo), (1, ax0.w_hi)):
        k_edge = ax0.u0_end_values()[side]
        total += w_edge * (k_edge * (ax1.hi - ax1.lo) + ax1.integral_u0())
    for side, w_edge in ((0, ax1.w_lo), (1, ax1.w_hi)):
        k_edge = ax1.u0_end_values()[side]
        total += w_edge * (k_edge * (ax0.hi - ax0.lo) + ax0.integral_u0())
    return total


def oracle_boundary_integral_nodes(g: geo.PotentialGrid, values: np.ndarray) -> float:
    """Sigma-weighted boundary trapezoid of a node field, one body per dimension."""
    if g.n == 1:
        ax = g.axes[0]
        return float(ax.w_lo * values[0] + ax.w_hi * values[-1])
    ax0, ax1 = g.axes
    t0, t1 = ax0.trapezoid, ax1.trapezoid
    total = 0.0
    total += ax0.w_lo * float((t1 * values[0, :]).sum())
    total += ax0.w_hi * float((t1 * values[-1, :]).sum())
    total += ax1.w_lo * float((t0 * values[:, 0]).sum())
    total += ax1.w_hi * float((t0 * values[:, -1]).sum())
    return total
