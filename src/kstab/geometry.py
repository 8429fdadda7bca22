"""Symplectic potentials on graded tensor meshes and the Abreu operator.

A potential is u = u0 + phi where u0 is the reference with the canonical
boundary behaviour (ell/w) log ell summed over facets (sigma-weights divide
the defining functions) and phi is smooth up to the boundary.  u0 is
differentiated analytically; phi by centred finite differences on a mesh
whose nodes crowd geometrically toward each facet (gap ratio
GRADING_RATIO).  This is the only route: differencing u0 as well would add
its truncation error next to the logarithmic singularities.  Meshes are
tensor products, so the solvable domains are segments and axis-aligned
boxes.

Grid layout: node arrays have shape (m1,) or (m1, m2) including boundary
nodes.  Hessian data lives on the interior lattice (one layer in); the
scalar curvature field lives two layers in, matching the stencil depth.
Field functions take the fields they read; potential_fields runs each once
per potential, and grid_dump_rows writes grid.csv from its det and div.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from kstab.polytope import BoundaryMeasure, Polytope, is_delzant, measures


class ConvexityError(ValueError):
    """Hessian not positive definite at some node; carries the location."""

    def __init__(self, point, detail=""):
        self.point = tuple(float(v) for v in point)
        super().__init__(f"convexity violated near {self.point} {detail}".rstrip())


class UnsupportedPolytopeError(ValueError):
    pass


# ratio of neighbouring gaps in the graded layers next to each facet
GRADING_RATIO = 1.15


def graded_nodes(lo: float, hi: float, m: int) -> np.ndarray:
    """m nodes on [lo, hi] with gaps shrinking geometrically toward both ends.

    The number of graded layers is chosen so the coarsest/finest gap ratio
    is about m/4, keeping the finest gap well above the square root of
    machine precision for second differences.
    """
    if m < 8:
        raise ValueError("need at least 8 nodes per axis")
    G = m - 1
    J = int(round(math.log(max(m / 4.0, 2.0)) / math.log(GRADING_RATIO)))
    # keep a genuine uniform core: at most a quarter of the gaps graded per side
    J = max(1, min(J, G // 4, (G - 2) // 2))
    expo = np.minimum(np.minimum(np.arange(G), G - 1 - np.arange(G)), J)
    gaps = GRADING_RATIO ** (expo.astype(float))
    gaps *= (hi - lo) / gaps.sum()
    nodes = np.empty(m)
    nodes[0] = lo
    np.cumsum(gaps, out=nodes[1:])
    nodes[1:] += lo
    nodes[-1] = hi
    return nodes


@dataclass
class Axis1D:
    """One mesh axis: nodes, gaps, trapezoid weights, difference taps."""

    nodes: np.ndarray
    lo: float
    hi: float
    w_lo: float   # sigma-weight of the facet at lo
    w_hi: float

    def __post_init__(self):
        x = self.nodes
        self.m = len(x)
        self.gaps = np.diff(x)
        w = np.zeros(self.m)
        w[:-1] += self.gaps / 2
        w[1:] += self.gaps / 2
        self.trapezoid = w
        # nodes -> interior (d1, d2) and interior -> two layers in (d1i, d2i)
        self.d1, self.d2 = _stencils(x)
        self.d1i, self.d2i = _stencils(x[1:-1])
        # extend_interior_field's weights by (layers, points)
        self.extension = {lp: outer_extrapolation(x, *lp) for lp in ((1, 3), (2, 3), (2, 4))}

    # analytic reference potential (ell/w) log ell for the two end facets
    def u0(self) -> np.ndarray:
        a = self.nodes - self.lo
        b = self.hi - self.nodes
        out = np.zeros(self.m)
        pos = a > 0
        out[pos] += a[pos] * np.log(a[pos]) / self.w_lo
        pos = b > 0
        out[pos] += b[pos] * np.log(b[pos]) / self.w_hi
        return out

    def u0_d1(self) -> np.ndarray:
        """First derivative at interior nodes."""
        a = self.nodes[1:-1] - self.lo
        b = self.hi - self.nodes[1:-1]
        return (np.log(a) + 1) / self.w_lo - (np.log(b) + 1) / self.w_hi

    def u0_d2(self) -> np.ndarray:
        """Second derivative at interior nodes (positive)."""
        a = self.nodes[1:-1] - self.lo
        b = self.hi - self.nodes[1:-1]
        return 1.0 / (self.w_lo * a) + 1.0 / (self.w_hi * b)

    # closed forms for the quadrature of the singular parts
    def integral_u0(self) -> float:
        """Integral of (ell/w) log ell terms over the axis."""
        lam = self.hi - self.lo
        one = lam * lam * (2 * math.log(lam) - 1) / 4
        return one / self.w_lo + one / self.w_hi

    def integral_log_terms(self) -> float:
        """Integral of log(w_lo ell_lo) + log(w_hi ell_hi) over the axis."""
        lam = self.hi - self.lo
        return (lam * (math.log(self.w_lo * lam) - 1)
                + lam * (math.log(self.w_hi * lam) - 1))

    def u0_end_values(self) -> tuple[float, float]:
        """u0 of this axis evaluated at lo and hi (the own term vanishes)."""
        lam = self.hi - self.lo
        return (lam * math.log(lam) / self.w_hi, lam * math.log(lam) / self.w_lo)


def _stencils(x: np.ndarray):
    """Non-uniform centred 3-point first/second difference taps.

    Returns (d1, d2), each (len(x) - 2, 3): row i weighs the values at x[i],
    x[i + 1] and x[i + 2] into the derivative at x[i + 1]; exact on quadratics.
    """
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    s = hm + hp
    return (np.stack([-hp / (hm * s), (hp - hm) / (hm * hp), hm / (hp * s)], axis=1),
            np.stack([2 / (hm * s), -2 / (hm * hp), 2 / (hp * s)], axis=1))


def _taps(T: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    """Taps T, (k, 3), along `axis` of arr, summed left to right as a CSR product
    sums them: bitwise alike (but a sum of three -0 products is -0, not +0)."""
    k = len(T)
    c = T.reshape((k,) + (1,) * (arr.ndim - 1 - axis) + (3,))     # broadcast on later axes
    x = [arr[(slice(None),) * axis + (slice(t, t + k),)] for t in range(3)]
    return c[..., 0] * x[0] + c[..., 1] * x[1] + c[..., 2] * x[2]


def _along(T: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    """Axis taps T applied along `axis` of a 1D or 2D grid array.

    The other axis loses its two end entries, so a node array maps to the
    interior lattice and an interior array to the one two layers in.
    Results are C-ordered, so sums over them run in the usual order.
    """
    return _taps(T, arr[tuple(slice(None) if a == axis else slice(1, -1)
                              for a in range(arr.ndim))], axis)


def _mixed(Tx: np.ndarray, Ty: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Tx along axis 0, then Ty along axis 1 (the cross difference)."""
    return _taps(Ty, _taps(Tx, arr, 0), 1)


def _on_axis(vec: np.ndarray, n: int, axis: int) -> np.ndarray:
    """A per-axis vector shaped to broadcast along `axis` of an n-D grid."""
    return vec.reshape([-1 if a == axis else 1 for a in range(n)])


# the extents hi - lo (in floats) a mesh axis accepts: beyond them the cubes
# of the mesh gaps in the extrapolation weights, or the closed-form integrals
# of u0 (extent^3 log(extent) on a box), leave the float range
EXTENT_RANGE = (1e-50, 1e50)


def _box_axes(P: Polytope, sigma: BoundaryMeasure) -> list[tuple[float, float, float, float]]:
    """(lo, hi, w_lo, w_hi) per axis for a product-of-intervals polytope.

    UnsupportedPolytopeError unless every extent lies in EXTENT_RANGE and
    every facet weight is a normal float (the solver divides by them).
    """
    if not P.is_box():
        raise UnsupportedPolytopeError(
            "mesh construction supports products of intervals (segments and "
            "axis-aligned boxes); general polygons are out of the solver's scope")
    box = P.bounding_box()
    out = []
    for a, (lo, hi) in enumerate(box):
        try:
            lo, hi = float(lo), float(hi)
        except OverflowError:
            raise UnsupportedPolytopeError(
                f"axis {a + 1}: an end of the box exceeds the float range") from None
        if not EXTENT_RANGE[0] <= hi - lo <= EXTENT_RANGE[1]:
            raise UnsupportedPolytopeError(
                f"axis {a + 1}: the extent {hi - lo:.3g} (in floats) is outside the "
                f"solver's range [{EXTENT_RANGE[0]:g}, {EXTENT_RANGE[1]:g}]")
        w_lo = w_hi = 1.0
        for f, w in zip(P.facets, sigma.weights):
            if f.normal[a] in (1, -1) and not sys.float_info.min <= w <= sys.float_info.max:
                raise UnsupportedPolytopeError(
                    f"axis {a + 1}: a facet weight is outside the normal float range "
                    f"[{sys.float_info.min:g}, {sys.float_info.max:g}]")
            if f.normal[a] == 1:
                w_lo = float(w)
            elif f.normal[a] == -1:
                w_hi = float(w)
        out.append((lo, hi, w_lo, w_hi))
    return out


class PotentialGrid:
    """Discretized symplectic potential u = u0 + phi on a graded box mesh.

    A = bvol/vol is computed once and shared by the grids with_phi and
    refined derive from this one; UnsupportedPolytopeError if it exceeds
    the floats.
    """

    def __init__(self, P: Polytope, sigma: BoundaryMeasure, axes: list[Axis1D],
                 phi: np.ndarray | None = None, A: float | None = None):
        self.P = P
        self.sigma = sigma
        if A is None:
            try:
                A = float(measures(P, sigma).A)
            except OverflowError:
                raise UnsupportedPolytopeError(
                    f"A = bvol/vol exceeds the float range (max {sys.float_info.max:g})") from None
        self.A = A
        self.axes = axes
        self.n = len(axes)
        self.shape = tuple(ax.m for ax in axes)
        self.phi = np.zeros(self.shape) if phi is None else np.asarray(phi, dtype=float)
        if self.phi.shape != self.shape:
            raise ValueError(f"phi must have shape {self.shape}")

    @classmethod
    def build(cls, P: Polytope, sigma: BoundaryMeasure, m, phi=None) -> "PotentialGrid":
        if isinstance(m, int):
            m = (m,) * P.dim
        spans = _box_axes(P, sigma)
        axes = [Axis1D(graded_nodes(lo, hi, mi), lo, hi, wl, wh)
                for (lo, hi, wl, wh), mi in zip(spans, m)]
        g = cls(P, sigma, axes)
        if phi is not None:
            g.phi = _phi_array(g, phi)
        return g

    def with_phi(self, phi) -> "PotentialGrid":
        return PotentialGrid(self.P, self.sigma, self.axes, _phi_array(self, phi), self.A)

    def refined(self, phi=None) -> "PotentialGrid":
        """Bisection refinement: every gap exactly halved (nodes are nested).

        Use this for mesh-convergence studies; phi defaults to zero on the
        new grid (pass a callable to re-sample).
        """
        axes = []
        for ax in self.axes:
            x = ax.nodes
            nodes = np.empty(2 * len(x) - 1)
            nodes[0::2] = x
            nodes[1::2] = (x[:-1] + x[1:]) / 2
            axes.append(Axis1D(nodes, ax.lo, ax.hi, ax.w_lo, ax.w_hi))
        g = PotentialGrid(self.P, self.sigma, axes, A=self.A)
        if phi is not None:
            g.phi = _phi_array(g, phi)
        return g

    def node_grids(self) -> list[np.ndarray]:
        """Coordinate arrays broadcast to the full grid shape."""
        vecs = [ax.nodes for ax in self.axes]
        return list(np.meshgrid(*vecs, indexing="ij"))

    def u0_values(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for a, ax in enumerate(self.axes):
            out = out + _on_axis(ax.u0(), self.n, a)
        return out

    def u_values(self) -> np.ndarray:
        return self.u0_values() + self.phi

    def find_node(self, x) -> tuple[int, ...]:
        idx = []
        for a, ax in enumerate(self.axes):
            j = int(np.argmin(np.abs(ax.nodes - float(x[a]))))
            if abs(ax.nodes[j] - float(x[a])) > 1e-9 * (ax.hi - ax.lo):
                raise ValueError(f"{x} is not a mesh node")
            idx.append(j)
        return tuple(idx)

    def depth(self, idx) -> int:
        return min(min(j, ax.m - 1 - j) for j, ax in zip(idx, self.axes))

    def node_point(self, idx):
        return tuple(ax.nodes[j] for ax, j in zip(self.axes, idx))


def _phi_array(g: PotentialGrid, phi) -> np.ndarray:
    if callable(phi):
        pts = g.node_grids()
        return np.asarray(phi(*pts), dtype=float) * np.ones(g.shape)
    return np.asarray(phi, dtype=float)


def guillemin(P: Polytope, sigma: BoundaryMeasure, m=65) -> PotentialGrid:
    """Reference potential grid (phi = 0) for a segment or box polytope."""
    if P.dim <= 2 and not is_delzant(P):
        warnings.warn("polytope is not Delzant; the reference potential does not "
                      "compactify smoothly", stacklevel=2)
    return PotentialGrid.build(P, sigma, m)


# -- Hessian / inverse / scalar curvature fields -----------------------------

def difference_hessian(g: PotentialGrid, f: np.ndarray):
    """Hessian components of the node array f on the interior lattice, by the
    axis difference taps: {(a, b): array}, symmetric entries aliased."""
    H = {(a, a): _along(ax.d2, f, a) for a, ax in enumerate(g.axes)}
    if g.n == 2:
        H[(0, 1)] = H[(1, 0)] = _mixed(g.axes[0].d1, g.axes[1].d1, f)
    return H


def hessian_field(g: PotentialGrid):
    """Hessian components of u on the interior lattice: u0's in closed form
    plus the difference Hessian of phi."""
    H = difference_hessian(g, g.phi)
    for a, ax in enumerate(g.axes):
        H[(a, a)] += _on_axis(ax.u0_d2(), g.n, a)
    return H


def det_field(H) -> np.ndarray:
    """det(u_ab) on the interior lattice from the Hessian components."""
    if (1, 1) not in H:
        return H[(0, 0)]
    return H[(0, 0)] * H[(1, 1)] - H[(0, 1)] ** 2


def check_convexity(g: PotentialGrid, H, det: np.ndarray):
    """Raise ConvexityError at the first interior node where the Hessian H
    (determinant det) is not positive definite."""
    bad = (H[(0, 0)] <= 0) | (det <= 0)
    if bad.any():
        idx = np.unravel_index(np.argmax(bad), bad.shape)
        loc = tuple(g.axes[a].nodes[i + 1] for a, i in enumerate(idx))
        raise ConvexityError(loc, f"(det = {det[idx]:.3e})")


def inverse_hessian_field(H, det: np.ndarray):
    """Pointwise inverse of a positive definite Hessian H with determinant det."""
    if (1, 1) not in H:
        return {(0, 0): 1.0 / H[(0, 0)]}
    return {(0, 0): H[(1, 1)] / det, (1, 1): H[(0, 0)] / det,
            (0, 1): -H[(0, 1)] / det, (1, 0): -H[(0, 1)] / det}


def divergence2_field(g: PotentialGrid, U) -> np.ndarray:
    """sum_ab (U^{ab})_{,ab} by centred differences of the inverse Hessian U,
    on the two-layers-in lattice."""
    out = _along(g.axes[0].d2i, U[(0, 0)], 0)
    if g.n == 2:
        x, y = g.axes
        out = out + _along(y.d2i, U[(1, 1)], 1) + 2 * _mixed(x.d1i, y.d1i, U[(0, 1)])
    return out


def potential_fields(g: PotentialGrid):
    """(H, det, U, div) of the grid's potential, each computed once:
    ConvexityError off the convex cone, before U."""
    H = hessian_field(g)
    det = det_field(H)
    check_convexity(g, H, det)
    U = inverse_hessian_field(H, det)
    return H, det, U, divergence2_field(g, U)


def abreu_residual_field(g: PotentialGrid, div: np.ndarray) -> np.ndarray:
    """div + A for div = divergence2_field: zero exactly at a discrete
    solution of the constant scalar curvature equation; equals A - 2S."""
    return div + g.A


@dataclass
class MetricSample:
    point: tuple
    g_xx: np.ndarray      # Hessian u_ab
    g_theta: np.ndarray   # inverse u^{ab}
    S: float


def abreu_S(g: PotentialGrid, x) -> MetricSample:
    """Metric data and scalar curvature at a node >= 2 layers from the boundary."""
    idx = g.find_node(x)
    if g.depth(idx) < 2:
        raise ValueError(f"node {x} is fewer than 2 mesh layers from the boundary")
    H, _, U, div = potential_fields(g)
    iin = tuple(j - 1 for j in idx)
    idd = tuple(j - 2 for j in idx)
    n = g.n
    Hm = np.array([[H[(min(a, b), max(a, b))][iin] for b in range(n)] for a in range(n)])
    Um = np.array([[U[(min(a, b), max(a, b))][iin] for b in range(n)] for a in range(n)])
    return MetricSample(g.node_point(idx), Hm, Um, float(-0.5 * div[idd]))


def gradient_field(g: PotentialGrid):
    """du at interior nodes, one array per component."""
    return [_along(ax.d1, g.phi, a) + _on_axis(ax.u0_d1(), g.n, a)
            for a, ax in enumerate(g.axes)]


def legendre(g: PotentialGrid, x):
    """Classical Legendre transform at an interior node.

    Returns (<x, du(x)> - u(x), du(x)); the gradient is the log-coordinate
    of the corresponding point on the open torus orbit.
    """
    idx = g.find_node(x)
    if g.depth(idx) < 1:
        raise ValueError(f"node {x} is on the boundary")
    H = hessian_field(g)
    check_convexity(g, H, det_field(H))
    grads = gradient_field(g)
    iin = tuple(j - 1 for j in idx)
    gvec = tuple(float(gr[iin]) for gr in grads)
    uval = float(g.u_values()[idx])
    val = sum(xc * gc for xc, gc in zip(g.node_point(idx), gvec)) - uval
    return val, gvec


# -- quadrature ---------------------------------------------------------------

def node_weights(g: PotentialGrid) -> np.ndarray:
    """Tensor trapezoid weights for the full node grid."""
    w = g.axes[0].trapezoid
    if g.n == 1:
        return w.copy()
    return np.outer(w, g.axes[1].trapezoid)


def interior_weights(g: PotentialGrid) -> np.ndarray:
    w = node_weights(g)
    return w[(slice(1, -1),) * g.n]


def integrate_nodes(g: PotentialGrid, values: np.ndarray) -> float:
    return float((node_weights(g) * values).sum())


def extend_interior_field(g: PotentialGrid, F: np.ndarray, layers: int = 1,
                          points: int = 3) -> np.ndarray:
    """Extrapolate a field living `layers` in from the boundary to all nodes.

    Lagrange extrapolation through `points` nodes (outer_extrapolation,
    made once per axis) along axis 0, then along axis 1, which fills the
    corners from the completed rows; cubic at 2 layers is phi's closure.
    """
    full = np.zeros(g.shape)
    full[(slice(layers, -layers),) * g.n] = F
    for a, ax in enumerate(g.axes):
        lines = np.moveaxis(full, a, 0)
        for j, src, coef in ax.extension[(layers, points)]:
            terms = [c * lines[i] for c, i in zip(coef, src)]
            lines[j] = sum(terms[1:], terms[0])
    return full


def outer_extrapolation(x: np.ndarray, layers: int, points: int):
    """Lagrange extrapolation to the `layers` outer nodes at each end of x.

    Returns (j, src, coef) for each outer node j: src are the `points`
    nodes nearest that end that are not outer, nearest first, and coef[p]
    the Lagrange basis polynomial of x[src[p]] through x[src] evaluated at
    x[j], a product over a product.
    """
    m = len(x)
    out = []
    for end, step in ((0, 1), (m - 1, -1)):
        src = [end + step * (layers + p) for p in range(points)]
        for off in range(layers):
            j = end + step * off
            coef = [math.prod([x[j] - x[k] for k in src if k != i])
                    / math.prod([x[i] - x[k] for k in src if k != i]) for i in src]
            out.append((j, src, coef))
    return out


def _box_integral(axes: list[Axis1D], axis_integral) -> float:
    """Integral over the box of a sum of one-axis terms, from each term's axis integral."""
    lams = [ax.hi - ax.lo for ax in axes]
    return sum(axis_integral(ax) * math.prod(lams[:a] + lams[a + 1:])
               for a, ax in enumerate(axes))


def integral_u0_exact(g: PotentialGrid) -> float:
    """Closed-form integral of u0 over the box."""
    return _box_integral(g.axes, Axis1D.integral_u0)


def integral_log_terms_exact(g: PotentialGrid) -> float:
    """Closed-form integral of sum_k log(w_k ell_k) over the box."""
    return _box_integral(g.axes, Axis1D.integral_log_terms)


def boundary_integral_u0_exact(g: PotentialGrid) -> float:
    """Closed-form sigma-weighted boundary integral of u0, facet by facet
    (on the facets at the ends of axis a, axis a's term is constant)."""
    total = 0.0
    for a, ax in enumerate(g.axes):
        rest = g.axes[:a] + g.axes[a + 1:]
        area = math.prod(b.hi - b.lo for b in rest)
        others = _box_integral(rest, Axis1D.integral_u0)
        for w, end_value in zip((ax.w_lo, ax.w_hi), ax.u0_end_values()):
            total += w * (end_value * area + others)
    return total


def boundary_integral_nodes(g: PotentialGrid, values: np.ndarray) -> float:
    """Sigma-weighted boundary trapezoid of a node field, facet by facet."""
    total = 0.0
    for a, ax in enumerate(g.axes):
        rest = g.axes[:a] + g.axes[a + 1:]
        t = functools.reduce(np.multiply.outer, [b.trapezoid for b in rest], 1.0)
        ends = np.moveaxis(values, a, 0)
        for w, face in ((ax.w_lo, ends[0]), (ax.w_hi, ends[-1])):
            total += w * float((t * face).sum())
    return total


def l_functional_quadrature(g: PotentialGrid, values_phi: np.ndarray | None = None) -> float:
    """L(u0 + phi) with the u0 parts in closed form and phi by trapezoid."""
    phi = g.phi if values_phi is None else values_phi
    boundary = boundary_integral_u0_exact(g) + boundary_integral_nodes(g, phi)
    interior = integral_u0_exact(g) + integrate_nodes(g, phi)
    return boundary - g.A * interior


def grid_dump_rows(g: PotentialGrid, det: np.ndarray, div: np.ndarray) -> list[list]:
    """grid.csv from an evaluated potential's det(u_ab) and second divergence:
    the header, then [x1[, x2], u, det_hess, S = -div/2] per node in C order,
    NaN where undefined, coordinates as reprs formatted once per axis."""
    det_full = np.full(g.shape, np.nan)
    det_full[(slice(1, -1),) * g.n] = det
    S_full = np.full(g.shape, np.nan)
    S_full[(slice(2, -2),) * g.n] = -0.5 * div
    values = np.stack([g.u_values(), det_full, S_full], axis=-1).reshape(-1, 3).tolist()
    coords = itertools.product(*(list(map(repr, ax.nodes.tolist())) for ax in g.axes))
    return [["x1", "x2"][:g.n] + ["u", "det_hess", "S"]] + [
        [*x, *v] for x, v in zip(coords, values)]
