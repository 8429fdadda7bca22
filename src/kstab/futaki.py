"""Futaki invariants by lattice-point counting and toric filtrations.

For an integral polytope P, the sections of the k-th power of the
polarization are labelled by the lattice points of kP, so the weight of a
torus generator xi on the determinant line is w_k = sum of <xi, m> over
kP's lattice points.  F(k) = w_k/(k d_k) expands as F0 + F1/k + F2/k^2 +
... and F1 is the Futaki invariant; its ratio to the boundary functional L
on the linear function <xi, x> is 1/(2 Vol P), a constant this module's
tests freeze.  The filtration route assigns each lattice point the level at
which it enters the sublevel filtration of a convex f and converges to the
same invariant.

Counting runs by rows: the first n-1 coordinates range over the bounding
box of kP, and for each such prefix the facet inequalities, taken as exact
integers, cut the last coordinate down to one interval lo..hi.  A row
then contributes to d_k and w_k in closed form, so a count costs
O(k^(n-1) * #facets) integer operations instead of the O(k^n * #facets)
of testing every point of the box.  _row_arrays does them as numpy int64
array operations on blocks of up to 2^14 prefixes, with coordinates
relative to the box's lower corner, so the int64 values grow with k times
P's extent but not with where P sits, and xi meets the block sums only in
Python ints.  A count is then a fixed ~50 us of Python and numpy calls
plus 10-15 ns per row and facet: on the benchmark triangle (3 facets) it
takes 0.09 ms at k = 200 (401 rows) and 1.7 ms at k = 20000, against
0.85 ms and 88 ms for one Python step per row, and 0.05 ms against 0.03
ms at k = 1 (medians of 21, 2 cores).  A k whose rows could leave int64
is refused before anything is allocated.  The filtration of a PL convex
function is linear along a row on each run where one piece is the max,
and the ceilings on a run are one floor_sum; it still walks the rows one
at a time (_rows).  floor_sum, the Ehrhart interpolation and the series
division of expansion_exact are kstab._intpoly's exact tools.

SIGN CONVENTION (numbering drifts across sources): the action on the
section labelled by lattice point m has weight +<xi, m>, not its negative.
With this choice sign(F1) = sign(L(<xi, x>)) and F0 is the centroid
component <xi, centroid(P)>.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from kstab._intpoly import divide_series, floor_sum, interpolate_polynomial
from kstab.polytope import Polytope
from kstab.stability import PLConvexFunction

log = logging.getLogger(__name__)

Q = Fraction


class NonIntegralPolytopeError(ValueError):
    """Raised when exact Ehrhart behaviour needs integral vertices."""


@dataclass(frozen=True)
class WeightData:
    k: int
    d_k: int
    w_k: int
    F_k: Q


@dataclass(frozen=True)
class ExpansionFit:
    F0: float
    F1: float
    F2: float
    residual: float
    k_range: tuple[int, int]


def _dot(a, b) -> int:
    return sum(map(operator.mul, a, b))


# Most prefixes in one block of _row_arrays: it bounds a count's memory (a
# few int64 arrays of this length per facet), not its result.
_BLOCK = 1 << 14
_INT64_MAX = 2 ** 63 - 1


def _row_arrays(P: Polytope, k: int):
    """kP's rows as box-relative int64 arrays: (origin, blocks).

    origin is the lower corner of kP's bounding box, in Python ints.  blocks
    yields (Y, lo, hi) for consecutive runs of the box's prefixes, in
    lexicographic order: Y is the (n-1, r) array of the nonempty rows'
    prefixes minus origin[:-1], and the lattice points of row j are origin +
    (*Y[:, j], y) for lo[j] <= y <= hi[j].  Every int64 value is bounded by
    k times P's extent, not by where P sits, and a block has few enough
    rows that its sums of n*y_i and n*(lo + hi), n = hi - lo + 1, stay in
    int64 too.  A k at which a value could leave int64 even so (a facet
    residual, the prefix count or one row's sums) is a ValueError, raised
    before any array is made.
    """
    if k <= 0:
        raise ValueError("k must be a positive integer")
    # ceil and floor of k*x are monotone, so they commute with min and max
    box = [(min(-(-x.numerator * k // x.denominator) for x in col),
            max(x.numerator * k // x.denominator for x in col)) for col in zip(*P.vertices)]
    origin = tuple(lo for lo, _ in box)
    *ext, last = (hi - lo for lo, hi in box)
    if any(e < 0 for e in (*ext, last)):
        return origin, iter(())
    # q*<nu, m> >= k*p with m = origin + y  <=>  c*y_n >= r0 - <q*nu', y'>,  c = q*nu_n
    tests = []
    for f in P.facets:
        q = f.offset.denominator
        tests.append((q * f.normal[-1], [q * v for v in f.normal[:-1]],
                      k * f.offset.numerator - q * _dot(f.normal, origin)))
    tests.sort(key=lambda t: (t[0] == 0, t[0] < 0))   # c > 0 (lo), c < 0 (hi), c = 0
    prefixes = math.prod(e + 1 for e in ext)
    # |r0 - <q*nu', y'>| over the box, the coefficients, and n*y_i, n*(lo + hi) on one row
    reach = max(abs(r) + _dot(map(abs, a), ext) for _, a, r in tests)
    coef = max(abs(v) for c, a, _ in tests for v in (c, *a))
    per_row = (last + 1) * max((2 * last, *ext))
    if max(reach, coef, prefixes, per_row) > _INT64_MAX:
        raise ValueError(f"k = {k} is too large to count kP's lattice points "
                         "in 64-bit integers")
    step = min(_BLOCK, _INT64_MAX // max(per_row, 1))
    c = np.array([t[0] for t in tests], dtype=np.int64)[:, None]
    A = np.array([t[1] for t in tests], dtype=np.int64).reshape(len(tests), len(ext))
    r0 = np.array([t[2] for t in tests], dtype=np.int64)[:, None]
    n_lo, n_hi = int((c > 0).sum()), int((c != 0).sum())

    def blocks():
        for start in range(0, prefixes, step):
            idx = np.arange(start, min(start + step, prefixes), dtype=np.int64)
            Y = np.empty((len(ext), idx.size), dtype=np.int64)
            for j in range(len(ext) - 1, 0, -1):
                idx, Y[j] = np.divmod(idx, ext[j] + 1)
            Y[:1] = idx
            R = r0 - A @ Y
            lo = (-(-R[:n_lo] // c[:n_lo])).max(axis=0, initial=0)
            hi = (R[n_lo:n_hi] // c[n_lo:n_hi]).min(axis=0, initial=last)
            keep = lo <= hi
            if n_hi < len(c):
                keep &= (R[n_hi:] <= 0).all(axis=0)   # facets parallel to the rows
            yield Y[:, keep], lo[keep], hi[keep]

    return origin, blocks()


def _rows(P: Polytope, k: int):
    """(prefix, lo, hi) for each nonempty row of kP, prefixes in lexicographic order.

    A row fixes the first n-1 coordinates to `prefix` (a point of the
    bounding box of kP); its lattice points are prefix + (y,) for the
    integers lo <= y <= hi.  All three are Python ints, read off
    _row_arrays.
    """
    origin, blocks = _row_arrays(P, k)
    *base, base_last = origin
    for Y, lo, hi in blocks:
        for y, a, b in zip(Y.T.tolist(), lo.tolist(), hi.tolist()):
            yield tuple(map(operator.add, base, y)), base_last + a, base_last + b


def require_integral(P: Polytope):
    for v in P.vertices:
        if any(c.denominator != 1 for c in v):
            raise NonIntegralPolytopeError(
                "polytope has non-integral vertices; rescale the polarization "
                "(replace P by m*P for a suitable integer m) before counting")


def count_and_weigh(P: Polytope, xi, k: int) -> WeightData:
    """d_k = #(kP cap Z^n) and w_k = sum of <xi, m> over those points.

    The rows' box-relative coordinate sums S_i are reduced in int64, block
    by block; w_k = sum of xi_i*(S_i + d_k*origin_i) is then formed in
    Python ints, so xi and the position of P never enter int64.
    """
    require_integral(P)
    xi = tuple(int(x) for x in xi)
    if len(xi) != P.dim:
        raise ValueError("xi has wrong dimension")
    origin, blocks = _row_arrays(P, k)
    d = 0
    sums = [0] * P.dim
    for Y, lo, hi in blocks:
        n = hi - lo + 1
        d += int(n.sum())
        # a row's last coordinates sum to (lo + hi)*n/2; (lo + hi)*n is even
        block = [*(Y @ n).tolist(), int((lo + hi) @ n) // 2]
        sums = [a + b for a, b in zip(sums, block)]
    w = sum(x * (s + d * o) for x, s, o in zip(xi, sums, origin))
    return WeightData(k, d, w, Q(w, k * d))


def expansion(P: Polytope, xi, k_min: int, k_max: int) -> ExpansionFit:
    """Least-squares fit of F_k against (1, 1/k, 1/k^2) on k_min..k_max."""
    if k_max - k_min < 3:
        raise ValueError("need k_max - k_min >= 3 for a three-parameter fit")
    ks = np.arange(k_min, k_max + 1, dtype=float)
    fs = np.array([float(count_and_weigh(P, xi, int(k)).F_k) for k in ks])
    M = np.stack([np.ones_like(ks), 1.0 / ks, 1.0 / ks**2], axis=1)
    coef, res, _, _ = np.linalg.lstsq(M, fs, rcond=None)
    resid = float(np.sqrt(res[0])) if res.size else float(np.linalg.norm(M @ coef - fs))
    return ExpansionFit(float(coef[0]), float(coef[1]), float(coef[2]), resid,
                        (k_min, k_max))


def expansion_exact(P: Polytope, xi) -> tuple[Q, Q, Q]:
    """(F0, F1, F2) by exact Hilbert-polynomial interpolation.

    d_k is a degree-n polynomial and w_k a degree-(n+1) polynomial with zero
    constant term; interpolating them from small k and dividing the series
    gives the expansion coefficients exactly.  This is the independent
    oracle for the least-squares route.
    """
    require_integral(P)
    n = P.dim
    dks = [count_and_weigh(P, xi, k) for k in range(1, n + 3)]
    dpoly = interpolate_polynomial(list(range(1, n + 2)), [d.d_k for d in dks[:n + 1]])
    wpoly = interpolate_polynomial(list(range(0, n + 3)),
                                   [0] + [d.w_k for d in dks])
    # sanity: d_k must reproduce the extra data point and w_k has degree n + 1
    kchk = n + 2
    if sum(c * kchk ** j for j, c in enumerate(dpoly)) != dks[n + 1].d_k or wpoly[n + 2] != 0:
        raise ArithmeticError(f"lattice counts at k = 1..{n + 2} do not fit Ehrhart "
                              f"polynomials of degrees {n} and {n + 1}")
    # F_k = sum_j w_{n+1-j} k^-j / sum_j d_{n-j} k^-j, divided as series in 1/k
    return tuple(divide_series(wpoly[n + 1::-1], dpoly[::-1], 3))


def _envelope_runs(lines, lo: int, hi: int):
    """Runs (j, a, b) on which line j attains max_i alpha_i + beta_i*y for a <= y <= b.

    lines are integer pairs (alpha_i, beta_i); the runs cover lo..hi in
    order, and a tie goes to the lowest index.
    """
    y = lo
    while y <= hi:
        vals = [al + be * y for al, be in lines]
        j = vals.index(max(vals))
        aj, bj = lines[j]
        end = hi
        for i, (ai, bi) in enumerate(lines):
            if bi > bj:
                # j stays ahead of i while (aj - ai) - (bi - bj)*t >= 0, > 0 for i < j
                end = min(end, (aj - ai - (i < j)) // (bi - bj))
        yield j, y, end
        y = end + 1


def _pl_ceiling_sum(P: Polytope, f, k: int) -> tuple[int, int, Q | None]:
    """(sum of ceil(k f(m/k)), d_k, min of f(m/k)) over kP, row by row.

    With D the common denominator of f's coefficients, D*k*f(m/k) on the
    row through prefix is max_j alpha_j + beta_j*y with integers
    alpha_j = D*(<a_j', prefix> + k*b_j) and beta_j = D*a_j,n.
    """
    if f.dim != P.dim:
        raise ValueError("f and P have different dimensions")
    D = math.lcm(*(c.denominator for a, b in f.pieces for c in (*a, b)))
    pieces = [([int(c * D) for c in a], int(b * D)) for a, b in f.pieces]
    total = d = 0
    vmin = None
    for prefix, lo, hi in _rows(P, k):
        d += hi - lo + 1
        lines = [(_dot(a[:-1], prefix) + k * b, a[-1]) for a, b in pieces]
        for j, ya, yb in _envelope_runs(lines, lo, hi):
            al, be = lines[j]
            # ceil(v/D) = floor((v + D - 1)/D) with v = al + be*(ya + i)
            total += floor_sum(yb - ya + 1, D, be, al + be * ya + D - 1)
            low = min(al + be * ya, al + be * yb)
            vmin = low if vmin is None else min(vmin, low)
    return total, d, None if vmin is None else Q(vmin, D * k)


def filtration_futaki(P: Polytope, f: PLConvexFunction, k: int) -> Q:
    """Finite-k filtration statistic sum_m ceil(k f(m/k)) / (k d_k).

    m enters the sublevel filtration {f <= i/k} of the PL convex f at level
    i = ceil(k f(m/k)).  The statistic converges, as k grows, to F0 + F1/k
    + ... with F1 = L(f)/(2 Vol P).  It is summed row by row: each run of a
    row on which one piece is the max is a single floor_sum, so the cost is
    O(k^(n-1) * pieces * (pieces + log k)).
    """
    require_integral(P)
    total, d, minval = _pl_ceiling_sum(P, f, k)
    if d == 0:
        raise ValueError("polytope contains no lattice points at this k")
    if minval < 0:
        log.info("filtration level function dips below 0 (min %s); the integer "
                 "ceiling handles the shift and the k->infinity limit is unchanged",
                 minval)
    return Q(total, k * d)
