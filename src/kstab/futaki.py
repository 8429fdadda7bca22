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
of testing every point of the box.  The filtration of a PL convex
function is linear along a row on each run where one piece is the max,
and the ceilings on a run are one floor_sum.

SIGN CONVENTION (numbering drifts across sources): the action on the
section labelled by lattice point m has weight +<xi, m>, not its negative.
With this choice sign(F1) = sign(L(<xi, x>)) and F0 is the centroid
component <xi, centroid(P)>.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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


def _scaled_facets(P: Polytope):
    """Facet tests q*<nu, m> >= k*p as pure integers."""
    out = []
    for f in P.facets:
        c = f.offset
        out.append((f.normal, c.numerator, c.denominator))
    return out


def _dot(a, b) -> int:
    return sum(map(operator.mul, a, b))


def _rows(P: Polytope, k: int):
    """(prefix, lo, hi) for each nonempty row of kP, prefixes in lexicographic order.

    A row fixes the first n-1 coordinates to `prefix` (a point of the
    bounding box of kP); its lattice points are prefix + (y,) for the
    integers lo <= y <= hi.
    """
    if k <= 0:
        raise ValueError("k must be a positive integer")
    ranges = [range(math.ceil(lo * k), math.floor(hi * k) + 1) for lo, hi in P.bounding_box()]
    last = ranges.pop()
    # q*<nu, m> >= k*p  <=>  c*y >= k*p - q*<nu', prefix>  with c = q*nu_n
    tests = [(nu[:-1], q * nu[-1], k * p, q) for nu, p, q in _scaled_facets(P)]
    for prefix in itertools.product(*ranges):
        lo, hi = last.start, last.stop - 1
        for nu, c, kp, q in tests:
            r = kp - q * _dot(nu, prefix)
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


def lattice_points(P: Polytope, k: int = 1):
    """Iterate over the lattice points of k*P in lexicographic order (exact).

    The scan goes row by row (see _rows), so finding the points costs
    O(k^(n-1) * #facets) on top of yielding them.
    """
    for prefix, lo, hi in _rows(P, k):
        for y in range(lo, hi + 1):
            yield prefix + (y,)


def require_integral(P: Polytope):
    for v in P.vertices:
        if any(c.denominator != 1 for c in v):
            raise NonIntegralPolytopeError(
                "polytope has non-integral vertices; rescale the polarization "
                "(replace P by m*P for a suitable integer m) before counting")


def count_and_weigh(P: Polytope, xi, k: int) -> WeightData:
    """d_k = #(kP cap Z^n) and w_k = sum of <xi, m> over those points."""
    require_integral(P)
    xi = tuple(int(x) for x in xi)
    if len(xi) != P.dim:
        raise ValueError("xi has wrong dimension")
    *xi_prefix, xi_last = xi
    d = 0
    w = 0
    for prefix, lo, hi in _rows(P, k):
        n = hi - lo + 1
        d += n
        # sum of <xi, m> over the row; (lo + hi) * n is even
        w += n * _dot(xi_prefix, prefix) + xi_last * (lo + hi) * n // 2
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


def interpolate_polynomial(ks, vals) -> list[Q]:
    """Exact coefficients (ascending) of the polynomial through (ks, vals)."""
    n = len(ks)
    A = [[Q(k) ** j for j in range(n)] for k in ks]
    b = [Q(v) for v in vals]
    # Gaussian elimination over the rationals
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / A[col][col]
        A[col] = [a * inv for a in A[col]]
        b[col] *= inv
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * c for a, c in zip(A[r], A[col])]
                b[r] -= f * b[col]
    return b


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
    dn = dpoly[n]
    dn1 = dpoly[n - 1] if n >= 1 else Q(0)
    dn2 = dpoly[n - 2] if n >= 2 else Q(0)
    wn1 = wpoly[n + 1]
    wn = wpoly[n]
    wnm = wpoly[n - 1] if n >= 1 else Q(0)
    F0 = wn1 / dn
    F1 = (wn - F0 * dn1) / dn
    F2 = (wnm - F0 * dn2 - F1 * dn1) / dn
    return F0, F1, F2


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum of floor((a*i + b)/m) over i = 0..n-1, for n >= 0 and m >= 1.

    O(log m) steps of the Euclid-like reduction of the AtCoder Library's
    floor_sum (atcoder/math.hpp); a and b may be negative.
    """
    total = 0
    while True:
        q, a = divmod(a, m)
        total += n * (n - 1) // 2 * q
        q, b = divmod(b, m)
        total += n * q
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


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
