"""Futaki invariants by lattice-point counting and toric filtrations.

For an integral polytope P, the sections of the k-th power of the
polarization are labelled by the lattice points of kP, so the weight of a
torus generator xi on the determinant line is w_k = sum of <xi, m> over
kP's lattice points.  F(k) = w_k/(k d_k) expands as F0 + F1/k + F2/k^2 +
... and F1 is the Futaki invariant; its ratio to the boundary functional L
on the linear function <xi, x> is 1/(2 Vol P), a constant this module's
tests freeze.  d_k and w_k are polynomials in k of degrees n and n + 1
(Ehrhart 1962), so F0, F1 and F2 are exact rationals, interpolated in
integers from the counts at consecutive k.  The filtration route assigns
each lattice point the level at which it enters the sublevel filtration
of a convex f and converges to the same invariant.

Lattice sums are floor sums (Donaldson 2002 counts d_k and w_k; in fixed
dimension such counts cost a polynomial in the input's size, not in k:
Barvinok 1994).  _lattice_sums gives (N, sum x, sum y) over the lattice
points of a closed convex polygon with rational vertices, a segment or a
point: between consecutive vertex abscissae every column runs from
ceil(L(x)) to floor(U(x)), L and U linear, so a slab is two calls of
kstab._intpoly.floor_sums, each O(log k) integer steps.  A polytope of
dimension 1 or 2 is one such polygon (a segment lies on y = 0), and one of
dimension 3 is one polygon per slice x1 = c (_sections).  The polygons are
kstab.polytope's integer rings, cut by its _clip and _cell.  All of it is
Python ints, so no k is refused and no numpy is loaded.

The filtration of f = max_j <a_j, x> + b_j sums ceil(k f(m/k)) = max_j
ceil(<a_j, m> + k b_j).  With D the lcm of the slopes' denominators on an
axis, m = r + D t on a coset r mod D, where each ceiling is an integer
ceil(<a_j, r> + k b_j) plus the integer <D a_j, t>.  So the points where
piece j wins form a closed polygon cut from kP by integer inequalities
(a tie goes to the lowest index), summed by _lattice_sums: a statistic
costs O((#edges + #pieces) * #pieces * D^n * log k) integer steps.  D is
1 for creases and the benchmark's pieces, but nothing bounds it, so a
section with fewer integer columns than 3 * #pieces times its number of
cosets (one costs about 3 * #pieces columns) is summed column by column:
each run of a column on which one piece is the max is one floor_sum,
O(k^(n-1) * (#edges + #pieces * (#pieces + log k))) steps whatever D is.
On the benchmark triangle a count at k = 200 takes 0.024 ms and the
filtration of max(0, x - 1) at k = 128 0.12 ms, against 0.07 ms for
numpy int64 rows and 1.0 ms for one Python step per row (medians of 201,
2 cores).  floor_sums, the interpolation at consecutive k and the
series division are kstab._intpoly's exact tools.

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
from fractions import Fraction as Q

from kstab._intpoly import divide_series, floor_sum, floor_sums, interpolate_consecutive
from kstab.polytope import Polytope, _cell, _chain, _clip, _ring
from kstab.stability import PLConvexFunction

log = logging.getLogger(__name__)


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
    F0: Q
    F1: Q
    F2: Q
    k_range: tuple[int, int]


def _dot(a, b) -> int:
    return sum(map(operator.mul, a, b))


def _column_sums(p, q, den: int, x0: int, n: int, sign: int):
    """floor_sums of sign * (the line through p and q) at x = x0..x0+n-1,
    for p and q given as integer points den times their coordinates."""
    (X1, Y1), (X2, Y2) = p, q
    a = (Y2 - Y1) * den
    return floor_sums(n, den * (X2 - X1), sign * a, sign * (a * x0 + Y1 * X2 - Y2 * X1))


def _lattice_sums(ring) -> tuple[int, int, int]:
    """(N, sum of x, sum of y) over the lattice points of the convex hull of
    a ring (kstab.polytope), which may be a polygon, a segment, a point or
    empty.

    The hull's upper and lower chains split its abscissae into slabs, each
    inside one edge of each chain.  The integer columns x of a slab run from
    lo = ceil(L(x)) to hi = floor(U(x)), and with f = hi and g = -lo the
    column holds f + g + 1 points whose ordinates sum to (f^2 + f - g^2 - g)/2;
    floor_sums gives the sums of f, i*f and f^2 (and of g) over the slab.
    """
    if not ring:
        return 0, 0, 0
    den = math.lcm(*(w for _, _, w in ring))
    top, bottom = {}, {}
    for x, y, w in ring:
        X, Y = x * (den // w), y * (den // w)
        top[X] = max(top.get(X, Y), Y)
        bottom[X] = min(bottom.get(X, Y), Y)
    xs = sorted(top)
    if len(xs) == 1:                    # a vertical segment or a point
        if xs[0] % den:
            return 0, 0, 0
        lo, hi = -(-bottom[xs[0]] // den), top[xs[0]] // den
        n = max(hi - lo + 1, 0)
        return n, xs[0] // den * n, (lo + hi) * n // 2
    upper = _chain([(X, top[X]) for X in xs], 1)
    lower = _chain([(X, bottom[X]) for X in xs], -1)
    cuts = sorted({X for X, _ in upper} | {X for X, _ in lower})
    N = sx = sy = iu = il = 0
    for j in range(len(cuts) - 1):
        X0, X1 = cuts[j], cuts[j + 1]
        while upper[iu + 1][0] <= X0:
            iu += 1
        while lower[il + 1][0] <= X0:
            il += 1
        # the columns X0 <= x*den < X1, and the last slab keeps x*den = X1
        x0 = -(-X0 // den)
        n = (X1 // den if j == len(cuts) - 2 else -(-X1 // den) - 1) - x0 + 1
        if n <= 0:
            continue
        f, fi, ff = _column_sums(upper[iu], upper[iu + 1], den, x0, n, 1)
        g, gi, gg = _column_sums(lower[il], lower[il + 1], den, x0, n, -1)
        count = f + g + n
        N += count
        sx += x0 * count + fi + gi + n * (n - 1) // 2
        sy += (ff + f - gg - g) // 2
    return N, sx, sy


def _sections(P: Polytope, k: int):
    """kP as plane polygons: pairs (c, ring) such that kP's lattice points
    are the (*c, x, y) over the lattice points (x, y) of the ring.

    In dimensions 1 and 2 there is one pair, c = (), and ring is kP's
    vertices (a segment on y = 0 in dimension 1).  In dimension 3 there is
    one pair per integer c = (x1,) in kP's range: the slice, cut by every
    facet from the bounding rectangle of kP's last two coordinates.
    """
    if k <= 0:
        raise ValueError("k must be a positive integer")
    if P.dim < 3:
        yield (), _ring(P.vertices, k)
        return
    (lo, hi), (y0, y1), (z0, z1) = P.bounding_box()
    rect = _ring(((y0, z0), (y1, z0), (y1, z1), (y0, z1)), k)
    for c in range(math.ceil(k * lo), math.floor(k * hi) + 1):
        ring = rect
        for f in P.facets:
            # q*<nu, m> >= k*p for the offset p/q
            (n0, n1, n2), (p, q) = f.normal, (f.offset.numerator, f.offset.denominator)
            ring = _clip(ring, q * n1, q * n2, k * p - q * n0 * c)
        yield (c,), ring


def require_integral(P: Polytope):
    for v in P.vertices:
        if any(c.denominator != 1 for c in v):
            raise NonIntegralPolytopeError(
                "polytope has non-integral vertices; rescale the polarization "
                "(replace P by m*P for a suitable integer m) before counting")


def count_and_weigh(P: Polytope, xi, k: int) -> WeightData:
    """d_k = #(kP cap Z^n) and w_k = sum of <xi, m> over those points, in
    Python ints at any k: one _lattice_sums per section of kP."""
    require_integral(P)
    xi = tuple(int(x) for x in xi)
    if len(xi) != P.dim:
        raise ValueError("xi has wrong dimension")
    d = w = 0
    for c, ring in _sections(P, k):
        n, sx, sy = _lattice_sums(ring)
        d += n
        w += _dot(xi, (*(ci * n for ci in c), sx, sy))   # sy drops out in dimension 1
    return WeightData(k, d, w, Q(w, k * d))


def _series(n: int, rows: list[WeightData]) -> tuple[Q, Q, Q]:
    """(F0, F1, F2) of F(k) = w_k/(k d_k) from rows counted at consecutive k:
    d_k interpolated from the first n + 1 rows and w_k from the first n + 2,
    both checked at every row and at k = 0 (d_0 = 1, w_0 = 0)."""
    k0 = rows[0].k
    dc, dD = interpolate_consecutive(k0, [r.d_k for r in rows[:n + 1]])
    wc, wD = interpolate_consecutive(k0, [r.w_k for r in rows[:n + 2]])

    def at(c, k):
        return sum(cj * k ** j for j, cj in enumerate(c))

    if dc[0] != dD or wc[0] != 0 or any(
            at(dc, r.k) != dD * r.d_k or at(wc, r.k) != wD * r.w_k for r in rows):
        raise ArithmeticError(f"lattice counts at k = {k0}..{rows[-1].k} do not fit Ehrhart "
                              f"polynomials of degrees {n} and {n + 1}")
    # F_k = (w_{n+1} + w_n/k + ...)/(d_n + d_{n-1}/k + ...), w = wc/(n+1)!, d = dc/n!
    return tuple(divide_series(wc[::-1], [(n + 1) * c for c in dc[::-1]], 3))


def expansion(P: Polytope, xi, k_min: int, k_max: int) -> ExpansionFit:
    """The exact (F0, F1, F2) of the lattice counts at k_min..k_max."""
    if k_max - k_min < max(3, P.dim + 1):
        raise ValueError(f"need k_max - k_min >= {max(3, P.dim + 1)} to interpolate d_k and w_k")
    rows = [count_and_weigh(P, xi, k) for k in range(k_min, k_max + 1)]
    return ExpansionFit(*_series(P.dim, rows), (k_min, k_max))


def expansion_exact(P: Polytope, xi) -> tuple[Q, Q, Q]:
    """(F0, F1, F2) from the lattice counts at k = 1..n + 2."""
    return _series(P.dim, [count_and_weigh(P, xi, k) for k in range(1, P.dim + 3)])


def _coset_ceiling_sum(ring, pieces, dx: int, dy: int) -> tuple[int, int]:
    """(sum of max_j ceil(<a_j, m> + b_j), their number) over the lattice
    points m of the ring, for pieces (a_j, b_j) with a_j a pair of
    rationals and b_j a rational, dx and dy the lcms of the slopes'
    denominators on each axis.

    On the coset m = r + (dx*s, dy*t), piece j's ceiling is the integer
    line v_j + dx*a_j0*s + dy*a_j1*t with v_j = ceil(<a_j, r> + b_j).
    Integer values tie or differ by at least 1, so the points where j wins
    (ties to the lowest index) are a _cell with gap 1, summed by
    _lattice_sums.
    """
    total = count = 0
    for rx in range(dx):
        for ry in range(dy):
            sub = [((x - rx * w) * dy, (y - ry * w) * dx, w * dx * dy) for x, y, w in ring]
            lines = [(math.ceil(a0 * rx + a1 * ry + b), int(a0 * dx), int(a1 * dy))
                     for (a0, a1), b in pieces]
            for j, (v, a0, a1) in enumerate(lines):
                n, ss, st = _lattice_sums(_cell(sub, lines, j, 1))
                total += v * n + a0 * ss + a1 * st
                count += n
    return total, count


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


def _column_ceiling_sum(ring, pieces, xlo: int, xhi: int) -> tuple[int, int]:
    """_coset_ceiling_sum's pair, one integer column x = xlo..xhi at a time.

    With D the common denominator of the pieces' coefficients, D times
    piece j on column x is the integer line alpha_j + beta_j*y; each run of
    the column on which one line is the max is one floor_sum of
    ceil(v/D) = floor((v + D - 1)/D), whatever the slopes' denominators.
    """
    D = math.lcm(*(c.denominator for a, b in pieces for c in (*a, b)))
    scaled = [(int(D * a0), int(D * a1), int(D * b)) for (a0, a1), b in pieces]
    total = count = 0
    for x in range(xlo, xhi + 1):
        column = _clip(_clip(ring, 1, 0, x), -1, 0, -x)
        lo = min(-(-y // w) for _, y, w in column)      # ceil of the least y/w
        hi = max(y // w for _, y, w in column)
        lines = [(b + a0 * x, a1) for a0, a1, b in scaled]
        for j, ya, yb in _envelope_runs(lines, lo, hi):
            al, be = lines[j]
            total += floor_sum(yb - ya + 1, D, be, al + be * ya + D - 1)
        count += max(hi - lo + 1, 0)
    return total, count


def _ceiling_sum(ring, pieces) -> tuple[int, int]:
    """(sum of max_j ceil(<a_j, m> + b_j), their number) over the lattice
    points of the ring: by cosets (_coset_ceiling_sum) when they
    cost less than the ring's integer columns, else column by column.

    A coset takes O((#edges + #pieces) * #pieces * log k) steps and a
    column O(#edges + #pieces * (#pieces + log k)); one coset costs about
    3 * #pieces columns (8 to 25 times one column at 2 to 8 pieces, Python
    3.11), so the cheaper route is taken within a constant factor, and the
    cost is never more than the columns' whatever the slopes' denominators.
    """
    if not ring:
        return 0, 0
    dx, dy = (math.lcm(*(a[i].denominator for a, _ in pieces)) for i in (0, 1))
    xlo = min(-(-x // w) for x, _, w in ring)
    xhi = max(x // w for x, _, w in ring)
    if 3 * len(pieces) * dx * dy <= xhi - xlo + 1:
        return _coset_ceiling_sum(ring, pieces, dx, dy)
    return _column_ceiling_sum(ring, pieces, xlo, xhi)


def _lattice_min(ring, lines) -> int | None:
    """The least of max_j c_j + a_j0*x + a_j1*y, integer lines (c, a0, a1),
    over the lattice points of the nonempty ring when its real
    minimum is negative; None when that minimum is not.

    The real minimum is the least of each line on its _cell's vertices.
    The lattice one is the least t whose sublevel polygon holds a lattice
    point, found by bisection from the real minimum up to the maximum,
    which is at a vertex and bounds every lattice point's value.
    """
    def value(line, p):
        return Q(line[0] * p[2] + line[1] * p[0] + line[2] * p[1], p[2])

    low = min(value(line, p) for j, line in enumerate(lines) for p in _cell(ring, lines, j, 0))
    if low >= 0:
        return None
    lo, hi = math.ceil(low) - 1, math.ceil(max(value(line, p) for line in lines for p in ring))
    while hi - lo > 1:
        t = (lo + hi) // 2
        sub = ring
        for c, a0, a1 in lines:
            sub = _clip(sub, -a0, -a1, c - t)
        lo, hi = (lo, t) if _lattice_sums(sub)[0] else (t, hi)
    return hi


def filtration_futaki(P: Polytope, f: PLConvexFunction, k: int) -> Q:
    """Finite-k filtration statistic sum_m ceil(k f(m/k)) / (k d_k).

    m enters the sublevel filtration {f <= i/k} of the PL convex f at level
    i = ceil(k f(m/k)).  The statistic converges, as k grows, to F0 + F1/k
    + ... with F1 = L(f)/(2 Vol P).  It is summed on each section of kP
    (_ceiling_sum) cell by cell on the cosets mod the slopes' denominators
    D, in O((#edges + #pieces) * #pieces * D^n * log k) integer steps, or
    column by column when that costs less (_ceiling_sum).
    When f dips below 0 on P, the least f(m/k) over kP's lattice points is
    logged (_lattice_min).
    """
    require_integral(P)
    if f.dim != P.dim:
        raise ValueError("f and P have different dimensions")
    D = math.lcm(*(c.denominator for a, b in f.pieces for c in (*a, b)))
    total = d = 0
    low = None
    for c, ring in _sections(P, k):
        # on the section, piece j is <a_j', (x, y)> + k*b_j + <a_j, c> with
        # a_j' the slopes after c's coordinates (a_j0 and 0 in dimension 1)
        pieces = [((*a[len(c):], 0)[:2], k * b + _dot(a, c)) for a, b in f.pieces]
        s, n = _ceiling_sum(ring, pieces)
        total, d = total + s, d + n
        # D * k * f(m/k) is an integer at every lattice point m
        lines = [(int(D * b), int(D * a0), int(D * a1)) for (a0, a1), b in pieces]
        least = _lattice_min(ring, lines) if n else None
        if least is not None:
            low = least if low is None else min(low, least)
    if d == 0:
        raise ValueError("polytope contains no lattice points at this k")
    if low is not None and low < 0:
        log.info("filtration level function dips below 0 (min %s); the integer "
                 "ceiling handles the shift and the k->infinity limit is unchanged",
                 Q(low, D * k))
    return Q(total, k * d)
