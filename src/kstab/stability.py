"""The stability functional on piecewise-linear convex functions.

L(f) = integral of f over the weighted boundary minus A times the integral
over the interior, A = bvol/vol, so constants are annihilated.  Linear
functions give the Futaki vector; creases max(0, <a,x> - c) are the search
family for destabilizers on surfaces.  Every value returned is exact
rational arithmetic, and so is every decision of the crease search: it
orders directions and sub-intervals of offsets by exact lower bounds and
evaluates only the creases whose bound can still reach the ten best.  The
floor sums and Bernstein tools it runs on are kstab._intpoly's.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from kstab._intpoly import bernstein3, bernstein_floor, floor_sum, halves, moebius_blocks
from kstab.polytope import (
    EMPTY,
    BoundaryMeasure,
    Facet,
    Measures,
    Polytope,
    clip,
    integrate_affine,
    measures,
    _frac,
    _point,
    _primitivize,
)

Q = Fraction

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PLConvexFunction:
    """max of finitely many affine pieces <a_i, x> + b_i with rational data."""

    pieces: tuple[tuple[tuple[Q, ...], Q], ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("need at least one affine piece")
        norm = tuple(sorted({(tuple(_frac(c) for c in a), _frac(b)) for a, b in self.pieces}))
        object.__setattr__(self, "pieces", norm)

    @classmethod
    def affine(cls, a: Sequence, b) -> "PLConvexFunction":
        return cls(((tuple(_frac(c) for c in a), _frac(b)),))

    @classmethod
    def crease(cls, a: Sequence, c) -> "PLConvexFunction":
        """max(0, <a, x> - c)."""
        a = tuple(_frac(v) for v in a)
        zero = (Q(0),) * len(a)
        return cls(((zero, Q(0)), (a, -_frac(c))))

    @classmethod
    def abs_coordinate(cls, dim: int, axis: int = 0) -> "PLConvexFunction":
        """|x_axis| as a two-piece function."""
        plus = tuple(Q(1) if i == axis else Q(0) for i in range(dim))
        minus = tuple(-v for v in plus)
        return cls(((plus, Q(0)), (minus, Q(0))))

    @property
    def dim(self) -> int:
        return len(self.pieces[0][0])

    def __call__(self, x: Sequence) -> Q:
        x = _point(x)
        return max(sum(ai * xi for ai, xi in zip(a, x)) + b for a, b in self.pieces)

    def __add__(self, other: "PLConvexFunction") -> "PLConvexFunction":
        # max_i p_i + max_j q_j = max_{ij} (p_i + q_j)
        pieces = []
        for a, b in self.pieces:
            for c, d in other.pieces:
                pieces.append((tuple(ai + ci for ai, ci in zip(a, c)), b + d))
        return PLConvexFunction(tuple(pieces))


def decompose(P: Polytope, f: PLConvexFunction) -> list[tuple[int, Polytope]]:
    """Full-dimensional cells on which one piece of f is maximal.

    Returns (piece index, cell) pairs; pieces that are nowhere maximal are
    dropped (the canonical form of f relative to P).
    """
    cells = []
    pieces = f.pieces
    for i, (ai, bi) in enumerate(pieces):
        cell = P
        dominated = False
        for j, (aj, bj) in enumerate(pieces):
            if i == j:
                continue
            diff = tuple(x - y for x, y in zip(ai, aj))
            if all(d == 0 for d in diff):
                if bi < bj or (bi == bj and j < i):
                    dominated = True
                    break
                continue
            cell = clip(cell, (diff, bj - bi))
            if cell is EMPTY:
                dominated = True
                break
        if not dominated and cell is not EMPTY:
            cells.append((i, cell))
    return cells


def L(P: Polytope, sigma: BoundaryMeasure, f: PLConvexFunction) -> Q:
    """Exact value of the stability functional on f.

    One pass over the cells of f (see decompose): each cell's affine piece
    is integrated over the cell, times A, and over those facets of the cell
    that are facets of P, each with P's sigma-weight times its lattice
    measure (an endpoint has measure 1, an edge its lattice length).  The
    cuts between cells lie inside P and carry no boundary measure.
    """
    A = measures(P, sigma).A
    weight = dict(zip(P.facets, sigma.weights))
    total = Q(0)
    for i, cell in decompose(P, f):
        a, b = f.pieces[i]
        total -= A * integrate_affine(cell, a, b)
        verts = cell.vertices
        for k, facet in enumerate(cell.facets):
            if facet not in weight:
                continue
            # facet k of a cell is vertex k (n = 1) or the edge from vertex k (n = 2)
            face = [verts[(k + j) % len(verts)] for j in range(cell.dim)]
            mid = [sum(c) / cell.dim for c in zip(*face)]
            size = cell.edge_lattice_length(k) if cell.dim == 2 else 1
            total += weight[facet] * size * (sum(ai * xi for ai, xi in zip(a, mid)) + b)
    return total


def futaki_linear(P: Polytope, sigma: BoundaryMeasure) -> tuple[Q, ...]:
    """(L(x_1), ..., L(x_n)): zero iff the two centroids coincide."""
    return _futaki(measures(P, sigma))


def _futaki(m: Measures) -> tuple[Q, ...]:
    return tuple(m.bvol * (bc - c) for bc, c in zip(m.boundary_centroid, m.centroid))


# -- crease search -----------------------------------------------------------

@dataclass(frozen=True)
class CreaseResult:
    direction: tuple[int, ...]
    offset: Q
    L_value: Q
    mass: Q          # integral of the crease over P
    ratio: Q         # L_value / mass

    def function(self) -> PLConvexFunction:
        return PLConvexFunction.crease(self.direction, self.offset)


@dataclass
class StabilityVerdict:
    status: str      # unstable | semistable-boundary | stable-at-resolution
    witness: PLConvexFunction | None
    witness_L: Q | None
    futaki: tuple[Q, ...]
    resolution: int
    n_directions: int = 0
    n_creases: int = 0
    best_creases: list[CreaseResult] = field(default_factory=list)

    def __post_init__(self):
        if self.status not in ("unstable", "semistable-boundary"):
            return
        if self.witness is None or self.witness_L is None:
            raise ValueError(f"a {self.status} verdict needs a witness")
        if self.status == "unstable" and self.witness_L >= 0:
            raise ValueError(f"an unstable verdict needs witness L < 0, got {self.witness_L}")
        if self.status == "semistable-boundary" and self.witness_L != 0:
            raise ValueError(f"a semistable-boundary verdict needs witness L = 0, "
                             f"got {self.witness_L}")


class _IntegerPolygon:
    """P and sigma over common denominators, made once per crease scan.

    verts are D*v for the lcm D of the vertex denominators.  Each boundary
    piece (p, q, mu) runs from verts[p] to verts[q] and carries the
    sigma-weighted lattice measure mu/(D*W), W the lcm of the weight
    denominators.  On a segment the two pieces are its ends (p == q), each
    a point mass of its facet's weight.
    """

    def __init__(self, P: Polytope, sigma: BoundaryMeasure):
        self.D = math.lcm(*(x.denominator for v in P.vertices for x in v))
        self.W = math.lcm(*(w.denominator for w in sigma.weights))
        self.verts = [tuple(int(x * self.D) for x in v) for v in P.vertices]
        wts = [w.numerator * (self.W // w.denominator) for w in sigma.weights]
        if P.dim == 1:                  # facet k is the end verts[k]
            self.edges = [(k, k, self.D * w) for k, w in enumerate(wts)]
        else:
            # the lattice length of a scaled edge is the gcd of its coordinates
            nxt = self.verts[1:] + self.verts[:1]
            self.edges = [(k, (k + 1) % len(nxt), w * math.gcd(q[0] - p[0], q[1] - p[1]))
                          for k, (p, q, w) in enumerate(zip(self.verts, nxt, wts))]


def _sweep(poly: _IntegerPolygon, a: tuple[int, ...]):
    """(brk, bco, ico, bden, iden, btot, itot) of direction a, from one sweep
    of the edges of the scaled polygon, in S = <a, D*v> and C = D*c.

    brk holds the vertex values of S.  The chord of P at level S has width
    w(S)/(D*|a|^2) in lattice units and E*w is piecewise linear with integer
    slopes, E the lcm of the edges' |dS|, so on each piece j the boundary
    term of max(0, <a,x> - c) is sum bco[j][k] S^k over bden = 2*D^2*W*E
    and its mass sum ico[j][k] S^k over iden = 6*D^3*E*|a|^2.  btot and
    itot are those of <a,x> - c over the whole boundary and P, affine in S.
    """
    D = poly.D
    if len(a) == 1:
        S, T = [a[0] * x for x, in poly.verts], None
    else:
        a0, a1 = a
        S = [a0 * x + a1 * y for x, y in poly.verts]
        T = [a0 * y - a1 * x for x, y in poly.verts]
    brk = sorted(set(S))
    at = {s: j for j, s in enumerate(brk)}
    nI = len(brk) - 1
    E = math.lcm(*(abs(S[q] - S[p]) for p, q, _ in poly.edges if S[q] != S[p]))
    # E*w at brk[-1] (unit density on a segment: E = |a|^2 = 1), and at each
    # breakpoint the jumps, upwards, of the rows of 2*D^2*W*E * the boundary
    # term and of the slope of E*w
    w, jumps = (D if T is None else 0), [[0, 0, 0, 0] for _ in range(nI + 1)]
    for p, q, mu in poly.edges:
        lo, hi = (S[p], S[q]) if S[p] < S[q] else (S[q], S[p])
        jump = jumps[at[lo]]
        jump[0] -= E * mu * (lo + hi)   # below lo the whole edge lies above c
        jump[1] += 2 * E * mu
        if lo == hi:                    # an edge along a level line is extreme
            if T is not None and lo == brk[-1]:
                w = E * abs(T[q] - T[p])
            continue
        # between lo and hi the crease crosses the edge; counterclockwise,
        # each edge moves the width by -dT/|dS|
        g = E // (hi - lo)
        f, k, drop = mu * g, (T[p] - T[q]) * g, jumps[at[hi]]
        jump[0] += f * hi * hi
        jump[1] -= 2 * f * hi
        jump[2] += f
        jump[3] += k
        drop[0] -= f * hi * hi
        drop[1] += 2 * f * hi
        drop[2] -= f
        drop[3] -= k
    # from the top down, above which the crease and every row are 0: the
    # boundary rows, E*w = al + be*S on each piece and 6 * the mass from the
    # suffix integrals I1, I2 of E*w and S*E*w; below brk[0] the boundary
    # row is the total of <a,x> - c
    bco, ico = [None] * nI, [None] * nI
    c0 = c1 = c2 = be = I1 = I2 = 0
    for j in range(nI - 1, -1, -1):
        s0, e = brk[j], brk[j + 1]
        d0, d1, d2, dk = jumps[j + 1]
        c0, c1, c2, be = c0 - d0, c1 - d1, c2 - d2, be - dk
        bco[j] = [c0, c1, c2, 0]
        al, e2, s2 = w - be * e, e * e, s0 * s0
        ico[j] = [2 * be * e2 * e + 3 * al * e2 + I2, -(3 * be * e2 + 6 * al * e) - I1, 3 * al, be]
        I1 += 6 * al * (e - s0) + 3 * be * (e2 - s2)
        I2 += 3 * al * (e2 - s2) + 2 * be * (e2 * e - s2 * s0)
        w -= be * (e - s0)
    d0, d1 = jumps[0][:2]
    return (brk, bco, ico, 2 * D * D * poly.W * E, 6 * D ** 3 * E * sum(ai * ai for ai in a),
            (c0 - d0, c1 - d1), (I2, -I1))


def _pieces(brk, bco, ico) -> list[tuple[int, int, list[int], list[int]]]:
    """(s0, h, bb, ib) for each piece S in [s0, s0 + h] of a _sweep, the
    scan's one form of a piece.  With S = s0 + h*t, t in [0, 1], the
    boundary term and the mass are b(t)/bden and i(t)/iden (b = bco,
    i = ico), so L/mass = (iden/bden) * b/i - A; bb and ib are 3 * the
    Bernstein coefficients of b and i, integers free of A."""
    return [(s0, s1 - s0, bernstein3(bc, s0, s1 - s0), bernstein3(ic, s0, s1 - s0))
            for s0, s1, bc, ic in zip(brk, brk[1:], bco, ico)]


def _part_values(part, c: Q, D: int, bden: int, iden: int) -> tuple[Q, Q]:
    """(boundary term, mass) at the offset c = n/d of a part (start, width,
    den, bb, ib), which holds [start/den, (start + width)/den).  Each halving
    doubles den and scales bb and ib by 8, so they are 3*(den/D)^3 times the
    Bernstein coefficients there; c is at t = p/q, p = n*den - start*d and
    q = width*d, so b = sum C(3,k) bb_k p^k (q-p)^(3-k) / (3*(den/D)^3*q^3)."""
    start, width, den, bb, ib = part
    p, q = c.numerator * den - start * c.denominator, width * c.denominator
    r, scale = q - p, 3 * (den // D) ** 3 * q ** 3
    b, i = (((x0 * r + 3 * x1 * p) * r + 3 * x2 * p * p) * r + x3 * p ** 3
            for x0, x1, x2, x3 in (bb, ib))
    return Q(b, scale * bden), Q(i, scale * iden)


def _shifted_floor(low: tuple[int, int], iden: int, bden: int, A: Q) -> Q:
    """The floor (iden/bden) * num/den - A on L/mass, from b/i >= num/den (_pieces)."""
    num, den = low
    return Q(iden * num * A.denominator - A.numerator * bden * den, bden * den * A.denominator)


def _pair_floors(poly: _IntegerPolygon, a: tuple[int, ...], A: Q,
                 blocks: list[tuple[int, int]]) -> tuple[Q | None, Q | None, int]:
    """Exact lower bounds on L/mass over the creases of a and of -a, and the
    offsets of each (_count_offsets), from one sweep.

    A direction's bound is the least of its pieces' bernstein_floor bounds
    on boundary/mass, shifted by A, or None if a piece certifies none.  As
    max(0, <-a,x> - c) = max(0, <a,x> + c) - (<a,x> + c), the pieces of -a
    are those of a in reverse order, at S -> -S, less the totals t of
    <a,x> - c (btot, itot): on each piece, the Bernstein coefficients of a
    reversed less those of t reversed.  -a has the offsets of a negated.
    """
    brk, bco, ico, bden, iden, (b0, b1), (i0, i1) = _sweep(poly, a)
    lows = ([], [])                 # the pieces' floors of a and of -a
    for s0, h, bb, ib in _pieces(brk, bco, ico):
        lows[0].append(bernstein_floor(bb, ib))
        u, v, x, y = b0 + b1 * s0, b0 + b1 * (s0 + h), i0 + i1 * s0, i0 + i1 * (s0 + h)
        lows[1].append(bernstein_floor(
            [bb[3] - 3 * v, bb[2] - u - 2 * v, bb[1] - 2 * u - v, bb[0] - 3 * u],
            [ib[3] - 3 * y, ib[2] - x - 2 * y, ib[1] - 2 * x - y, ib[0] - 3 * x]))
    floors = [None, None]
    for k, pieces in enumerate(lows):
        if None not in pieces:
            best = pieces[0]
            for num, den in pieces[1:]:
                if num * best[1] < best[0] * den:
                    best = num, den
            floors[k] = _shifted_floor(best, iden, bden, A)
    return (*floors, _count_offsets(Q(brk[0], poly.D), Q(brk[-1], poly.D), blocks))


def primitive_directions(dim: int, R: int) -> list[tuple[int, ...]]:
    if dim == 1:
        return [(1,), (-1,)]
    out = []
    for p in range(-R, R + 1):
        for q in range(-R, R + 1):
            if (p, q) == (0, 0):
                continue
            if math.gcd(abs(p), abs(q)) == 1:
                out.append((p, q))
    return out


def admissible_offsets(lo: Q, hi: Q, R: int) -> list[Q]:
    """Rationals with denominator <= R in [lo, hi), each once and in lowest terms.

    Grouped by denominator.  The half-open interval puts each offset in
    exactly one of a row of adjacent intervals.
    """
    out = []
    for den in range(1, R + 1):
        first = -(-lo.numerator * den // lo.denominator)        # ceil(lo * den)
        end = -(-hi.numerator * den // hi.denominator)          # ceil(hi * den)
        out.extend(Q(num, den) for num in range(first, end) if math.gcd(num, den) == 1)
    return out


def _count_offsets(smin: Q, smax: Q, blocks: list[tuple[int, int]]) -> int:
    """The offsets with denominator <= R strictly inside (smin, smax), for
    blocks = moebius_blocks(R).

    G(J) = sum over den <= J of ceil(smax*den) - floor(smin*den) - 1, two
    floor sums, counts the fractions num/den inside, in lowest terms or not.
    Those with gcd(num, den) = e are the offsets of denominator <= J // e,
    so G(J) = sum over e of C(J // e), C(J) the offsets of denominator
    <= J, and Moebius inversion gives C(R) = sum mu(e) * G(R // e).

    Numerators of 2^62 or more (largest at den = R) are refused.  The count
    is exact in Python ints at any size, but a scan over offsets that large
    runs on huge integers: without the refusal, the stable verdict on a
    square of side 1e200 took 1.2 s at R = 1 and 25 s at R = 8 (2 cores).
    """
    p, q, a, b = smin.numerator, smin.denominator, smax.numerator, smax.denominator
    R = blocks[0][0]
    lo, hi = p * R // q + 1, -(-a * R // b) - 1
    if max(abs(lo), abs(hi)) >= 2 ** 62:
        end = smin if abs(lo) >= 2 ** 62 else smax
        raise ValueError(f"crease offsets near {end} exceed the scan's range "
                         "(numerators below 2^62)")
    return sum(M * (-floor_sum(J + 1, b, -a, 0) - floor_sum(J + 1, q, p, 0) - J)
               for J, M in blocks)


_TOP = 10   # creases kept in a verdict


def _rank(r: CreaseResult):
    return (r.ratio, r.direction, r.offset)


def _scan_chunk(args):
    """The exact ten best creases over some directions, plus four counts.

    One heap orders every unevaluated crease by an exact lower bound on its
    ratio, None (no bound) first.  Each direction enters with its floor
    from _pair_floors; a popped direction is swept again and pushes its
    _pieces as parts (start, width, den, bb, ib) (see _part_values), each
    with the bernstein_floor of boundary/mass shifted by A.  A popped part
    wider than 16/R^2 is halved by de Casteljau's rule (halves, on both
    cubics).  Offsets with denominators <= R are at least 1/R^2 apart, so a
    narrower part holds at most 17 of them (admissible_offsets; the first
    part of a direction drops smin), and each is evaluated exactly from
    the part's own coefficients (_part_values).

    Let t be the 10th-best exact ratio so far.  The first popped floor
    strictly above t ends the scan: every crease left in the heap has ratio
    > t, so none can reach the ten best or tie with them.  Returns (best,
    creases, parts split, creases evaluated exactly, directions pruned); the
    creases of all directions are only counted (_count_offsets).  dirs
    holds antipodal pairs, dirs[-1 - k] == -dirs[k]: one sweep of each pair's
    first direction gives the floors of both and one count for each.
    """
    P, sigma, A, dirs, R = args
    poly = _IntegerPolygon(P, sigma)
    blocks = moebius_blocks(R)
    n = len(dirs)
    floors, n_creases = [None] * n, 0
    for k in range(n // 2):
        floors[k], floors[n - 1 - k], count = _pair_floors(poly, dirs[k], A, blocks)
        n_creases += 2 * count
    # (has a floor, floor, push number, direction, part): a whole direction
    # (part None) is its vector until popped; its parts carry (a, smin, bden, iden)
    heap = [(b is not None, b or 0, k, a, None) for k, (b, a) in enumerate(zip(floors, dirs))]
    heapq.heapify(heap)
    tick = itertools.count(len(heap))
    best = []
    n_split = n_exact = n_taken = 0
    while heap:
        bounded, beta, _, dirn, part = heapq.heappop(heap)
        if bounded and len(best) == _TOP and beta > best[-1].ratio:
            break
        if part is None:
            n_taken += 1
            brk, bco, ico, bden, iden, _, _ = _sweep(poly, dirn)
            dirn = (dirn, Q(brk[0], poly.D), bden, iden)
            parts = [(s0, h, poly.D, bb, ib) for s0, h, bb, ib in _pieces(brk, bco, ico)]
        elif part[1] * R * R > 16 * part[2]:
            n_split += 1
            start, width, den, bb, ib = part
            parts = [(2 * start + k * width, width, 2 * den, bh, ih)
                     for k, (bh, ih) in enumerate(zip(halves(bb), halves(ib)))]
        else:
            a, smin, bden, iden = dirn
            start, width, den = part[:3]
            for c in admissible_offsets(Q(start, den), Q(start + width, den), R):
                if c != smin:
                    bval, mass = _part_values(part, c, poly.D, bden, iden)
                    lval = bval - A * mass
                    best.append(CreaseResult(a, c, lval, mass, lval / mass))
                    n_exact += 1
            best = sorted(best, key=_rank)[:_TOP]
            continue
        for new in parts:
            low = bernstein_floor(new[3], new[4])
            heapq.heappush(heap, (low is not None,
                                  _shifted_floor(low, dirn[3], dirn[2], A) if low else 0,
                                  next(tick), dirn, new))
    return best, n_creases, n_split, n_exact, n - n_taken


def crease_search(P: Polytope, sigma: BoundaryMeasure, resolution: int,
                  workers: int | None = None) -> StabilityVerdict:
    """Scan creases max(0, <a,x> - c) up to the given resolution.

    Directions a are primitive integer vectors of sup-height <= resolution;
    offsets c are rationals with denominator <= resolution whose crease line
    meets the interior.  The objective is the scale-invariant ratio
    L(f) / integral of f.  A nonzero Futaki vector short-circuits the
    verdict to unstable with a linear witness, but the scan still runs so
    reports can list the worst creases.

    Each antipodal pair (a, -a) gets exact lower bounds on the ratios of
    both directions from one integer sweep of the edges (_pair_floors), and
    a direction's Bernstein pieces (_pieces) are pushed only when the
    search opens it.  One heap visits directions, then their pieces and
    halves of pieces, in the order of exact Bernstein lower bounds, and
    evaluates the creases of small enough parts in exact Fractions from
    each part's own coefficients; the scan stops at the first bound above
    the 10th-best ratio so far, and the offsets of the directions never
    reached are only counted (_scan_chunk).  Every value reported (L, mass, ratio), the
    ranking by (ratio, direction, offset) and every decision on the way are
    exact.  The numbers of directions pruned, parts split and creases
    evaluated exactly are logged at DEBUG.  workers > 1 deals the
    antipodal pairs of directions out to that many processes, but to no
    more than there are CPUs or pairs, each scanning its share best-first;
    the default scans serially, and workers < 1 is a ValueError.  The
    result does not depend on it.  a (index k in dirs) and -a (index
    N - 1 - k) go to the same share, which sweeps and counts only a.

    Verdicts are "at resolution": stability quantifies over all rational
    piecewise-linear convex functions, so a clean scan is evidence, not a
    proof.  Creases are known to be a sufficient destabilizer family for
    surfaces; in higher dimensions general convex functions may be needed,
    which is one reason the search stops at n = 2.
    """
    if resolution <= 0:
        raise ValueError("resolution must be a positive integer")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    m = measures(P, sigma)
    fut, A = _futaki(m), m.A
    dirs = primitive_directions(P.dim, resolution)
    workers = min(workers or 1, os.cpu_count() or 1, len(dirs) // 2)
    if workers > 1:
        tasks = [(P, sigma, A, [a for k, a in enumerate(dirs)
                                if min(k, len(dirs) - 1 - k) % workers == i], resolution)
                 for i in range(workers)]
        from concurrent.futures import ProcessPoolExecutor     # loaded only for a pool
        with ProcessPoolExecutor(max_workers=workers) as ex:
            chunks = list(ex.map(_scan_chunk, tasks))
    else:
        chunks = [_scan_chunk((P, sigma, A, dirs, resolution))]
    best = sorted((r for chunk in chunks for r in chunk[0]), key=_rank)[:_TOP]
    n_creases, n_split, n_exact, n_pruned = (sum(c[i] for c in chunks) for i in range(1, 5))
    log.debug("crease search: %d of %d directions pruned, %d parts split, "
              "%d creases evaluated exactly", n_pruned, len(dirs), n_split, n_exact)
    meta = dict(resolution=resolution, n_directions=len(dirs), n_creases=n_creases,
                best_creases=best, futaki=fut)
    if any(v != 0 for v in fut):
        witness = PLConvexFunction.affine(tuple(-v for v in fut), Q(0))
        wl = -sum(v * v for v in fut)
        return StabilityVerdict("unstable", witness, wl, **meta)
    if not best:
        return StabilityVerdict("stable-at-resolution", None, None, **meta)
    top = best[0]
    if top.ratio < 0:
        return StabilityVerdict("unstable", top.function(), top.L_value, **meta)
    if top.ratio == 0:
        return StabilityVerdict("semistable-boundary", top.function(), Q(0), **meta)
    return StabilityVerdict("stable-at-resolution", None, None, **meta)


# -- test configurations ------------------------------------------------------

@dataclass
class TestConfiguration:
    """Epigraph polytope Q = {(x, y): x in P, f(x) <= y <= top}."""

    polytope: Polytope
    cells: list[Polytope]
    truncation: Q
    is_product: bool


def test_configuration(P: Polytope, f: PLConvexFunction) -> TestConfiguration:
    """The (n+1)-dimensional toric degeneration data attached to f.

    The epigraph of f over P is truncated above at max_P f + 1 (recorded in
    the result); the cells of the induced decomposition of P are the
    components of the central fibre.
    """
    cells = decompose(P, f)
    fmax = max(f(v) for v in P.vertices)
    top = fmax + 1
    active = sorted({i for i, _ in cells})
    if P.dim == 1:
        pts = [(v[0], f(v)) for _, cell in cells for v in cell.vertices]
        pts += [(v[0], top) for v in P.vertices]
        Qp = Polytope.from_vertices(pts)
        return TestConfiguration(Qp, [c for _, c in cells], top, len(cells) == 1)
    if P.dim != 2:
        raise NotImplementedError("test configurations are built for n <= 2")
    facets = []
    for fc in P.facets:
        facets.append(Facet(fc.normal + (0,), fc.offset))
    seen = set()
    for i in active:
        a, b = f.pieces[i]
        prim, s = _primitivize(tuple(-ai for ai in a) + (Q(1),))
        fac = Facet(prim, b / s)
        if (fac.normal, fac.offset) not in seen:
            seen.add((fac.normal, fac.offset))
            facets.append(fac)
    facets.append(Facet((0, 0, -1), -top))
    verts = {(v[0], v[1], top) for v in P.vertices}
    for _, cell in cells:
        for v in cell.vertices:
            verts.add((v[0], v[1], f(v)))
    Qp = Polytope(3, facets, sorted(verts))
    return TestConfiguration(Qp, [c for _, c in cells], top, len(cells) == 1)
