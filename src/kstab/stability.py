"""The stability functional on piecewise-linear convex functions.

L(f) = integral of f over the weighted boundary minus A times the integral
over the interior, A = bvol/vol, so constants are annihilated.  Linear
functions give the Futaki vector; creases max(0, <a,x> - c) are the search
family for destabilizers on surfaces.  Every value returned is exact
rational arithmetic, and so is every decision of the crease search: it
orders directions and sub-intervals of offsets by exact lower bounds and
evaluates only the creases whose bound can still reach the ten best.
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

from kstab.polytope import (
    EMPTY,
    BoundaryMeasure,
    Facet,
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
    m = measures(P, sigma)
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


class _DirectionProfile:
    """Exact piecewise polynomials c -> (boundary term, interior mass).

    For a fixed integer direction a, the boundary integral of
    max(0, <a,x> - c) is piecewise quadratic in c and the interior integral
    is piecewise cubic, with breakpoints at the vertex values of <a, x>.

    Both are built in integers on the scaled polygon, in S = <a, D*v> and
    C = D*c.  The chord of P at level S has width w(S)/(D*|a|^2) in lattice
    units; E*w is piecewise linear with integer slopes, E the lcm of the
    edges' |dS|, so one sweep of the edges gives it at every breakpoint.
    The boundary term is then an integer quadratic in C over 2*D^2*W*E and
    the mass an integer cubic over 6*D^3*E*|a|^2.  Values stay integers
    until eval returns them as Fractions.
    """

    def __init__(self, poly: _IntegerPolygon, a: tuple[int, ...]):
        self.a = a
        D = poly.D
        S = [sum(ai * x for ai, x in zip(a, v)) for v in poly.verts]
        brk = sorted(set(S))
        at = {s: j for j, s in enumerate(brk)}
        nI = len(brk) - 1
        E = math.lcm(*(abs(S[q] - S[p]) for p, q, _ in poly.edges if S[q] != S[p]))
        # E*w at brk[0], and the jumps of its slope at each breakpoint
        dslope = [0] * (nI + 1)
        if len(a) == 1:
            w = D                       # unit density: E = |a|^2 = 1
        else:
            T = [a[0] * y - a[1] * x for x, y in poly.verts]
            w = 0
            for p, q, _ in poly.edges:
                if S[q] == S[p]:        # an edge along a level line is extreme
                    if S[p] == brk[0]:
                        w = E * abs(T[q] - T[p])
                    continue
                # counterclockwise, each edge moves the width by -dT/|dS|
                k = -(T[q] - T[p]) * (E // abs(S[q] - S[p]))
                dslope[at[min(S[p], S[q])]] += k
                dslope[at[max(S[p], S[q])]] -= k
        lines = []                      # E*w(S) = al + be*S on piece j
        be = 0
        for j in range(nI):
            be += dslope[j]
            lines.append((w - be * brk[j], be))
            w += be * (brk[j + 1] - brk[j])
        # 6 * the mass, from suffix integrals of E*w and S*E*w
        ico = [None] * nI
        I1 = I2 = 0
        for j in range(nI - 1, -1, -1):
            (al, be), s0, e = lines[j], brk[j], brk[j + 1]
            ico[j] = [2 * be * e ** 3 + 3 * al * e * e + I2,
                      -(3 * be * e * e + 6 * al * e) - I1, 3 * al, be]
            I1 += 6 * al * (e - s0) + 3 * be * (e * e - s0 * s0)
            I2 += 3 * al * (e * e - s0 * s0) + 2 * be * (e ** 3 - s0 ** 3)
        # 2 * D^2 * W * E * the boundary term
        bco = [[0, 0, 0, 0] for _ in range(nI)]
        for p, q, mu in poly.edges:
            lo, hi = min(S[p], S[q]), max(S[p], S[q])
            for j in range(at[lo]):           # the whole piece lies above c
                bco[j][0] += E * mu * (lo + hi)
                bco[j][1] -= 2 * E * mu
            for j in range(at[lo], at[hi]):   # the crease crosses the piece
                f = mu * (E // (hi - lo))
                bco[j][0] += f * hi * hi
                bco[j][1] -= 2 * f * hi
                bco[j][2] += f
        # numerators of the coefficients of S^k, over _bden and _iden
        self._D, self._brk = D, brk
        self._bden = 2 * D * D * poly.W * E
        self._iden = 6 * D ** 3 * E * sum(ai * ai for ai in a)
        self._bco, self._ico, self._itot = bco, ico, (I2, -I1)
        self._btot = (E * sum(mu * (S[p] + S[q]) for p, q, mu in poly.edges),
                      -2 * E * sum(mu for _, _, mu in poly.edges))
        self.smin, self.smax = Q(brk[0], D), Q(brk[-1], D)

    def mirrored(self) -> "_DirectionProfile":
        """The profile of -a, equal to a fresh build, without a sweep.

        max(0, <-a,x> - c) = max(0, <a,x> + c) - (<a,x> + c): the pieces of
        -a are those of a in reverse order, at S -> -S, less the totals t of
        <a,x> - c over all of the boundary (_btot) and of P (_itot).
        """
        def flip(rows, t):
            return [[c0 - t[0], t[1] - c1, c2, -c3] for c0, c1, c2, c3 in reversed(rows)]

        m = object.__new__(type(self))
        m.__dict__.update(vars(self))
        m.a, m._brk = tuple(-x for x in self.a), [-s for s in reversed(self._brk)]
        m._bco, m._ico = flip(self._bco, self._btot), flip(self._ico, self._itot)
        m._btot, m._itot = (-self._btot[0], self._btot[1]), (-self._itot[0], self._itot[1])
        m.smin, m.smax = -self.smax, -self.smin
        return m

    def eval(self, c: Q) -> tuple[Q, Q]:
        """(boundary integral, interior mass) of max(0, <a,x> - c)."""
        n, d = c.numerator, c.denominator
        # c lies in piece j, j the number of inner breakpoints S/D <= c, iff ceil(S*d/D) <= n
        j = sum(1 for s in self._brk[1:-1] if -(-s * d // self._D) <= n)
        # both rows have four coefficients in S = D*n/d: numerators over den * d^3
        return (Q(_horner_int(self._bco[j], self._D * n, d), self._bden * d ** 3),
                Q(_horner_int(self._ico[j], self._D * n, d), self._iden * d ** 3))

    def pieces(self, A: Q) -> list[tuple[int, int, list[int], list[int]]]:
        """(s0, h, lb, mb) for each piece S in [s0, s0 + h] of the profile.

        With S = s0 + h*t for t in [0, 1], L/mass = l(t) / m(t) for integer
        cubics l = bco*iden*Ad - An*ico*bden and m = ico*bden*Ad (A = An/Ad);
        lb and mb are three times their Bernstein coefficients of degree 3,
        which are integers.
        """
        bden, iden, An, Ad = self._bden, self._iden, A.numerator, A.denominator
        kl, kb, km = iden * Ad, An * bden, bden * Ad    # l = bco*kl - ico*kb, m = ico*km
        return [(s0, s1 - s0,
                 _bernstein3([b * kl - i * kb for b, i in zip(bc, ic)], s0, s1 - s0),
                 _bernstein3([i * km for i in ic], s0, s1 - s0))
                for s0, s1, bc, ic in zip(self._brk, self._brk[1:], self._bco, self._ico)]

    def ratio_floor(self, A: Q) -> Q | None:
        """A rational beta <= L/mass at every offset of the direction, or None.

        The least of the pieces' _bernstein_floor, compared in integers; None
        means some piece's coefficients certify no bound.
        """
        best = None                     # (num, den), den > 0
        for _, _, lb, mb in self.pieces(A):
            low = _bernstein_floor(lb, mb)
            if low is None:
                return None
            if best is None or low[0] * best[1] < best[0] * low[1]:
                best = low
        return Q(*best)


def _bernstein_floor(lb: list[int], mb: list[int]) -> tuple[int, int] | None:
    """(num, den), den > 0, with num/den <= l/m wherever m > 0 on [0, 1], or None.

    lb and mb are (multiples of) the Bernstein coefficients of l and m.  The
    basis is nonnegative on [0, 1], so l >= beta * m holds wherever it holds
    coefficient by coefficient: beta is the least l_i / m_i over m_i > 0,
    valid when every l_i with m_i <= 0 passes the same test.  This is the
    Bernstein range bound (Garloff 1986; Farouki and Rajan 1987).
    """
    low = None
    for li, mi in zip(lb, mb):
        if mi > 0 and (low is None or li * low[1] < low[0] * mi):
            low = (li, mi)
    if low is None or any(li * low[1] < low[0] * mi for li, mi in zip(lb, mb) if mi <= 0):
        return None
    return low


def _halves(b: list[int]) -> tuple[list[int], list[int]]:
    """8 * the Bernstein coefficients of a cubic on [0, 1/2] and on [1/2, 1] (de Casteljau)."""
    b0, b1, b2, b3 = b
    c0, c1, c2 = b0 + b1, b1 + b2, b2 + b3
    d0, d1 = c0 + c1, c1 + c2
    return [8 * b0, 4 * c0, 2 * d0, d0 + d1], [d0 + d1, 2 * d1, 4 * c2, 8 * b3]


def _horner_int(coef: list[int], n: int, d: int) -> int:
    """d^k * sum coef[i] (n/d)^i, k = len(coef) - 1, by Horner's rule in integers."""
    acc, dpow = 0, 1
    for ci in reversed(coef):
        acc = acc * n + ci * dpow
        dpow *= d
    return acc


def _bernstein3(p: list[int], s0: int, h: int) -> list[int]:
    """3 * the Bernstein coefficients on [0, 1] of t -> sum p[k] (s0 + h*t)^k."""
    p0, p1, p2, p3 = p
    q0 = ((p3 * s0 + p2) * s0 + p1) * s0 + p0
    q1 = ((3 * p3 * s0 + 2 * p2) * s0 + p1) * h
    q2 = (3 * p3 * s0 + p2) * h * h
    q3 = p3 * h ** 3
    return [3 * q0, 3 * q0 + q1, 3 * q0 + 2 * q1 + q2, 3 * (q0 + q1 + q2 + q3)]


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


def _moebius_divisors(R: int) -> list[list[tuple[int, int]]]:
    """For each den in 1..R, the pairs (e, mu(e)) over the squarefree divisors e of den."""
    mu = [0, 1] + [None] * (R - 1)
    for n in range(2, R + 1):
        p = next(p for p in range(2, n + 1) if n % p == 0)      # least prime factor
        mu[n] = 0 if (n // p) % p == 0 else -mu[n // p]
    return [[(e, mu[e]) for e in range(1, den + 1) if den % e == 0 and mu[e]]
            for den in range(1, R + 1)]


def _count_offsets(smin: Q, smax: Q, divisors: list[list[tuple[int, int]]]) -> int:
    """The offsets with denominator <= R strictly inside (smin, smax), for
    divisors = _moebius_divisors(R).

    For each den, the numerators lo..hi inside the interval and prime to den
    number sum mu(e) * (multiples of e in lo..hi) over the squarefree
    divisors e of den.  Numerators of 2^62 or more are refused.
    """
    total = 0
    for den, divs in enumerate(divisors, 1):
        lo = smin.numerator * den // smin.denominator + 1
        hi = -(-smax.numerator * den // smax.denominator) - 1
        if max(abs(lo), abs(hi)) >= 2 ** 62:
            end = smin if abs(lo) >= 2 ** 62 else smax
            raise ValueError(f"crease offsets near {end} exceed the int64 range")
        total += sum(m * (hi // e - (lo - 1) // e) for e, m in divs)
    return total


_TOP = 10   # creases kept in a verdict


def _rank(r: CreaseResult):
    return (r.ratio, r.direction, r.offset)


def _scan_chunk(args):
    """The exact ten best creases over some directions, plus four counts.

    One heap orders every unevaluated crease by an exact lower bound on its
    ratio, None (no bound) first.  Each direction enters with its
    ratio_floor; a popped direction pushes its pieces as parts.  A part
    (start, width, den, lb, mb) holds the offsets in [start/den, (start +
    width)/den) and the Bernstein coefficients of l and m there (see
    _DirectionProfile.pieces), and is pushed with their _bernstein_floor.
    A popped part wider than 16/R^2 is split in two by de Casteljau's rule
    at 1/2 (_halves).  Offsets with denominators <= R are at least 1/R^2
    apart, so a narrower part holds at most 17 of them (admissible_offsets;
    the first part of a direction drops smin), and each is evaluated
    exactly.

    Let t be the 10th-best exact ratio so far.  The first popped floor
    strictly above t ends the scan: every crease left in the heap has ratio
    > t, so none can reach the ten best or tie with them.  Returns (best,
    creases, parts split, creases evaluated exactly, directions pruned); the
    creases of all directions are only counted (_count_offsets).  Of a and
    -a in dirs, only the first is built and counted: the second gets its
    mirrored profile and the same count, as its offsets are the negated ones.
    """
    P, sigma, A, dirs, R = args
    poly = _IntegerPolygon(P, sigma)
    divisors = _moebius_divisors(R)
    built = {}                          # direction -> (profile, offset count), in dirs order
    for a in dirs:
        pair = built.get(tuple(-x for x in a))
        prof = pair[0].mirrored() if pair else _DirectionProfile(poly, a)
        built[a] = (prof, pair[1] if pair else _count_offsets(prof.smin, prof.smax, divisors))
    profs = [prof for prof, _ in built.values()]
    n_creases = sum(count for _, count in built.values())
    # (has a floor, floor, push number, profile, part); part None is the whole direction
    floors = [prof.ratio_floor(A) for prof in profs]
    heap = [(b is not None, b or 0, k, prof, None)
            for k, (b, prof) in enumerate(zip(floors, profs))]
    heapq.heapify(heap)
    tick = itertools.count(len(heap))
    best = []
    n_split = n_exact = n_taken = 0
    while heap:
        bounded, beta, _, prof, part = heapq.heappop(heap)
        if bounded and len(best) == _TOP and beta > best[-1].ratio:
            break
        if part is None:
            n_taken += 1
            parts = [(s0, h, prof._D, lb, mb) for s0, h, lb, mb in prof.pieces(A)]
        elif part[1] * R * R > 16 * part[2]:
            n_split += 1
            start, width, den, lb, mb = part
            parts = [(2 * start + k * width, width, 2 * den, lh, mh)
                     for k, (lh, mh) in enumerate(zip(_halves(lb), _halves(mb)))]
        else:
            start, width, den = part[:3]
            for c in admissible_offsets(Q(start, den), Q(start + width, den), R):
                if c != prof.smin:
                    bval, mass = prof.eval(c)
                    lval = bval - A * mass
                    best.append(CreaseResult(prof.a, c, lval, mass, lval / mass))
                    n_exact += 1
            best = sorted(best, key=_rank)[:_TOP]
            continue
        for new in parts:
            low = _bernstein_floor(new[3], new[4])
            heapq.heappush(heap, (low is not None, Q(*low) if low else 0, next(tick), prof, new))
    return best, n_creases, n_split, n_exact, len(profs) - n_taken


def crease_search(P: Polytope, sigma: BoundaryMeasure, resolution: int,
                  workers: int | None = None) -> StabilityVerdict:
    """Scan creases max(0, <a,x> - c) up to the given resolution.

    Directions a are primitive integer vectors of sup-height <= resolution;
    offsets c are rationals with denominator <= resolution whose crease line
    meets the interior.  The objective is the scale-invariant ratio
    L(f) / integral of f.  A nonzero Futaki vector short-circuits the
    verdict to unstable with a linear witness, but the scan still runs so
    reports can list the worst creases.

    Each direction's exact profile is built in integers (_DirectionProfile),
    with an exact lower bound on its ratios.  One heap visits directions,
    then their pieces and halves of pieces, in the order of exact Bernstein
    lower bounds, and evaluates the creases of small enough parts in exact
    Fractions; the scan stops at the first bound above the 10th-best ratio
    so far, and the offsets of the directions never reached are only
    counted (_scan_chunk).  Every value reported (L, mass, ratio), the
    ranking by (ratio, direction, offset) and every decision on the way are
    exact.  The numbers of directions pruned, parts split and creases
    evaluated exactly are logged at DEBUG.  workers > 1 deals the
    directions out to that many processes, but to no more than there are
    CPUs or directions, each scanning its share best-first; the default
    scans serially, and workers < 1 is a ValueError.  The result does not
    depend on it.  a (index k in dirs) and -a (index N - 1 - k) go to the
    same share, which builds and counts only one of them.

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
    fut = futaki_linear(P, sigma)
    A = measures(P, sigma).A
    dirs = primitive_directions(P.dim, resolution)
    workers = min(workers or 1, os.cpu_count() or 1, len(dirs))
    if workers > 1 and len(dirs) > 4:
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
