"""Exact rational convex geometry for moment polytopes.

Polytopes are stored both as vertex lists and as facet inequalities
<nu, x> >= c with primitive integer inward normals nu.  All arithmetic in
this module is exact (fractions.Fraction); floating point enters the
package only in the mesh/solver layers.  In dimension 1 the "facets" are
the two endpoints and the boundary measure is a weighted counting measure;
in dimension 2 the boundary measure on an edge is the lattice measure
(Euclidean length divided by the Euclidean norm of the primitive normal),
optionally rescaled by a positive weight per facet.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Q = Fraction


class DegenerateInputError(ValueError):
    """Input that does not span a full-dimensional polytope."""


class FacetError(ValueError):
    """A bad facet normal; carries the 0-based index of the facet."""

    def __init__(self, index, message):
        self.index = index
        super().__init__(message)


class PolytopeParseError(ValueError):
    """Malformed polytope text; carries a 1-based line number."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _frac(x) -> Q:
    if isinstance(x, Q):
        return x
    if isinstance(x, int):
        return Q(x)
    if isinstance(x, str):
        return Q(x)
    if isinstance(x, float):
        if not x.is_integer():
            raise TypeError(f"refusing inexact float coordinate {x!r}; pass Fraction or string")
        return Q(int(x))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _point(p) -> tuple[Q, ...]:
    return tuple(_frac(c) for c in p)


def _primitivize(vec: Sequence[Q]) -> tuple[tuple[int, ...], Q]:
    """Scale a nonzero rational vector to a primitive integer vector.

    Returns (primitive vector, positive factor s) with vec = s * primitive.
    """
    vec = [_frac(v) for v in vec]
    if all(v == 0 for v in vec):
        raise ValueError("zero vector has no primitive representative")
    den = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * den) for v in vec]
    g = math.gcd(*(abs(i) for i in ints))
    prim = tuple(i // g for i in ints)
    return prim, Q(g, den)


@dataclass(frozen=True)
class Facet:
    """Inequality <normal, x> >= offset with primitive integer inward normal."""

    normal: tuple[int, ...]
    offset: Q

    def value(self, x: Sequence[Q]) -> Q:
        """<normal, x> - offset, summed in integers over one common denominator."""
        num, d = self.offset.as_integer_ratio()
        num = -num
        for n, xi in zip(self.normal, x):
            p, q = xi.as_integer_ratio()
            num, d = num * q + n * p * d, d * q
        return Q(num, d)


@dataclass(frozen=True)
class BoundaryMeasure:
    """One positive rational weight per facet; weight 1 is the lattice measure."""

    weights: tuple[Q, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(_frac(w) for w in self.weights))
        if any(w <= 0 for w in self.weights):
            raise ValueError("boundary measure weights must be positive")

    @classmethod
    def unit(cls, polytope: "Polytope") -> "BoundaryMeasure":
        return cls((Q(1),) * len(polytope.facets))


@dataclass(frozen=True)
class Measures:
    vol: Q
    bvol: Q
    A: Q
    centroid: tuple[Q, ...]
    boundary_centroid: tuple[Q, ...]


class Polytope:
    """Bounded full-dimensional rational convex polytope.

    For n=2 the vertices are stored in counterclockwise order and facet k is
    the edge from vertices[k] to vertices[k+1].  For n=1 vertices are
    (lo, hi) and facets are the endpoint inequalities x >= lo, -x >= -hi.
    Dimension 3 instances (used for test configurations) are built from
    explicit facet/vertex data and support containment and lattice counting
    but not measures.
    """

    def __init__(self, dim: int, facets: Sequence[Facet], vertices: Sequence[tuple[Q, ...]]):
        self.dim = dim
        self.facets = tuple(facets)
        self.vertices = tuple(_point(v) for v in vertices)
        self._validate()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_vertices(cls, points: Iterable[Sequence]) -> "Polytope":
        """Convex hull of rational points (n = 1 or 2).

        Raises DegenerateInputError unless the hull is full-dimensional.
        """
        pts = [_point(p) for p in points]
        if not pts:
            raise DegenerateInputError("no points given")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise ValueError("points of mixed dimension")
        if dim == 1:
            lo, hi = min(p[0] for p in pts), max(p[0] for p in pts)
            if lo == hi:
                raise DegenerateInputError("all points coincide")
            facets = (Facet((1,), lo), Facet((-1,), -hi))
            return cls(1, facets, ((lo,), (hi,)))
        if dim == 2:
            hull = _convex_hull_2d(pts)
            if len(hull) < 3:
                raise DegenerateInputError("points are collinear; hull is not 2-dimensional")
            facets = tuple(_edge_facet(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull)))
            return cls(2, facets, hull)
        raise NotImplementedError("exact hulls are implemented for n <= 2")

    @classmethod
    def from_facets(cls, dim: int, facets: Sequence[tuple[Sequence[int], Q]]) -> "Polytope":
        """Polytope from inequalities <nu, x> >= c with primitive integer nu.

        A normal of the wrong length, zero or not primitive raises FacetError
        with the index of its facet.
        """
        fs = []
        for k, (nu, c) in enumerate(facets):
            nu = tuple(int(n) for n in nu)
            if len(nu) != dim:
                raise FacetError(k, "normal of wrong dimension")
            if all(n == 0 for n in nu):
                raise FacetError(k, "zero facet normal")
            g = math.gcd(*(abs(n) for n in nu))
            if g != 1:
                raise FacetError(k, f"facet normal {nu} is not primitive; divide by {g} "
                                    f"(suggested repair: normal {tuple(n // g for n in nu)}, "
                                    f"offset {_frac(c) / g})")
            fs.append(Facet(nu, _frac(c)))
        if dim == 1:
            return cls._from_facets_1d(fs)
        if dim == 2:
            return cls._from_facets_2d(fs)
        raise NotImplementedError("facet enumeration is implemented for n <= 2")

    @classmethod
    def _from_facets_1d(cls, fs: list[Facet]) -> "Polytope":
        lo = [f.offset for f in fs if f.normal == (1,)]
        hi = [-f.offset for f in fs if f.normal == (-1,)]
        if len(lo) > 1 or len(hi) > 1:
            raise ValueError("facet system contains redundant or repeated inequalities")
        if not lo or not hi or lo[0] >= hi[0]:
            raise DegenerateInputError("facets do not bound a proper interval")
        return cls.from_vertices([(lo[0],), (hi[0],)])

    @classmethod
    def _from_facets_2d(cls, fs: list[Facet]) -> "Polytope":
        cands = []
        m = len(fs)
        for i in range(m):
            for j in range(i + 1, m):
                p = _line_intersection(fs[i], fs[j])
                if p is not None and all(f.value(p) >= 0 for f in fs):
                    cands.append(p)
        hull = _convex_hull_2d(cands)
        if len(hull) < 3:
            raise DegenerateInputError("facets do not bound a 2-dimensional polytope")
        P = cls.from_vertices(hull)
        if len(P.facets) != m:
            raise ValueError("facet system contains redundant or repeated inequalities")
        return P

    def _validate(self):
        for v in self.vertices:
            for f in self.facets:
                if f.value(v) < 0:
                    raise ValueError(f"vertex {v} violates facet {f.normal} >= {f.offset}")
        for f in self.facets:
            g = math.gcd(*(abs(n) for n in f.normal))
            if g != 1:
                raise ValueError(f"facet normal {f.normal} is not primitive")
            on = sum(1 for v in self.vertices if f.value(v) == 0)
            if on < self.dim:
                raise ValueError(f"facet {f.normal} >= {f.offset} supports no face")

    # -- basic queries -----------------------------------------------------

    def contains(self, x: Sequence) -> bool:
        x = _point(x)
        return all(f.value(x) >= 0 for f in self.facets)

    def bounding_box(self) -> tuple[tuple[Q, Q], ...]:
        return tuple(
            (min(v[a] for v in self.vertices), max(v[a] for v in self.vertices))
            for a in range(self.dim))

    def edge_lattice_length(self, k: int) -> Q:
        """Lattice length of facet k (n=2): |q - p| / |nu|, an exact rational."""
        if self.dim != 2:
            raise ValueError("edge_lattice_length is 2-dimensional")
        p = self.vertices[k]
        q = self.vertices[(k + 1) % len(self.vertices)]
        nu = self.facets[k].normal
        perp = (-nu[1], nu[0])
        # q - p is parallel to perp and |perp| = |nu|
        d = (q[0] - p[0], q[1] - p[1])
        t = d[0] / perp[0] if perp[0] != 0 else d[1] / perp[1]
        return abs(t)

    def is_box(self) -> bool:
        """True iff every facet is axis-aligned (product of intervals)."""
        return all(sum(1 for n in f.normal if n != 0) == 1 and
                   max(abs(n) for n in f.normal) == 1 for f in self.facets)

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, facets={len(self.facets)})"

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        return (self.dim == other.dim and set(self.vertices) == set(other.vertices)
                and set(self.facets) == set(other.facets))

    def __hash__(self):
        return hash((self.dim, frozenset(self.vertices), frozenset(self.facets)))


# -- hull and facet helpers -------------------------------------------------

def _cross(o, a, b) -> Q:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull_2d(pts: list[tuple[Q, Q]]) -> list[tuple[Q, Q]]:
    """Monotone chain; returns extreme points in CCW order (collinear dropped)."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _edge_facet(p: tuple[Q, Q], q: tuple[Q, Q]) -> Facet:
    """Inward facet of the CCW edge p -> q (interior lies to the left)."""
    d = (q[0] - p[0], q[1] - p[1])
    nu, _ = _primitivize((-d[1], d[0]))
    c = nu[0] * p[0] + nu[1] * p[1]
    return Facet(nu, c)


def _line_intersection(f: Facet, g: Facet):
    det = f.normal[0] * g.normal[1] - f.normal[1] * g.normal[0]
    if det == 0:
        return None
    x = (f.offset * g.normal[1] - g.offset * f.normal[1]) / det
    y = (f.normal[0] * g.offset - g.normal[0] * f.offset) / det
    return (Q(x), Q(y))


# -- operations --------------------------------------------------------------

def is_delzant(P: Polytope) -> bool:
    """True iff at each vertex exactly n facets meet with |det| = 1 normals."""
    if P.dim == 1:
        return True
    if P.dim != 2:
        raise NotImplementedError("is_delzant is implemented for n <= 2")
    for v in P.vertices:
        active = [f.normal for f in P.facets if f.value(v) == 0]
        if len(active) != 2:
            return False
        det = active[0][0] * active[1][1] - active[0][1] * active[1][0]
        if abs(det) != 1:
            return False
    return True


def measures(P: Polytope, sigma: BoundaryMeasure | None = None) -> Measures:
    """Exact volume, sigma-boundary volume, A = bvol/vol, and both centroids."""
    if sigma is None:
        sigma = BoundaryMeasure.unit(P)
    if len(sigma.weights) != len(P.facets):
        raise ValueError("one weight per facet required")
    if P.dim == 1:
        (lo,), (hi,) = P.vertices
        vol = hi - lo
        w = {f.normal: wk for f, wk in zip(P.facets, sigma.weights)}
        w_lo, w_hi = w[(1,)], w[(-1,)]
        bvol = w_lo + w_hi
        centroid = ((lo + hi) / 2,)
        bc = ((w_lo * lo + w_hi * hi) / bvol,)
        return Measures(vol, bvol, bvol / vol, centroid, bc)
    if P.dim != 2:
        raise NotImplementedError("measures is implemented for n <= 2")
    verts = P.vertices
    m = len(verts)
    twice_area = Q(0)
    cx = cy = Q(0)
    for i in range(m):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % m]
        s = x0 * y1 - x1 * y0
        twice_area += s
        cx += (x0 + x1) * s
        cy += (y0 + y1) * s
    vol = twice_area / 2
    centroid = (cx / (3 * twice_area), cy / (3 * twice_area))
    bvol = Q(0)
    bx = by = Q(0)
    for k in range(m):
        ell = P.edge_lattice_length(k) * sigma.weights[k]
        p, q = verts[k], verts[(k + 1) % m]
        bvol += ell
        bx += ell * (p[0] + q[0]) / 2
        by += ell * (p[1] + q[1]) / 2
    return Measures(vol, bvol, bvol / vol, centroid, (bx / bvol, by / bvol))


class EmptyClip:
    """Marker for an empty (or lower-dimensional) clip result."""

    def __bool__(self):
        return False

    def __repr__(self):
        return "EmptyClip()"


EMPTY = EmptyClip()


def clip(P: Polytope, halfspace: tuple[Sequence, object]):
    """P intersected with {<a, x> >= c}; returns EMPTY if not full-dimensional.

    The halfspace data may be rational; it is rescaled to a primitive
    integer normal internally.
    """
    a, c = halfspace
    a = [_frac(v) for v in a]
    c = _frac(c)
    nu, s = _primitivize(a)
    c = c / s
    if P.dim == 1:
        (lo,), (hi,) = P.vertices
        if nu == (1,):
            lo = max(lo, c)
        else:
            hi = min(hi, -c)
        if lo >= hi:
            return EMPTY
        return Polytope.from_vertices([(lo,), (hi,)])
    if P.dim != 2:
        raise NotImplementedError("clip is implemented for n <= 2")
    out = _clip_ring(P.vertices, nu, c)
    if len(out) < 3:
        return EMPTY
    hull = _convex_hull_2d(out)
    if len(hull) < 3:
        return EMPTY
    return Polytope.from_vertices(hull)


def _clip_ring(ring: Sequence[tuple[Q, Q]], nu: tuple[int, int], c: Q) -> list[tuple[Q, Q]]:
    """Sutherland-Hodgman pass keeping {<nu, x> >= c}."""
    def val(p):
        return nu[0] * p[0] + nu[1] * p[1] - c

    out = []
    m = len(ring)
    for i in range(m):
        p, q = ring[i], ring[(i + 1) % m]
        vp, vq = val(p), val(q)
        if vp >= 0:
            out.append(p)
        if (vp > 0 > vq) or (vp < 0 < vq):
            t = vp / (vp - vq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def integrate_affine(P: Polytope, a: Sequence, b) -> Q:
    """Exact integral over P of <a, x> + b with respect to Lebesgue measure."""
    m = measures(P)
    a = [_frac(v) for v in a]
    return m.vol * (sum(ai * ci for ai, ci in zip(a, m.centroid)) + _frac(b))


# -- text format --------------------------------------------------------------

def _parse_rational(token: str) -> Q:
    """Fraction(token), refusing a decimal exponent that would build a number
    of more digits than int() parses (sys.get_int_max_str_digits()); every
    refusal, a zero denominator included, is a ValueError naming the token."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    mantissa, has_exponent, exponent = token.lower().partition("e")
    try:
        digits = len(mantissa) + abs(int(exponent)) if has_exponent else 0
    except ValueError:
        digits = 0   # not a number; Fraction says so below
    if digits > limit:
        raise ValueError(f"{token!r} would have more than {limit} digits")
    try:
        return Q(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational {token!r}") from None


def parse_polytope_text(text: str) -> tuple[Polytope, BoundaryMeasure]:
    """Parse the documented polytope text format.

    Raises PolytopeParseError with a line number on malformed input; a
    non-primitive facet normal is rejected (by Polytope.from_facets) with a
    repair suggestion.
    """
    def rational(token, line_no, line):
        try:
            return _parse_rational(token)
        except ValueError as e:
            raise PolytopeParseError(line_no, f"{e} in {line!r}") from None

    lines = text.splitlines()
    rows = []
    for i, raw in enumerate(lines, start=1):
        s = raw.split("#", 1)[0].strip()
        if s:
            rows.append((i, s))
    if not rows:
        raise PolytopeParseError(1, "empty polytope file")
    ln, head = rows[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "dim":
        raise PolytopeParseError(ln, "expected 'dim N' header")
    try:
        dim = int(parts[1])
    except ValueError:
        raise PolytopeParseError(ln, f"bad dimension {parts[1]!r}") from None
    if dim not in (1, 2):
        raise PolytopeParseError(ln, "only dim 1 and 2 are supported")
    if len(rows) < 2:
        raise PolytopeParseError(ln, "missing 'vertices' or 'facets' section")
    ln2, mode = rows[1]
    if mode not in ("vertices", "facets"):
        raise PolytopeParseError(ln2, "expected 'vertices' or 'facets'")
    body = rows[2:]
    if mode == "vertices":
        pts = []
        for ln3, s in body:
            toks = s.split()
            if len(toks) != dim:
                raise PolytopeParseError(ln3, f"expected {dim} coordinates, got {len(toks)}")
            pts.append(tuple(rational(t, ln3, s) for t in toks))
        try:
            P = Polytope.from_vertices(pts)
        except DegenerateInputError as e:
            raise PolytopeParseError(body[0][0] if body else ln2, str(e)) from None
        return P, BoundaryMeasure.unit(P)
    facets = []
    weights = {}   # by normal: the normals of a valid facet system are distinct
    for ln3, s in body:
        toks = s.split()
        if len(toks) not in (dim + 1, dim + 2):
            raise PolytopeParseError(
                ln3, f"expected '{'nu ' * dim}c [w]' ({dim + 1} or {dim + 2} fields)")
        try:
            nu = tuple(int(t) for t in toks[:dim])
        except ValueError:
            raise PolytopeParseError(ln3, "facet normals must be integers") from None
        c = rational(toks[dim], ln3, s)
        w = rational(toks[dim + 1], ln3, s) if len(toks) == dim + 2 else Q(1)
        if w <= 0:
            raise PolytopeParseError(ln3, "sigma-weight must be positive")
        facets.append((nu, c))
        weights[nu] = w
    try:
        P = Polytope.from_facets(dim, facets)
    except FacetError as e:
        raise PolytopeParseError(body[e.index][0], str(e)) from None
    except ValueError as e:
        raise PolytopeParseError(body[0][0] if body else ln2, str(e)) from None
    return P, BoundaryMeasure(tuple(weights[f.normal] for f in P.facets))

