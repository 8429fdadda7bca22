import itertools
import logging
import math
import random
import time
from fractions import Fraction as Q

import pytest

from kstab._intpoly import interpolate_consecutive
from kstab.futaki import (
    ExpansionFit,
    NonIntegralPolytopeError,
    count_and_weigh,
    expansion,
    expansion_exact,
    filtration_futaki,
)
from kstab import futaki
from kstab.polytope import BoundaryMeasure, Polytope, measures
from kstab.stability import L, PLConvexFunction, futaki_linear
from kstab import stability as stab

from conftest import (lattice_points, oracle_ceiling_sum, oracle_filtration_futaki,
                      oracle_row_sums, oracle_row_weights, random_integral_polygon,
                      random_polygon, unimodular_image)


def box_lattice_points(P, k):
    """Oracle: every point of the bounding box of k*P, tested against every facet.

    This is the scan lattice_points used before it went row by row; it
    costs O(k^n * #facets) and yields the points in the same order.
    """
    tests = [(f.normal, f.offset.numerator, f.offset.denominator) for f in P.facets]
    ranges = [range(math.ceil(lo * k), math.floor(hi * k) + 1) for lo, hi in P.bounding_box()]
    for m in itertools.product(*ranges):
        if all(q * sum(n * mi for n, mi in zip(nu, m)) >= k * p for nu, p, q in tests):
            yield m


def oracle_count_and_weigh(P, xi, k):
    pts = list(box_lattice_points(P, k))
    return len(pts), sum(sum(x * mi for x, mi in zip(xi, m)) for m in pts)


@pytest.fixture
def fixture_polytopes(segment01, segment_sym, square, trapezoid, unstable_hexagon):
    return [segment01, segment_sym, square, trapezoid, unstable_hexagon[0],
            Polytope.from_vertices([(0, 0), (6, 0), (0, 3)])]


def configuration_polytopes():
    """3D test configurations; the integral ones come from integral creases."""
    sq2 = Polytope.from_vertices([(0, 0), (2, 0), (2, 2), (0, 2)])
    trap = Polytope.from_vertices([(0, 0), (2, 0), (1, 1), (0, 1)])
    integral = [stab.test_configuration(sq2, PLConvexFunction.crease((1, 0), 1)).polytope,
                stab.test_configuration(trap, PLConvexFunction.crease((1, 1), 1)).polytope]
    rational = [stab.test_configuration(trap, PLConvexFunction.crease((1, 0), Q(1, 2))).polytope]
    return integral, rational


class TestCountAndWeigh:
    def test_square_k2_against_bruteforce(self, square):
        wd = count_and_weigh(square, (1, 0), 2)
        # independent oracle: exhaustive double loop
        pts = [(i, j) for i in range(3) for j in range(3)]
        assert wd.d_k == len(pts) == 9
        assert wd.w_k == sum(i for i, _ in pts) == 9
        assert wd.F_k == Q(1, 2)

    def test_segment_symmetry(self, segment01):
        for k in (1, 2, 5, 11):
            assert count_and_weigh(segment01, (1,), k).F_k == Q(1, 2)

    def test_simplex(self):
        tri = Polytope.from_vertices([(0, 0), (1, 0), (0, 1)])
        wd = count_and_weigh(tri, (1, 0), 1)
        assert (wd.d_k, wd.w_k, wd.F_k) == (3, 1, Q(1, 3))

    def test_non_integral_rejected(self):
        P = Polytope.from_vertices([(0, 0), (Q(1, 2), 0), (0, Q(1, 2))])
        with pytest.raises(NonIntegralPolytopeError, match="rescale"):
            count_and_weigh(P, (1, 0), 3)

    def test_weight_additive_in_xi(self, trapezoid):
        for k in (1, 2, 3):
            a = count_and_weigh(trapezoid, (1, 0), k).w_k
            b = count_and_weigh(trapezoid, (0, 1), k).w_k
            c = count_and_weigh(trapezoid, (1, 1), k).w_k
            assert c == a + b


class TestEhrhart:
    def test_square_counts(self, square):
        for k in range(1, 21):
            assert count_and_weigh(square, (1, 0), k).d_k == (k + 1) ** 2

    def test_polynomial_interpolation_reproduces_counts(self):
        rng = random.Random(7)
        for _ in range(5):
            P = random_integral_polygon(rng)
            counts = [count_and_weigh(P, (1, 0), k).d_k for k in range(1, 13)]
            poly, D = interpolate_consecutive(1, counts[:3])
            assert poly[0] == D     # Ehrhart's constant term d_0 = 1
            for k in range(1, 13):
                assert sum(c * k ** j for j, c in enumerate(poly)) == D * counts[k - 1]

    def test_inconsistent_counts_raise(self, trapezoid, monkeypatch):
        # d_k or w_k off by one at k = 4, or at every k: the latter still
        # fits polynomials of degrees n and n + 1, but not d_0 = 1 or w_0 = 0
        real = futaki.count_and_weigh

        def off_by_one(attr, ks):
            def fake(P, xi, k):
                wd = real(P, xi, k)
                if k not in ks:
                    return wd
                d, w = wd.d_k + (attr == "d"), wd.w_k + (attr == "w")
                return futaki.WeightData(k, d, w, Q(w, k * d))
            return fake

        for attr, ks in itertools.product("dw", ({4}, range(1, 10))):
            monkeypatch.setattr(futaki, "count_and_weigh", off_by_one(attr, ks))
            with pytest.raises(ArithmeticError, match="do not fit"):
                expansion_exact(trapezoid, (1, 0))
            with pytest.raises(ArithmeticError, match=r"at k = 2\.\.5 do not fit"):
                expansion(trapezoid, (1, 0), 2, 5)


class TestExpansion:
    def test_segment_exact_constant(self, segment01):
        fit = expansion(segment01, (1,), 2, 8)
        assert fit == ExpansionFit(Q(1, 2), Q(0), Q(0), (2, 8))

    def test_range_check(self, segment01):
        with pytest.raises(ValueError, match=">= 3 to interpolate d_k and w_k"):
            expansion(segment01, (1,), 5, 7)
        # a 3-dimensional w_k needs five rows
        P = configuration_polytopes()[0][0]
        with pytest.raises(ValueError, match=">= 4 to interpolate d_k and w_k"):
            expansion(P, (1, 0, 0), 1, 4)
        exact = expansion_exact(P, (1, 0, 0))
        assert expansion(P, (1, 0, 0), 1, 5) == ExpansionFit(*exact, (1, 5))

    def test_square_futaki_vanishes(self, square):
        fit = expansion(square, (1, 0), 4, 20)
        assert (fit.F0, fit.F1, fit.F2) == (Q(1, 2), 0, 0)

    def test_exact_series_ratio_is_half_inverse_volume(self, trapezoid):
        # the frozen proportionality: 2 * vol * F1 == L(<xi, x>) exactly
        poly2 = Polytope.from_vertices([(0, 0), (3, 0), (1, 1), (0, 1)])
        for P in (trapezoid, poly2):
            sigma = BoundaryMeasure.unit(P)
            F0, F1, F2 = expansion_exact(P, (1, 0))
            Lx = futaki_linear(P, sigma)[0]
            assert 2 * measures(P).vol * F1 == Lx
            assert F0 == measures(P).centroid[0]

    def test_far_ranges_match_exact_series(self, trapezoid):
        exact = expansion_exact(trapezoid, (1, 0))
        for k_min, k_max in ((10, 40), (197, 200)):
            assert expansion(trapezoid, (1, 0), k_min, k_max) == \
                ExpansionFit(*exact, (k_min, k_max))

    def test_translation_covariance(self, trapezoid):
        shifted = unimodular_image(trapezoid, None, [[1, 0], [0, 1]], (3, -2))[0]
        F0, F1, _ = expansion_exact(trapezoid, (1, 0))
        G0, G1, _ = expansion_exact(shifted, (1, 0))
        assert G0 == F0 + 3
        assert G1 == F1

    def test_linearity_in_xi(self, trapezoid):
        _, F1x, _ = expansion_exact(trapezoid, (1, 0))
        _, F1y, _ = expansion_exact(trapezoid, (0, 1))
        _, F1s, _ = expansion_exact(trapezoid, (2, 3))
        assert F1s == 2 * F1x + 3 * F1y

    def test_second_coordinate_sign(self, trapezoid):
        # futaki_linear(trapezoid) = (1/9, -2/9): the y-direction flips sign
        _, F1y, _ = expansion_exact(trapezoid, (0, 1))
        assert F1y < 0
        assert 2 * measures(trapezoid).vol * F1y == \
            futaki_linear(trapezoid, BoundaryMeasure.unit(trapezoid))[1]


class TestExpansionCorpus:
    def test_consecutive_ranges_equal_expansion_exact(self):
        # random integral segments and polygons, xi and consecutive k ranges:
        # four rows from k = 1, and ranges far out such as 197..200
        rng = random.Random(34)
        for case in range(150):
            if case % 3 == 0:
                a = rng.randint(-9, 9)
                P = Polytope.from_vertices([(a,), (a + rng.randint(1, 9),)])
            else:
                P = random_integral_polygon(rng)
            xi = tuple(rng.randint(-5, 5) for _ in range(P.dim))
            k_min = 1 if case % 4 == 0 else rng.choice([2, 5, 37, 197])
            k_max = k_min + rng.choice([3, 4, 6])
            fit = expansion(P, xi, k_min, k_max)
            assert fit == ExpansionFit(*expansion_exact(P, xi), (k_min, k_max)), (P, xi)
            assert all(type(v) is Q for v in (fit.F0, fit.F1, fit.F2))


class TestFiltration:
    def test_zero_function(self, square):
        f = PLConvexFunction.affine((0, 0), 0)
        assert filtration_futaki(square, f, 8) == 0

    def test_affine_futaki_zero_limit(self, square):
        f = PLConvexFunction.affine((1, 0), 0)
        # F(k) = F0 + O(1/k) with the 1/k coefficient L(x)/(2 vol) = 0
        v32 = filtration_futaki(square, f, 32)
        v64 = filtration_futaki(square, f, 64)
        f1 = (v32 - v64) / (Q(1, 32) - Q(1, 64))
        assert abs(f1) < Q(1, 50)

    def test_abs_exact_sequence(self, segment_sym):
        f = PLConvexFunction.abs_coordinate(1)
        for k in (16, 64, 256):
            assert filtration_futaki(segment_sym, f, k) == Q(k + 1, 2 * k + 1)

    def test_abs_limit_matches_L(self, segment_sym):
        f = PLConvexFunction.abs_coordinate(1)
        v1 = filtration_futaki(segment_sym, f, 128)
        v2 = filtration_futaki(segment_sym, f, 256)
        f1 = (v1 - v2) / (Q(1, 128) - Q(1, 256))
        target = L(segment_sym, BoundaryMeasure.unit(segment_sym), f) \
            / (2 * measures(segment_sym).vol)
        assert abs(float(f1 - target)) / float(target) < 0.03

    def test_2d_crease_limit_matches_L(self, square):
        f = PLConvexFunction.crease((1, 0), Q(1, 2))
        target = L(square, BoundaryMeasure.unit(square), f) / (2 * measures(square).vol)
        v1 = filtration_futaki(square, f, 128)
        v2 = filtration_futaki(square, f, 256)
        f1 = (v1 - v2) / (Q(1, 128) - Q(1, 256))
        assert abs(float(f1 - target)) / float(target) < 0.02

    def test_callable_evaluator(self, segment_sym):
        # the per-point oracle on the callable |x| against the library on |x|
        v, minval = oracle_filtration_futaki(segment_sym, lambda x: abs(x[0]), 32)
        assert (v, minval) == (Q(33, 65), 0)
        assert filtration_futaki(segment_sym, PLConvexFunction.abs_coordinate(1), 32) == v

    def test_shift_logged_not_fatal(self, segment_sym, caplog):
        import logging
        f = PLConvexFunction.affine((1,), Q(-2))   # dips below zero
        with caplog.at_level(logging.INFO, logger="kstab.futaki"):
            filtration_futaki(segment_sym, f, 16)
        assert any("below 0" in r.message for r in caplog.records)


class TestRowScanOracle:
    """The row scan against the box scan it replaced, point for point."""

    KS = (1, 2, 3, 5)

    def test_fixture_sequences(self, fixture_polytopes):
        for P in fixture_polytopes:
            for k in self.KS:
                assert list(lattice_points(P, k)) == list(box_lattice_points(P, k))

    def test_random_polygon_sequences(self):
        rng = random.Random(11)
        for i in range(12):
            P = random_polygon(rng) if i % 2 else random_integral_polygon(rng)
            for k in self.KS:
                assert list(lattice_points(P, k)) == list(box_lattice_points(P, k))

    def test_test_configuration_sequences(self):
        integral, rational = configuration_polytopes()
        for P in integral + rational:
            for k in (1, 2, 3):
                pts = list(lattice_points(P, k))
                assert pts and pts == list(box_lattice_points(P, k))

    def test_count_and_weigh(self, fixture_polytopes):
        rng = random.Random(12)
        integral, _ = configuration_polytopes()
        polys = fixture_polytopes + [random_integral_polygon(rng) for _ in range(6)] + integral
        for P in polys:
            for k in self.KS:
                for xi in ((1, 0, 0), (-2, 3, 1)):
                    xi = xi[:P.dim]
                    wd = count_and_weigh(P, xi, k)
                    assert (wd.d_k, wd.w_k) == oracle_count_and_weigh(P, xi, k)

    def test_pick_up_to_k512(self):
        rng = random.Random(13)
        for _ in range(4):
            P = random_integral_polygon(rng)
            vs = P.vertices
            boundary = sum(math.gcd(int(b[0] - a[0]), int(b[1] - a[1]))
                           for a, b in zip(vs, vs[1:] + vs[:1]))
            area = measures(P).vol
            for k in list(range(1, 40)) + [127, 255, 256, 511, 512]:
                assert count_and_weigh(P, (1, 0), k).d_k == area * k * k + Q(boundary, 2) * k + 1


def row_corpus():
    """(P, f or None) pairs, seeded: P integral when f is given, else rational.

    Integral and rational polygons, segments, the square (whose x-facets are
    parallel to the rows) and the 3D test configurations, whose facets lifted
    from P are parallel to the rows and cut the box's corners.  The slopes'
    denominators make up to 12 cosets, and `ties` has pieces that tie along
    the lattice lines x = 1, y = 1 and x + y = 2, three of them on the last.
    """
    rng = random.Random(19)
    crease = PLConvexFunction((((Q(1), Q(-1, 2)), Q(-1, 3)), ((Q(-1, 3), Q(2)), Q(1, 4)),
                               ((Q(0), Q(0)), Q(0))))
    ties = PLConvexFunction((((Q(0), Q(0)), Q(0)), ((Q(1), Q(0)), Q(-1)),
                             ((Q(1), Q(1)), Q(-2)), ((Q(1, 2), Q(1, 2)), Q(-1))))
    lifted = PLConvexFunction((((Q(1), Q(0), Q(-1, 2)), Q(0)), ((Q(0), Q(-1, 3), Q(1)), Q(-1, 5))))
    abs_shift = PLConvexFunction((((Q(1),), Q(-1, 3)), ((Q(-2),), Q(1, 2)), ((Q(3, 4),), Q(-1))))
    integral, rational = configuration_polytopes()
    polygons = [Polytope.from_vertices([(0, 0), (2, 0), (1, 3)]),
                Polytope.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])]
    polygons += [random_integral_polygon(rng, span=2) for _ in range(2)]
    segments = [Polytope.from_vertices(v) for v in ([(0,), (1,)], [(-1,), (1,)], [(-3,), (5,)])]
    return ([(P, crease) for P in polygons] + [(P, ties) for P in polygons[:2]]
            + [(P, abs_shift) for P in segments]
            + [(P, lifted) for P in integral]
            + [(random_polygon(rng, span=4), None) for _ in range(3)]
            + [(Polytope.from_vertices([(Q(1, 3),), (Q(7, 2),)]), None)]
            + [(P, None) for P in rational])


def section_sums(P, k):
    """(d_k, the coordinate sums) over kP's lattice points from futaki's
    sections and lattice sums, which take rational P too."""
    d, sums = 0, [0] * P.dim
    for c, ring in futaki._sections(P, k):
        n, sx, sy = futaki._lattice_sums(ring)
        d += n
        sums = [a + b for a, b in zip(sums, (*(ci * n for ci in c), sx, sy))]
    return d, sums


class TestRowArraysCorpus:
    """The lattice sums, count_and_weigh and filtration_futaki against the
    per-row oracle: rational and integral polygons, segments, 3D slices,
    rational slopes (cosets) and ties along lattice lines.

    The per-point filtration oracle skips the 3D configurations at k = 150
    (millions of points); their counts are compared there too.
    """

    @pytest.mark.parametrize("k", (1, 2, 3, 7, 20, 150))
    def test_against_the_row_oracle(self, k):
        for P, f in row_corpus():
            d, sums = oracle_row_sums(P, k)
            assert section_sums(P, k) == (d, sums), (P, k)
            if f is None:
                continue
            xi = (-2, 3, 1)[:P.dim]
            wd = count_and_weigh(P, xi, k)
            assert (wd.d_k, wd.w_k) == (d, sum(x * s for x, s in zip(xi, sums)))
            if P.dim < 3 or k <= 20:
                assert filtration_futaki(P, f, k) == oracle_ceiling_sum(P, f, k)

    @pytest.mark.parametrize("route", ("cosets", "columns"))
    def test_each_route_against_the_oracle(self, monkeypatch, route):
        # _ceiling_sum takes the cheaper of two routes; forced to one, each
        # gives the oracle's statistic on every corpus entry with a function
        def forced(ring, pieces):
            if not ring:
                return 0, 0
            if route == "cosets":
                dx, dy = (math.lcm(*(a[i].denominator for a, _ in pieces)) for i in (0, 1))
                return futaki._coset_ceiling_sum(ring, pieces, dx, dy)
            return futaki._column_ceiling_sum(ring, pieces, min(-(-x // w) for x, _, w in ring),
                                              max(x // w for x, _, w in ring))

        monkeypatch.setattr(futaki, "_ceiling_sum", forced)
        for P, f in row_corpus():
            for k in (1, 3, 7):
                if f is not None:
                    assert filtration_futaki(P, f, k) == oracle_ceiling_sum(P, f, k), (P, k)


def pick(vertices, k):
    """d_k of an integral polygon by Pick's formula: A k^2 + (B/2) k + 1."""
    area2 = boundary = 0
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        area2 += x0 * y1 - x1 * y0
        boundary += math.gcd(x1 - x0, y1 - y0)
    return (abs(area2) * k * k + boundary * k) // 2 + 1


class TestInt64Range:
    """Counts in Python ints: a translation or a huge xi changes nothing,
    and a k whose rows left int64 (the row arrays refused it) is counted
    exactly, as Pick's formula and the coordinate sums' closed forms say."""

    TRIANGLE = [(0, 0), (2, 0), (1, 3)]

    @pytest.mark.parametrize("shift", [(0, 0), (10 ** 15, -10 ** 15), (-10 ** 15, 10 ** 15)])
    @pytest.mark.parametrize("k", [3, 200])
    def test_translated_triangle_and_huge_xi(self, shift, k):
        P = Polytope.from_vertices([(x + shift[0], y + shift[1]) for x, y in self.TRIANGLE])
        for xi in ((0, 1), (10 ** 30, -1), (10 ** 30, -10 ** 40)):
            wd = count_and_weigh(P, xi, k)
            assert (wd.d_k, wd.w_k) == oracle_row_weights(P, xi, k)
            assert wd.F_k == Q(wd.w_k, k * wd.d_k)

    def test_long_segment(self):
        # one row of 2*10^9 + 1 points: n*(lo + hi) is about 8e18, inside int64
        k = 2 * 10 ** 9
        P = Polytope.from_vertices([(10 ** 12,), (10 ** 12 + 1,)])
        wd = count_and_weigh(P, (3,), k)
        assert wd.d_k == k + 1
        assert wd.w_k == 3 * (k + 1) * (10 ** 12 * k + k // 2)

    @pytest.mark.parametrize("vertices, k", [
        ([(0, 0), (1, 0), (0, 1)], 2 ** 61),    # about 2^61 rows of up to 2^61 points
        ([(0,), (1,)], 4 * 10 ** 9),            # one row whose n*(lo + hi) leaves int64
    ])
    def test_out_of_range_k_is_counted(self, vertices, k):
        P = Polytope.from_vertices(vertices)
        wd = count_and_weigh(P, (1,) * P.dim, k)
        if P.dim == 2:
            # each coordinate of k times the unit triangle sums to C(k + 2, 3)
            assert wd.d_k == pick(vertices, k) == (k + 1) * (k + 2) // 2
            assert wd.w_k == 2 * math.comb(k + 2, 3)
        else:
            assert (wd.d_k, wd.w_k) == (k + 1, k * (k + 1) // 2)
        for extra in range(1, 4):
            assert count_and_weigh(P, (1,) * P.dim, k + extra).d_k == (
                pick(vertices, k + extra) if P.dim == 2 else k + extra + 1)


class TestLatticeSums:
    """_lattice_sums and _clip against a brute-force scan of the hull."""

    @staticmethod
    def brute(points):
        """(N, sum x, sum y) by testing every point of the bounding box.

        m is in the hull iff for every line through two of the points, m's
        side (a cross product) lies in the range the points span, and m is
        in the bounding box (which settles segments and points).
        """
        pts = sorted(set(points))
        lines = []
        for a, b in itertools.combinations(pts, 2):
            def side(p, a=a, b=b):
                return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            lines.append((side, min(map(side, pts)), max(map(side, pts))))
        xs, ys = [p[0] for p in pts], [p[1] for p in pts]
        out = [0, 0, 0]
        for m in itertools.product(range(math.ceil(min(xs)), math.floor(max(xs)) + 1),
                                   range(math.ceil(min(ys)), math.floor(max(ys)) + 1)):
            if all(lo <= side(m) <= hi for side, lo, hi in lines):
                out = [out[0] + 1, out[1] + m[0], out[2] + m[1]]
        return tuple(out)

    def test_random_rational_hulls(self):
        # polygons, and segments and points with rational ends (k = 1)
        rng = random.Random(36)
        for case in range(200):
            pts = [(Q(rng.randint(-12, 12), rng.randint(1, 4)), Q(rng.randint(-12, 12), rng.randint(1, 4)))
                   for _ in range(rng.randint(1, 6))]
            if case % 4 == 0:
                (x, y), d = pts[0], (rng.randint(-3, 3), rng.randint(-3, 3))
                t = Q(rng.randint(0, 9), rng.randint(1, 3))
                pts = [(x, y), (x + t * d[0], y + t * d[1])]
            assert futaki._lattice_sums(futaki._ring(pts, 1)) == self.brute(pts), pts

    def test_cut_keeps_lower_dimensional_parts(self):
        # the square [0, 4]^2 cut to the line x + y = 3, and to its point (1, 2)
        ring = futaki._ring([(0, 0), (4, 0), (4, 4), (0, 4)], 1)
        line = futaki._clip(futaki._clip(ring, 1, 1, 3), -1, -1, -3)
        assert futaki._lattice_sums(line) == (4, 6, 6)
        point = futaki._clip(futaki._clip(line, 1, 0, 1), -1, 0, -1)
        assert futaki._lattice_sums(point) == (1, 1, 2)
        assert futaki._clip(line, 1, 1, 4) == []


class TestPLFiltrationOracle:
    """The row and floor-sum path against the per-point oracle."""

    def check(self, P, f, k, caplog):
        """Both agree, and the library logs the oracle's minimum when f dips below 0."""
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="kstab.futaki"):
            fast = filtration_futaki(P, f, k)
        slow, minval = oracle_filtration_futaki(P, f, k)
        assert fast == slow
        logged = [r.getMessage() for r in caplog.records]
        assert len(logged) == (minval < 0)
        assert all(f"(min {minval})" in message for message in logged)
        return logged

    def test_random_pieces(self, caplog):
        rng = random.Random(15)
        for i in range(10):
            P = random_integral_polygon(rng, span=3)
            pieces = tuple(((Q(rng.randint(-5, 5), rng.randint(1, 4)),
                             Q(rng.randint(-5, 5), rng.randint(1, 4))),
                            Q(rng.randint(-9, 9), rng.randint(1, 6)))
                           for _ in range(rng.randint(1, 4)))
            for k in (1, 3, 8):
                self.check(P, PLConvexFunction(pieces), k, caplog)

    def test_fixtures_and_ties(self, square, segment_sym, caplog):
        # pieces tie at single points (the creases) and on the whole row x = 0
        for k in (4, 7, 16):
            self.check(square, PLConvexFunction.crease((1, 0), Q(1, 2)), k, caplog)
            self.check(square, PLConvexFunction.crease((1, 1), 1), k, caplog)
            self.check(square, PLConvexFunction.crease((0, 1), Q(1, 2)), k, caplog)
            self.check(square, PLConvexFunction((((Q(1), Q(1, 2)), Q(0)),
                                                 ((Q(-1), Q(1, 2)), Q(0)),
                                                 ((Q(0), Q(-2)), Q(1, 3)))), k, caplog)
            self.check(segment_sym, PLConvexFunction.abs_coordinate(1), k, caplog)
            negative = PLConvexFunction.affine((Q(-3, 2),), Q(-2, 3))
            assert "below 0" in self.check(segment_sym, negative, k, caplog)[0]

    def test_large_denominators_cost_columns_not_cosets(self, caplog):
        # the slopes 1/997 and 1/991 make 988,027 cosets of kP's lattice
        # points; a section with fewer columns than that times 3 * #pieces
        # is summed column by column, in about the time of a row walk
        P = Polytope.from_vertices([(0, 0), (3, 0), (0, 2)])
        f = PLConvexFunction((((Q(1, 997), Q(1, 991)), Q(-1, 3)),
                              ((Q(-1, 2), Q(1, 7)), Q(-1, 5))))
        for k in (4, 128):
            start = time.perf_counter()
            filtration_futaki(P, f, k)
            assert time.perf_counter() - start < 0.5
            assert "below 0" in self.check(P, f, k, caplog)[0]


class TestLatticePoints:
    def test_dim3_supported(self, square):
        from kstab.stability import PLConvexFunction
        from kstab import stability as stab
        tc = stab.test_configuration(square, PLConvexFunction.crease((1, 0), Q(1, 2)))
        pts = list(lattice_points(tc.polytope, 1))
        for m in pts:
            assert tc.polytope.contains(m)
        # brute cube check
        brute = [(i, j, k) for i in range(-2, 4) for j in range(-2, 4)
                 for k in range(-2, 5) if tc.polytope.contains((i, j, k))]
        assert sorted(pts) == sorted(brute)
