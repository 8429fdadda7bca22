import itertools
import logging
import math
import random
from fractions import Fraction as Q

import pytest

from kstab.futaki import (
    NonIntegralPolytopeError,
    count_and_weigh,
    expansion,
    expansion_exact,
    filtration_futaki,
    interpolate_polynomial,
)
from kstab import futaki
from kstab.polytope import BoundaryMeasure, Polytope, measures
from kstab.stability import L, PLConvexFunction, futaki_linear
from kstab import stability as stab

from conftest import (lattice_points, oracle_ceiling_sum, oracle_filtration_futaki,
                      oracle_row_weights, oracle_rows, random_integral_polygon, random_polygon,
                      unimodular_image)


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
            poly = interpolate_polynomial([1, 2, 3], counts[:3])
            for k in range(1, 13):
                assert sum(c * k ** j for j, c in enumerate(poly)) == counts[k - 1]

    def test_inconsistent_counts_raise(self, trapezoid, monkeypatch):
        real = futaki.count_and_weigh

        def off_by_one(attr):
            def fake(P, xi, k):
                wd = real(P, xi, k)
                if k != 4:
                    return wd
                d, w = wd.d_k + (attr == "d"), wd.w_k + (attr == "w")
                return futaki.WeightData(k, d, w, Q(w, k * d))
            return fake

        for attr in ("d", "w"):
            monkeypatch.setattr(futaki, "count_and_weigh", off_by_one(attr))
            with pytest.raises(ArithmeticError, match="do not fit"):
                expansion_exact(trapezoid, (1, 0))


class TestExpansion:
    def test_segment_exact_constant(self, segment01):
        fit = expansion(segment01, (1,), 2, 8)
        assert abs(fit.F0 - 0.5) < 1e-12
        assert abs(fit.F1) < 1e-12
        assert abs(fit.F2) < 1e-12
        assert fit.residual < 1e-12

    def test_range_check(self, segment01):
        with pytest.raises(ValueError):
            expansion(segment01, (1,), 5, 7)

    def test_square_futaki_vanishes(self, square):
        fit = expansion(square, (1, 0), 4, 20)
        assert abs(fit.F1) < 1e-10

    def test_exact_series_ratio_is_half_inverse_volume(self, trapezoid):
        # the frozen proportionality: 2 * vol * F1 == L(<xi, x>) exactly
        poly2 = Polytope.from_vertices([(0, 0), (3, 0), (1, 1), (0, 1)])
        for P in (trapezoid, poly2):
            sigma = BoundaryMeasure.unit(P)
            F0, F1, F2 = expansion_exact(P, (1, 0))
            Lx = futaki_linear(P, sigma)[0]
            assert 2 * measures(P).vol * F1 == Lx
            assert F0 == measures(P).centroid[0]

    def test_lsq_matches_exact_series(self, trapezoid):
        F0, F1, F2 = expansion_exact(trapezoid, (1, 0))
        fit = expansion(trapezoid, (1, 0), 10, 40)
        assert abs(fit.F1 - float(F1)) / abs(float(F1)) < 0.005

    def test_residual_improves_deeper_in_asymptotic_regime(self, trapezoid):
        # F(k) is a rational function of k; the 1/k^3 tail shrinks as the
        # window moves out, so the per-point fit residual must drop
        shallow = expansion(trapezoid, (1, 0), 4, 24)
        deep = expansion(trapezoid, (1, 0), 20, 40)
        assert deep.residual < shallow.residual

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
    from P are parallel to the rows and cut the box's corners.
    """
    rng = random.Random(19)
    crease = PLConvexFunction((((Q(1), Q(-1, 2)), Q(-1, 3)), ((Q(-1, 3), Q(2)), Q(1, 4)),
                               ((Q(0), Q(0)), Q(0))))
    lifted = PLConvexFunction((((Q(1), Q(0), Q(-1, 2)), Q(0)), ((Q(0), Q(-1, 3), Q(1)), Q(-1, 5))))
    abs_shift = PLConvexFunction((((Q(1),), Q(-1, 3)), ((Q(-2),), Q(1, 2))))
    integral, rational = configuration_polytopes()
    polygons = [Polytope.from_vertices([(0, 0), (2, 0), (1, 3)]),
                Polytope.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])]
    polygons += [random_integral_polygon(rng, span=2) for _ in range(2)]
    segments = [Polytope.from_vertices(v) for v in ([(0,), (1,)], [(-1,), (1,)], [(-3,), (5,)])]
    return ([(P, crease) for P in polygons] + [(P, abs_shift) for P in segments]
            + [(P, lifted) for P in integral]
            + [(random_polygon(rng, span=4), None) for _ in range(3)]
            + [(Polytope.from_vertices([(Q(1, 3),), (Q(7, 2),)]), None)]
            + [(P, None) for P in rational])


class TestRowArraysCorpus:
    """_rows, count_and_weigh and filtration_futaki against the per-row oracle.

    The per-point filtration oracle skips the 3D configurations at k = 150
    (millions of points); their rows and counts are compared there too.
    """

    @pytest.mark.parametrize("k", (1, 2, 3, 7, 20, 150))
    def test_against_the_row_oracle(self, k):
        for P, f in row_corpus():
            rows = list(futaki._rows(P, k))
            assert rows == list(oracle_rows(P, k))
            assert all(type(v) is int for prefix, lo, hi in rows for v in (*prefix, lo, hi))
            if f is None:
                continue
            xi = (-2, 3, 1)[:P.dim]
            wd = count_and_weigh(P, xi, k)
            assert (wd.d_k, wd.w_k) == oracle_row_weights(P, xi, k)
            if P.dim < 3 or k <= 20:
                assert filtration_futaki(P, f, k) == oracle_ceiling_sum(P, f, k)


class TestInt64Range:
    """Box-relative int64 rows: a translation or a huge xi does not move the
    range, and a k whose rows could leave int64 is refused up front."""

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
    def test_out_of_range_k_is_refused(self, vertices, k):
        P = Polytope.from_vertices(vertices)
        with pytest.raises(ValueError, match="too large"):
            count_and_weigh(P, (1,) * P.dim, k)
        with pytest.raises(ValueError, match="too large"):
            next(futaki._rows(P, k))


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
