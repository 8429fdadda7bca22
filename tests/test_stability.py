import bisect
import concurrent.futures
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from kstab import _intpoly as ip
from kstab.polytope import BoundaryMeasure, Polytope, clip, integrate_affine, measures
from kstab import stability as stab
from kstab.stability import (
    L,
    CreaseResult,
    PLConvexFunction,
    StabilityVerdict,
    crease_search,
    decompose,
    futaki_linear,
)

from conftest import (oracle_L, random_integral_polygon, random_polygon, random_unimodular,
                      random_weights, unimodular_image)


def unit(P):
    return BoundaryMeasure.unit(P)


def exact_offsets(smin, smax, R):
    """Rationals with denominator <= R strictly inside (smin, smax), sorted."""
    vals = set()
    for den in range(1, R + 1):
        for num in range(math.floor(smin * den) + 1, math.ceil(smax * den)):
            c = Q(num, den)
            if smin < c < smax:
                vals.add(c)
    return sorted(vals)


def chord_length(P, a, s):
    """Lattice length of the chord {<a, x> = s} in P (0 at extreme vertices)."""
    perp = (-a[1], a[0])
    norm2 = a[0] * a[0] + a[1] * a[1]
    taus = []
    verts = P.vertices
    nv = len(verts)
    for k in range(nv):
        p, q = verts[k], verts[(k + 1) % nv]
        sp = a[0] * p[0] + a[1] * p[1]
        sq = a[0] * q[0] + a[1] * q[1]
        if sp == sq:
            if sp == s:
                taus.append((perp[0] * p[0] + perp[1] * p[1]))
                taus.append((perp[0] * q[0] + perp[1] * q[1]))
            continue
        if min(sp, sq) <= s <= max(sp, sq):
            t = (s - sp) / (sq - sp)
            x = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            taus.append(perp[0] * x[0] + perp[1] * x[1])
    if not taus:
        return Q(0)
    return (max(taus) - min(taus)) / norm2


class FractionProfile:
    """Reference for the rows of stability._sweep, built in Fractions.

    The chord length is clipped from P at every vertex value, and the
    boundary and interior polynomials are summed piece by piece.
    """

    def __init__(self, P, sigma, a):
        self.a = a
        if P.dim == 1:
            svals = sorted({a[0] * v[0] for v in P.vertices})
            rho = [Q(1), Q(1)]
            edges = []
            wmap = {f.normal: w for f, w in zip(P.facets, sigma.weights)}
            (lo,), (hi,) = P.vertices
            edges.append((wmap[(1,)], a[0] * lo, a[0] * lo, Q(1)))
            edges.append((wmap[(-1,)], a[0] * hi, a[0] * hi, Q(1)))
            bps = svals
        else:
            sv = [a[0] * v[0] + a[1] * v[1] for v in P.vertices]
            bps = sorted(set(sv))
            rho = [chord_length(P, a, s) for s in bps]
            edges = []
            nv = len(P.vertices)
            for k in range(nv):
                sp, sq = sv[k], sv[(k + 1) % nv]
                ell = P.edge_lattice_length(k) * sigma.weights[k]
                edges.append((Q(1), min(sp, sq), max(sp, sq), ell))
        self.smin, self.smax = bps[0], bps[-1]
        self.bps = bps
        nI = len(bps) - 1
        bco = [[Q(0)] * 3 for _ in range(nI)]
        for w, slo, shi, ell in edges:
            wl = w * ell
            for j in range(nI):
                sj, sj1 = bps[j], bps[j + 1]
                if slo == shi:
                    if sj1 <= slo:
                        bco[j][0] += wl * slo
                        bco[j][1] -= wl
                elif sj1 <= slo:
                    bco[j][0] += wl * (slo + shi) / 2
                    bco[j][1] -= wl
                elif sj >= shi:
                    continue
                else:
                    k = wl / (2 * (shi - slo))
                    bco[j][0] += k * shi * shi
                    bco[j][1] -= 2 * k * shi
                    bco[j][2] += k
        # suffix integrals of rho and s*rho
        I1 = [Q(0)] * (nI + 1)
        I2 = [Q(0)] * (nI + 1)
        alphas, betas = [], []
        for j in range(nI):
            dj = bps[j + 1] - bps[j]
            beta = (rho[j + 1] - rho[j]) / dj
            alpha = rho[j] - beta * bps[j]
            alphas.append(alpha)
            betas.append(beta)
        for j in range(nI - 1, -1, -1):
            s0, s1 = bps[j], bps[j + 1]
            I1[j] = I1[j + 1] + alphas[j] * (s1 - s0) + betas[j] * (s1 * s1 - s0 * s0) / 2
            I2[j] = I2[j + 1] + alphas[j] * (s1 * s1 - s0 * s0) / 2 \
                + betas[j] * (s1 ** 3 - s0 ** 3) / 3
        ico = []
        for j in range(nI):
            e = bps[j + 1]
            al, be = alphas[j], betas[j]
            ico.append([
                be * e ** 3 / 3 + al * e * e / 2 + I2[j + 1],
                -(be * e * e / 2 + al * e) - I1[j + 1],
                al / 2,
                be / 6,
            ])
        self._bco = bco
        self._ico = ico

    def eval(self, c):
        j = bisect.bisect_right(self.bps, c) - 1
        j = min(max(j, 0), len(self._bco) - 1)
        b = self._bco[j]
        bval = b[0] + c * (b[1] + c * b[2])
        p = self._ico[j]
        ival = p[0] + c * (p[1] + c * (p[2] + c * p[3]))
        return bval, ival


def horner_int(coef, n, d):
    """d^k * sum coef[i] (n/d)^i, k = len(coef) - 1, by Horner's rule in integers."""
    acc, dpow = 0, 1
    for ci in reversed(coef):
        acc = acc * n + ci * dpow
        dpow *= d
    return acc


def sweep_eval(poly, sweep, c):
    """(boundary term, mass) of max(0, <a,x> - c) from the _sweep rows of a,
    in the power basis: Horner's rule in S = D*c on c's piece.  The oracle
    of the scan's part values (stability._part_values)."""
    brk, bco, ico, bden, iden = sweep[:5]
    n, d = c.numerator, c.denominator
    # c lies in piece j, j the number of inner breakpoints S/D <= c, iff ceil(S*d/D) <= n
    j = sum(1 for s in brk[1:-1] if -(-s * d // poly.D) <= n)
    # both rows have four coefficients in S = D*n/d: numerators over den * d^3
    return (Q(horner_int(bco[j], poly.D * n, d), bden * d ** 3),
            Q(horner_int(ico[j], poly.D * n, d), iden * d ** 3))


def sweep_ends(poly, sweep):
    """(smin, smax): the least and greatest <a, v> over the vertices."""
    return Q(sweep[0][0], poly.D), Q(sweep[0][-1], poly.D)


def assert_profiles_match(P, sigma, R):
    """Every direction's _sweep rows give the Fraction oracle's values.

    The values are compared at every breakpoint and at three rationals inside
    each piece.
    """
    poly = stab._IntegerPolygon(P, sigma)
    for a in stab.primitive_directions(P.dim, R):
        sweep, ref = stab._sweep(poly, a), FractionProfile(P, sigma, a)
        assert sweep_ends(poly, sweep) == (ref.smin, ref.smax), a
        inside = [s + (t - s) * Q(k, 7) for s, t in zip(ref.bps, ref.bps[1:]) for k in (1, 3, 6)]
        for c in ref.bps + inside:
            assert sweep_eval(poly, sweep, c) == ref.eval(c), (a, c)


def exact_scan(args):
    """Reference for stability._scan_chunk: every crease in exact Fractions."""
    P, sigma, A, dirs, R = args
    results = []
    for a in dirs:
        prof = FractionProfile(P, sigma, a)
        for c in exact_offsets(prof.smin, prof.smax, R):
            bval, mass = prof.eval(c)
            lval = bval - A * mass
            results.append(CreaseResult(a, c, lval, mass, lval / mass))
    results.sort(key=lambda r: (r.ratio, r.direction, r.offset))
    return results[:10], len(results), 0, len(results), 0


def assert_matches_oracle(monkeypatch, P, sigma, R):
    fast = crease_search(P, sigma, R, workers=1)
    with monkeypatch.context() as m:
        m.setattr(stab, "_scan_chunk", exact_scan)
        oracle = crease_search(P, sigma, R, workers=1)
    assert fast == oracle
    return fast


class TestPLConvexFunction:
    def test_evaluate_max(self):
        f = PLConvexFunction.abs_coordinate(1)
        assert f((Q(-3, 2),)) == Q(3, 2)

    def test_duplicate_pieces_merged(self):
        f = PLConvexFunction((((Q(1),), Q(0)), ((Q(1),), Q(0))))
        assert len(f.pieces) == 1

    def test_add(self, segment_sym):
        f = PLConvexFunction.abs_coordinate(1)
        g = PLConvexFunction.affine((2,), 1)
        s = f + g
        assert s((Q(1, 2),)) == f((Q(1, 2),)) + g((Q(1, 2),))

    def test_nowhere_active_piece_dropped(self, square):
        # the piece x - 10 never wins against 0 on the square
        f = PLConvexFunction((((Q(0), Q(0)), Q(0)), ((Q(1), Q(0)), Q(-10))))
        cells = decompose(square, f)
        assert [i for i, _ in cells] == [0]

    def test_piece_active_only_on_edge_dropped(self, square):
        # x - 1 ties 0 exactly on the right edge: measure-zero cell
        f = PLConvexFunction((((Q(0), Q(0)), Q(0)), ((Q(1), Q(0)), Q(-1))))
        cells = decompose(square, f)
        assert [i for i, _ in cells] == [0]
        assert L(square, BoundaryMeasure.unit(square), f) == 0


class TestDecompose:
    def test_cells_tile_random(self):
        # segments and polygons; pieces with equal slopes, and pieces that tie
        # along a line through an edge of P
        rng = random.Random(38)

        def rational(span):
            return Q(rng.randint(-span, span), rng.randint(1, 3))

        for case in range(120):
            if case % 3:
                P = random_polygon(rng)
            else:
                P = Polytope.from_vertices([(Q(-rng.randint(0, 6), rng.randint(1, 3)),),
                                            (Q(rng.randint(1, 6), rng.randint(1, 3)),)])
            pieces = [(tuple(rational(4) for _ in range(P.dim)), rational(8))
                      for _ in range(rng.randint(1, 5))]
            if case % 4 == 1:
                pieces.append((pieces[0][0], pieces[0][1] + rational(2)))
            if case % 4 == 2 and P.dim == 2:
                (x0, y0), (x1, y1) = P.vertices[:2]
                t, (a0, a1), b = rational(2), pieces[0][0], pieces[0][1]
                pieces.append(((a0 + t * (y0 - y1), a1 + t * (x1 - x0)),
                               b - t * ((y0 - y1) * x0 + (x1 - x0) * y0)))
            f = PLConvexFunction(tuple(pieces))
            cells = decompose(P, f)
            assert sum(measures(cell).vol for _, cell in cells) == measures(P).vol
            for i, cell in cells:
                a, b = f.pieces[i]
                for v in cell.vertices:
                    assert f(v) == sum(ai * vi for ai, vi in zip(a, v)) + b


class TestDimensionMismatch:
    @pytest.mark.parametrize("call", [
        lambda sq, seg: L(sq, unit(sq), PLConvexFunction.abs_coordinate(1)),
        lambda sq, seg: L(seg, unit(seg), PLConvexFunction.abs_coordinate(2)),
        lambda sq, seg: decompose(seg, PLConvexFunction.crease((1, 0), 0)),
        lambda sq, seg: clip(sq, ((1,), 0)),
        lambda sq, seg: PLConvexFunction((((1,), 0), ((1, 2), 0))),
    ], ids=["L-square-1d", "L-segment-2d", "decompose", "clip", "ragged-slopes"])
    def test_value_error(self, square, segment_sym, call):
        with pytest.raises(ValueError, match="different (dimensions|lengths)"):
            call(square, segment_sym)


class TestL:
    def test_abs_on_symmetric_segment(self, segment_sym):
        assert L(segment_sym, unit(segment_sym), PLConvexFunction.abs_coordinate(1)) == 1

    def test_affine_with_coinciding_centroids(self, square):
        rng = random.Random(2)
        for _ in range(10):
            a = (Q(rng.randint(-5, 5), rng.randint(1, 3)), Q(rng.randint(-5, 5)))
            f = PLConvexFunction.affine(a, Q(rng.randint(-4, 4)))
            assert L(square, unit(square), f) == 0

    def test_weighted_segment_linear(self, segment01):
        sigma = BoundaryMeasure((Q(1), Q(2)))
        f = PLConvexFunction.affine((-1,), 1)
        assert L(segment01, sigma, f) == Q(-1, 2)

    def test_constants_vanish_random(self):
        rng = random.Random(17)
        for _ in range(50):
            P = random_polygon(rng)
            sigma = random_weights(rng, P)
            c = Q(rng.randint(-9, 9), rng.randint(1, 5))
            f = PLConvexFunction.affine((Q(0), Q(0)), c)
            assert L(P, sigma, f) == 0

    def test_additive_in_f(self):
        rng = random.Random(23)
        for _ in range(20):
            P = random_polygon(rng)
            sigma = random_weights(rng, P)
            f = PLConvexFunction.crease((rng.randint(-3, 3), rng.randint(1, 3)),
                                        Q(rng.randint(-2, 2)))
            g = PLConvexFunction.crease((rng.randint(1, 3), rng.randint(-3, 3)),
                                        Q(rng.randint(-2, 2), 2))
            assert L(P, sigma, f + g) == L(P, sigma, f) + L(P, sigma, g)

    def test_affine_shift_invariance_when_futaki_zero(self, square):
        f = PLConvexFunction.crease((1, 0), Q(1, 2))
        g = f + PLConvexFunction.affine((Q(3), Q(-2)), Q(5))
        assert L(square, unit(square), f) == L(square, unit(square), g)

    def test_against_float_grid_oracle(self):
        # fully independent route: masked dense-grid interior integration
        # plus per-edge midpoint sums in floating point; loose tolerance
        # tied to the oracle's own resolution
        import numpy as np
        rng = random.Random(99)
        for _ in range(6):
            P = random_polygon(rng, span=5)
            sigma = random_weights(rng, P)
            pieces = tuple(
                ((Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3))), Q(rng.randint(-4, 4), 2))
                for _ in range(rng.randint(2, 4)))
            f = PLConvexFunction(pieces)
            m = measures(P, sigma)
            (x0, x1), (y0, y1) = [(float(a), float(b)) for a, b in P.bounding_box()]
            n = 1200
            xs = np.linspace(x0, x1, n)
            ys = np.linspace(y0, y1, n)
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            mask = np.ones_like(X, dtype=bool)
            for fc in P.facets:
                mask &= fc.normal[0] * X + fc.normal[1] * Y - float(fc.offset) >= 0
            Fv = np.full_like(X, -np.inf)
            for a, b in f.pieces:
                Fv = np.maximum(Fv, float(a[0]) * X + float(a[1]) * Y + float(b))
            interior = float((Fv * mask).sum() * (xs[1] - xs[0]) * (ys[1] - ys[0]))
            boundary = 0.0
            nv = len(P.vertices)
            for k in range(nv):
                p = np.array([float(c) for c in P.vertices[k]])
                q = np.array([float(c) for c in P.vertices[(k + 1) % nv]])
                ell = float(P.edge_lattice_length(k) * sigma.weights[k])
                ts = (np.arange(4000) + 0.5) / 4000
                pts = p[None, :] + ts[:, None] * (q - p)[None, :]
                vals = np.full(len(ts), -np.inf)
                for a, b in f.pieces:
                    vals = np.maximum(vals, float(a[0]) * pts[:, 0]
                                      + float(a[1]) * pts[:, 1] + float(b))
                boundary += ell * float(vals.mean())
            oracle = boundary - float(m.A) * interior
            budget = 0.01 * (abs(boundary) + float(m.A) * abs(interior)) + 1e-6
            assert abs(float(L(P, sigma, f)) - oracle) < budget

    def test_gl2z_equivariance(self):
        rng = random.Random(31)
        for _ in range(30):
            P = random_polygon(rng, span=5)
            sigma = random_weights(rng, P)
            T = random_unimodular(rng)
            shift = (rng.randint(-3, 3), rng.randint(-3, 3))
            f = PLConvexFunction.crease((rng.randint(-2, 2), rng.randint(1, 2)),
                                        Q(rng.randint(-3, 3), 2))
            PT, sigmaT, fT = unimodular_image(P, sigma, T, shift, f)
            assert L(P, sigma, f) == L(PT, sigmaT, fT)


class TestLOracle:
    """L in one pass over its cells against the edge-by-edge boundary route."""

    def test_random_corpus(self):
        rng = random.Random(41)

        def rational():
            return Q(rng.randint(-6, 6), rng.randint(1, 4))

        for i in range(160):
            if i % 4 == 0:
                lo = rational()
                P = Polytope.from_vertices([(lo,), (lo + Q(rng.randint(1, 12), rng.randint(1, 4)),)])
            else:
                P = random_polygon(rng, span=5)
            sigma = random_weights(rng, P)
            f = PLConvexFunction(tuple((tuple(rational() for _ in range(P.dim)), rational())
                                       for _ in range(rng.randint(1, 5))))
            assert L(P, sigma, f) == oracle_L(P, sigma, f)

    def test_bounded_interior_cell(self, square, unstable_hexagon):
        # max(0, x - 3/4, 1/4 - x, y - 3/4, 1/4 - y): the zero piece's cell is
        # a square strictly inside P, with no facet on the boundary
        f = PLConvexFunction((((Q(0), Q(0)), Q(0)), ((Q(1), Q(0)), Q(-3, 4)),
                              ((Q(-1), Q(0)), Q(1, 4)), ((Q(0), Q(1)), Q(-3, 4)),
                              ((Q(0), Q(-1)), Q(1, 4))))
        inner = [cell for i, cell in decompose(square, f) if f.pieces[i][0] == (0, 0)]
        assert len(inner) == 1 and not set(inner[0].facets) & set(square.facets)
        hexagon, hex_sigma = unstable_hexagon
        for P, sigma in ((square, BoundaryMeasure((Q(2), Q(1, 3), Q(5), Q(7, 2)))),
                         (hexagon, hex_sigma)):
            assert L(P, sigma, f) == oracle_L(P, sigma, f)


class TestFutakiLinear:
    def test_square_zero(self, square):
        assert futaki_linear(square, unit(square)) == (0, 0)

    def test_weighted_segment(self, segment01):
        assert futaki_linear(segment01, BoundaryMeasure((Q(1), Q(2)))) == (Q(1, 2),)

    def test_trapezoid_first_component(self, trapezoid):
        # frozen from the exact shoelace/edge oracle: (1/9, -2/9)
        fut = futaki_linear(trapezoid, unit(trapezoid))
        assert fut == (Q(1, 9), Q(-2, 9))
        assert fut[0] != 0

    def test_matches_L_on_coordinates(self):
        rng = random.Random(41)
        for _ in range(20):
            P = random_polygon(rng)
            sigma = random_weights(rng, P)
            fut = futaki_linear(P, sigma)
            for a in range(2):
                coeff = tuple(Q(1) if i == a else Q(0) for i in range(2))
                assert fut[a] == L(P, sigma, PLConvexFunction.affine(coeff, 0))


def stand_in_pool(monkeypatch, cpus):
    """Make crease_search see `cpus` CPUs and scan its shares in this process.

    Returns a list to which each pool started appends its shares of
    directions; a pool gets as many shares as it was given workers.
    """
    pools = []

    class Pool:
        def __init__(self, max_workers):
            self.workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            assert len(tasks) == self.workers
            pools.append([task[3] for task in tasks])
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(stab.os, "cpu_count", lambda: cpus)
    return pools


class TestCreaseSearch:
    def test_resolution_positive(self, square):
        with pytest.raises(ValueError):
            crease_search(square, unit(square), 0)

    def test_square_stable(self, square):
        v = crease_search(square, unit(square), 4)
        assert v.status == "stable-at-resolution"
        assert v.witness is None
        assert all(c.ratio > 0 for c in v.best_creases)

    def test_weighted_segment_linear_witness(self, segment01):
        v = crease_search(segment01, BoundaryMeasure((Q(1), Q(2))), 4)
        assert v.status == "unstable"
        assert v.witness_L == Q(-1, 4)   # -(1/2)^2
        # and its crease scan also sees the negative crease max(0, 3/4 - x)
        assert v.best_creases[0].L_value == Q(-3, 32)

    def test_symmetric_segment_creases_positive(self, segment_sym):
        v = crease_search(segment_sym, unit(segment_sym), 4)
        assert v.status == "stable-at-resolution"
        # spec's worked value corrected: L(max(0, x)) = 1 - 1*(1/2) = 1/2
        f = PLConvexFunction.crease((1,), 0)
        assert L(segment_sym, unit(segment_sym), f) == Q(1, 2)

    def test_unstable_zero_futaki_hexagon(self, unstable_hexagon):
        P, sigma = unstable_hexagon
        assert futaki_linear(P, sigma) == (0, 0)
        f = PLConvexFunction.crease((0, -1), Q(-1, 4))
        assert L(P, sigma, f) == Q(-12193, 33088)
        v = crease_search(P, sigma, 4)
        assert v.status == "unstable"
        assert v.witness_L < 0
        assert L(P, sigma, v.witness) == v.witness_L

    def test_monotone_in_resolution(self, unstable_hexagon, square):
        P, sigma = unstable_hexagon
        r4 = crease_search(P, sigma, 4)
        r6 = crease_search(P, sigma, 6)
        assert r4.status == r6.status == "unstable"
        assert r6.best_creases[0].ratio <= r4.best_creases[0].ratio
        s4 = crease_search(square, unit(square), 4)
        s6 = crease_search(square, unit(square), 6)
        assert s6.best_creases[0].ratio <= s4.best_creases[0].ratio

    def test_sweep_matches_generic_L(self):
        rng = random.Random(47)
        for _ in range(40):
            P = random_polygon(rng)
            sigma = random_weights(rng, P)
            A = measures(P, sigma).A
            a = (rng.randint(-4, 4), rng.randint(-4, 4))
            if a == (0, 0):
                continue
            g = math.gcd(abs(a[0]), abs(a[1]))
            a = (a[0] // g, a[1] // g)
            poly = stab._IntegerPolygon(P, sigma)
            sweep = stab._sweep(poly, a)
            smin, smax = sweep_ends(poly, sweep)
            c = smin + (smax - smin) * Q(rng.randint(1, 19), 20)
            bval, mass = sweep_eval(poly, sweep, c)
            f = PLConvexFunction.crease(a, c)
            assert bval - A * mass == L(P, sigma, f)
            gen_mass = sum(integrate_affine(cell, *f.pieces[i])
                           for i, cell in decompose(P, f))
            assert mass == gen_mass

    @pytest.mark.parametrize("R", [4, 6])
    def test_square_ties_match_oracle(self, monkeypatch, square, R):
        v = assert_matches_oracle(monkeypatch, square, unit(square), R)
        assert len({c.ratio for c in v.best_creases}) < 10

    @pytest.mark.parametrize("R", [4, 12])
    def test_segments_match_oracle(self, monkeypatch, segment01, segment_sym, R):
        assert_matches_oracle(monkeypatch, segment01, BoundaryMeasure((Q(1), Q(2))), R)
        assert_matches_oracle(monkeypatch, segment_sym, unit(segment_sym), R)

    @pytest.mark.parametrize("R", [4, 6])
    def test_hexagon_matches_oracle(self, monkeypatch, unstable_hexagon, R):
        assert_matches_oracle(monkeypatch, *unstable_hexagon, R)

    def test_random_corpus_matches_oracle(self, monkeypatch):
        rng = random.Random(53)
        for _ in range(16):
            P = random_polygon(rng, span=1)
            assert_matches_oracle(monkeypatch, P, random_weights(rng, P), 5)

    def test_huge_weight_matches_oracle(self, monkeypatch, square, caplog):
        # a weight of 10^400 is past the floats; the exact bounds still prune
        sigma = BoundaryMeasure((Q(10 ** 400),) + (Q(1),) * 3)
        with caplog.at_level("DEBUG", logger="kstab.stability"):
            v = assert_matches_oracle(monkeypatch, square, sigma, 4)
        assert v.n_creases == 1176
        assert "37 of 48 directions pruned, 10 parts split, 57 creases evaluated exactly" \
            in caplog.text

    def test_measures_once_per_scan(self, monkeypatch, unstable_hexagon):
        # A and the Futaki vector come from one exact integration
        calls = []

        def counted(P, sigma=None):
            calls.append(P)
            return measures(P, sigma)

        monkeypatch.setattr(stab, "measures", counted)
        v = crease_search(*unstable_hexagon, 2)
        assert (len(calls), v.futaki) == (1, futaki_linear(*unstable_hexagon))

    def test_screening_counts_logged(self, unstable_hexagon, caplog):
        with caplog.at_level("DEBUG", logger="kstab.stability"):
            v = crease_search(*unstable_hexagon, 6)
        assert v.n_creases == 35664
        assert "93 of 96 directions pruned, 13 parts split, 15 creases evaluated exactly" \
            in caplog.text

    def test_verdict_invariants_checked(self):
        f = PLConvexFunction.crease((1, 0), Q(1, 2))
        with pytest.raises(ValueError):
            StabilityVerdict("unstable", f, Q(0), futaki=(Q(0), Q(0)), resolution=4)
        with pytest.raises(ValueError):
            StabilityVerdict("unstable", None, Q(-1), futaki=(Q(0), Q(0)), resolution=4)
        with pytest.raises(ValueError):
            StabilityVerdict("semistable-boundary", f, Q(1), futaki=(Q(0), Q(0)), resolution=4)

    def test_offsets_match_oracle(self):
        # the half-open [lo, hi): the oracle's open interval plus lo itself
        rng = random.Random(59)
        for _ in range(200):
            lo = Q(rng.randint(-40, 40), rng.randint(1, 7))
            hi = lo + Q(rng.randint(1, 60), rng.randint(1, 7))
            R = rng.randint(1, 9)
            got = stab.admissible_offsets(lo, hi, R)
            assert sorted(got) == sorted(exact_offsets(lo, hi, R) + [lo] * (lo.denominator <= R))
            assert all(type(c) is Q for c in got)
        # adjacent intervals share no offset and miss none
        cuts = sorted({Q(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(12)})
        parts = [c for lo, hi in zip(cuts, cuts[1:]) for c in stab.admissible_offsets(lo, hi, 7)]
        assert sorted(parts) == sorted(stab.admissible_offsets(cuts[0], cuts[-1], 7))
        with pytest.raises(ValueError):
            stab._count_offsets(Q(2 ** 62), Q(2 ** 62 + 2), ip.moebius_blocks(1), 1)

    def test_parallel_matches_serial(self, square):
        v1 = crease_search(square, unit(square), 4, workers=1)
        v2 = crease_search(square, unit(square), 4, workers=2)
        assert v1.status == v2.status
        assert [(c.direction, c.offset, c.ratio) for c in v1.best_creases] == \
               [(c.direction, c.offset, c.ratio) for c in v2.best_creases]

    @pytest.mark.parametrize("workers, cpus, started", [(1000, 3, 3), (1000, 10**6, 8),
                                                       (5, 8, 5), (3, 1, None)])
    def test_pool_is_capped(self, square, monkeypatch, workers, cpus, started):
        # no more processes than workers, CPUs or antipodal pairs (8 at R = 2)
        pools = stand_in_pool(monkeypatch, cpus)
        serial = crease_search(square, unit(square), 2)
        assert pools == []
        v = crease_search(square, unit(square), 2, workers=workers)
        assert [len(shares) for shares in pools] == ([] if started is None else [started])
        assert (v.status, v.n_creases, v.best_creases) == (
            serial.status, serial.n_creases, serial.best_creases)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_each_share_holds_both_of_a_pair(self, square, monkeypatch, workers):
        # a and -a go to one worker, which builds and counts only one of them
        pools = stand_in_pool(monkeypatch, workers)
        crease_search(square, unit(square), 5, workers=workers)
        (shares,) = pools
        assert len(shares) == workers
        for share in shares:
            assert share and {tuple(-x for x in a) for a in share} == set(share)
        assert sorted(a for share in shares for a in share) == sorted(
            stab.primitive_directions(2, 5))

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, square, workers):
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            crease_search(square, unit(square), 2, workers=workers)

    def test_cli_import_loads_no_pool(self):
        # the process pool's modules load only when a scan deals out its directions
        script = ("import sys, kstab.cli\n"
                  "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
        src = os.path.dirname(os.path.dirname(stab.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                             capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


def ratio_floor(sweep, A):
    """A rational beta <= L/mass at every offset of the direction, or None.

    Reference for the floors of stability._pair_floors, from the _pieces of
    one direction's _sweep: the least of the pieces' bernstein_floor
    bounds on boundary/mass, compared in integers and then shifted by A;
    None means some piece's coefficients certify no bound.
    """
    best = None                     # (num, den), den > 0
    for _, _, bb, ib in stab._pieces(*sweep[:3]):
        low = ip.bernstein_floor(bb, ib)
        if low is None:
            return None
        if best is None or low[0] * best[1] < best[0] * low[1]:
            best = low
    return stab._shifted_floor(best, sweep[4], sweep[3], A)


def assert_floor_below_ratios(P, sigma, R):
    """ratio_floor is at most the exact ratio at every admissible offset."""
    A = measures(P, sigma).A
    poly = stab._IntegerPolygon(P, sigma)
    for a in stab.primitive_directions(P.dim, R):
        beta = ratio_floor(stab._sweep(poly, a), A)
        if beta is None:
            continue
        ref = FractionProfile(P, sigma, a)
        for c in exact_offsets(ref.smin, ref.smax, R):
            bval, mass = ref.eval(c)
            assert beta <= (bval - A * mass) / mass, (a, c)


class TestPrunedScan:
    """The best-first scan against the exact slow paths it replaces."""

    @pytest.mark.parametrize("name", ["square", "trapezoid"])
    def test_floor_polygon_fixtures(self, request, name):
        P = request.getfixturevalue(name)
        assert_floor_below_ratios(P, unit(P), 6)

    def test_floor_hexagon(self, unstable_hexagon):
        assert_floor_below_ratios(*unstable_hexagon, 6)

    def test_floor_segments(self, segment01, segment_sym):
        assert_floor_below_ratios(segment01, BoundaryMeasure((Q(1), Q(2))), 6)
        assert_floor_below_ratios(segment_sym, unit(segment_sym), 6)

    def test_floor_random_corpus(self):
        rng = random.Random(67)
        for k in range(8):
            P = random_polygon(rng) if k % 2 else random_integral_polygon(rng)
            assert_floor_below_ratios(P, random_weights(rng, P), 4)

    def test_floor_needs_every_coefficient(self, square):
        # the mass (1 - 2S)^2 on the square's one piece [0, 1] has Bernstein
        # coefficients 1, -1/3, -1/3, 1: a bound must also pass the two negative ones
        sigma = unit(square)
        A = measures(square, sigma).A
        brk, _, _, *rest = stab._sweep(stab._IntegerPolygon(square, sigma), (1, 0))
        assert ratio_floor((brk, [[0, 0, 0, 0]], [[1, -4, 4, 0]], *rest), A) == -A
        assert ratio_floor((brk, [[-1, 0, 0, 0]], [[1, -4, 4, 0]], *rest), A) is None

    def test_offset_count_matches_offsets(self):
        rng = random.Random(59)
        for _ in range(200):
            lo = Q(rng.randint(-40, 40), rng.randint(1, 7))
            hi = lo + Q(rng.randint(1, 60), rng.randint(1, 7))
            R = rng.randint(1, 9)
            inside = [c for c in stab.admissible_offsets(lo, hi, R) if c != lo]
            blocks = ip.moebius_blocks(R)
            assert stab._count_offsets(lo, hi, blocks, stab._farey(blocks)) == len(inside)
        with pytest.raises(ValueError, match=r"exceed the scan's range \(numerators below 2\^62\)"):
            stab._count_offsets(Q(2 ** 62), Q(2 ** 62 + 2), ip.moebius_blocks(1), 1)

    @pytest.mark.parametrize("smin, smax, end", [(-2 ** 62 - 2, 0, -2 ** 62 - 2),
                                                 (0, 2 ** 62 + 2, 2 ** 62 + 2)])
    def test_offset_overflow_names_its_end(self, smin, smax, end):
        with pytest.raises(ValueError, match=f"^crease offsets near {end} exceed the scan's "
                                             r"range \(numerators below 2\^62\)$"):
            stab._count_offsets(Q(smin), Q(smax), ip.moebius_blocks(1), 1)

    def test_offset_count_matches_enumeration(self):
        # every R in 1..48, on intervals with negative, integral and
        # admissible endpoints (denominator R or less) as well as others
        rng = random.Random(83)
        for R in range(1, 49):
            blocks = ip.moebius_blocks(R)
            for _ in range(8):
                lo = Q(rng.randint(-90, 60), rng.choice([1, R, rng.randint(1, 60)]))
                hi = lo + Q(rng.randint(1, 150), rng.choice([1, R, rng.randint(1, 60)]))
                # num/den in lowest terms strictly inside (lo, hi), one by one
                inside = sum(math.gcd(num, den) == 1 for den in range(1, R + 1)
                             for num in range(math.floor(lo * den) + 1, math.ceil(hi * den)))
                count = stab._count_offsets(lo, hi, blocks, stab._farey(blocks))
                assert count == inside, (lo, hi, R)

    def test_integer_ends_match_the_moebius_sum(self):
        # the closed form (smax - smin) * Phi(R) - 1 at integer ends and the
        # Moebius sum of floor sums agree, up to R = 200 and on rational ends
        rng = random.Random(36)
        for R in list(range(1, 41)) + [64, 97, 128, 200]:
            blocks = ip.moebius_blocks(R)
            farey = stab._farey(blocks)
            assert farey == sum(math.gcd(d, j) == 1
                                for d in range(1, R + 1) for j in range(1, d + 1))
            for _ in range(6):
                den = 1 if rng.random() < 0.5 else rng.randint(1, 2 * R)
                lo = Q(rng.randint(-10 ** 6, 10 ** 6), den)
                hi = lo + Q(rng.randint(1, 10 ** 4), 1 if den == 1 else rng.randint(1, 2 * R))
                moebius = sum(M * (-ip.floor_sum(J + 1, hi.denominator, -hi.numerator, 0)
                                   - ip.floor_sum(J + 1, lo.denominator, lo.numerator, 0) - J)
                              for J, M in blocks)
                assert stab._count_offsets(lo, hi, blocks, farey) == moebius, (lo, hi, R)

    def test_one_pair_matches_unpruned(self, monkeypatch, segment01, segment_sym):
        # a segment's directions (1,) and (-1,) are one antipodal pair
        for R in (1, 2, 7):
            assert_matches_oracle(monkeypatch, segment01, BoundaryMeasure((Q(1), Q(2))), R)
            assert_matches_oracle(monkeypatch, segment_sym, unit(segment_sym), R)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_resolution_one_matches_unpruned(self, monkeypatch, unstable_hexagon, workers):
        # R = 1 has four antipodal pairs: one share, shares of two and two,
        # and shares of two, one and one
        pools = stand_in_pool(monkeypatch, workers)
        P, sigma = unstable_hexagon
        pooled = crease_search(P, sigma, 1, workers=workers)
        assert [sorted(map(len, shares)) for shares in pools] == \
            {1: [], 2: [[4, 4]], 3: [[2, 2, 4]]}[workers]
        assert pooled == assert_matches_oracle(monkeypatch, P, sigma, 1)

    def test_hexagon_matches_unpruned(self, monkeypatch, unstable_hexagon):
        assert_matches_oracle(monkeypatch, *unstable_hexagon, 5)

    def test_random_corpus_matches_unpruned(self, monkeypatch):
        rng = random.Random(71)
        for k in range(6):
            P = random_polygon(rng) if k % 2 else random_integral_polygon(rng)
            assert_matches_oracle(monkeypatch, P, random_weights(rng, P), 4)

    def test_hexagon_prunes(self, unstable_hexagon):
        P, sigma = unstable_hexagon
        dirs = stab.primitive_directions(2, 8)
        best, n_creases, n_split, n_exact, n_pruned = stab._scan_chunk(
            (P, sigma, measures(P, sigma).A, dirs, 8))
        assert (len(dirs), n_creases) == (176, 164428)
        assert (n_pruned, n_split, n_exact) == (171, 19, 18)
        assert best[0].direction == (0, -1)

    def test_split_floors_below_ratios(self):
        # random pieces of random directions, halved at random down to the
        # leaf width: each half's floor is at most the exact ratio at every
        # offset in it
        rng = random.Random(73)
        R, checked = 6, 0
        for k in range(12):
            P = random_polygon(rng) if k % 2 else random_integral_polygon(rng)
            sigma = random_weights(rng, P)
            A = measures(P, sigma).A
            for a in rng.sample(stab.primitive_directions(2, R), 2):
                poly = stab._IntegerPolygon(P, sigma)
                sweep = stab._sweep(poly, a)
                smin, bden, iden = sweep_ends(poly, sweep)[0], sweep[3], sweep[4]
                start, width, bb, ib = rng.choice(stab._pieces(*sweep[:3]))
                den = poly.D
                while width * R * R > 16 * den:
                    half = rng.randint(0, 1)
                    bb, ib = ip.halves(bb)[half], ip.halves(ib)[half]
                    start, den = 2 * start + half * width, 2 * den
                    low = ip.bernstein_floor(bb, ib)
                    for c in stab.admissible_offsets(Q(start, den), Q(start + width, den), R):
                        if c != smin and low is not None:
                            bval, mass = sweep_eval(poly, sweep, c)
                            assert stab._shifted_floor(low, iden, bden, A) <= \
                                (bval - A * mass) / mass, (a, c, start, den)
                            checked += 1
        assert checked > 1000


def scaled_floor(lb, mb):
    low = ip.bernstein_floor(lb, mb)
    return None if low is None else Q(*low)


def assert_floors_match_scaled(sweep, A, rng):
    """The A-free floors of a direction equal those of the A-scaled cubics they replace.

    The oracle bounds l = bco*iden*Ad - ico*An*bden over m = ico*bden*Ad
    (A = An/Ad) directly: on each piece, on three random halvings of it and
    as the least over the direction's pieces (ratio_floor).
    """
    _, bco, ico, bden, iden = sweep[:5]
    kl, kb, km = iden * A.denominator, A.numerator * bden, bden * A.denominator
    floors = []
    for (s0, h, bb, ib), bc, ic in zip(stab._pieces(*sweep[:3]), bco, ico):
        lb = ip.bernstein3([b * kl - i * kb for b, i in zip(bc, ic)], s0, h)
        mb = ip.bernstein3([i * km for i in ic], s0, h)
        floors.append(scaled_floor(lb, mb))
        for _ in range(4):
            low = ip.bernstein_floor(bb, ib)
            assert (None if low is None else stab._shifted_floor(low, iden, bden, A)) == \
                scaled_floor(lb, mb), s0
            k = rng.randint(0, 1)
            bb, ib, lb, mb = (ip.halves(x)[k] for x in (bb, ib, lb, mb))
    assert ratio_floor(sweep, A) == (None if None in floors else min(floors))


def assert_scan_floors_match_scaled(P, sigma, R, rng):
    A = measures(P, sigma).A
    poly = stab._IntegerPolygon(P, sigma)
    for a in stab.primitive_directions(P.dim, R):
        assert_floors_match_scaled(stab._sweep(poly, a), A, rng)


class TestShiftedFloors:
    """Bernstein floors on boundary/mass, shifted by A, against the A-scaled ones."""

    def test_hexagon(self, unstable_hexagon):
        # every direction of sup-height 12 or less
        assert_scan_floors_match_scaled(*unstable_hexagon, 12, random.Random(89))

    def test_random_corpus(self):
        rng = random.Random(97)
        for k in range(8):
            P = random_polygon(rng) if k % 2 else random_integral_polygon(rng)
            assert_scan_floors_match_scaled(P, random_weights(rng, P), 5, rng)

    def test_weighted_segments(self, segment01):
        rng = random.Random(101)
        P = Polytope.from_vertices([(Q(-7, 3),), (Q(5, 2),)])
        assert_scan_floors_match_scaled(segment01, BoundaryMeasure((Q(1), Q(2))), 1, rng)
        assert_scan_floors_match_scaled(P, BoundaryMeasure((Q(3, 4), Q(2, 9))), 1, rng)

    @pytest.mark.parametrize("bco", [[0, 0, 0, 0], [-1, 0, 0, 0]])
    def test_negative_mass_coefficients(self, square, bco):
        # the mass (1 - 2S)^2 of test_floor_needs_every_coefficient, with a
        # floor of -A and then with none, and three random halvings of each
        sigma = unit(square)
        brk, _, _, *rest = stab._sweep(stab._IntegerPolygon(square, sigma), (1, 0))
        assert_floors_match_scaled((brk, [bco], [[1, -4, 4, 0]], *rest),
                                   measures(square, sigma).A, random.Random(103))


def flipped(sweep):
    """The sweep of -a from that of a, row by row.

    max(0, <-a,x> - c) = max(0, <a,x> + c) - (<a,x> + c): the pieces of -a
    are those of a in reverse order, at S -> -S, less the totals t of
    <a,x> - c over all of the boundary and of P.
    """
    brk, bco, ico, bden, iden, btot, itot = sweep

    def flip(rows, t):
        return [[c0 - t[0], t[1] - c1, c2, -c3] for c0, c1, c2, c3 in reversed(rows)]

    return ([-s for s in reversed(brk)], flip(bco, btot), flip(ico, itot), bden, iden,
            (-btot[0], btot[1]), (-itot[0], itot[1]))


def assert_pair_floors(poly, a, A, R):
    """The pair pass's floors of a and -a equal ratio_floor on their own
    sweeps, its count is that of -a, and the sweep of -a is that of a flipped."""
    neg = tuple(-x for x in a)
    sa, sneg = stab._sweep(poly, a), stab._sweep(poly, neg)
    assert flipped(sa) == sneg, a
    blocks = ip.moebius_blocks(R)
    farey = stab._farey(blocks)
    count = stab._count_offsets(*sweep_ends(poly, sneg), blocks, farey)
    assert stab._pair_floors(poly, a, A, blocks, farey) == (
        ratio_floor(sa, A), ratio_floor(sneg, A), count), a


def assert_scan_pair_floors(P, sigma, R):
    A = measures(P, sigma).A
    poly = stab._IntegerPolygon(P, sigma)
    dirs = stab.primitive_directions(P.dim, R)
    for a in dirs[:len(dirs) // 2]:
        assert_pair_floors(poly, a, A, R)


class TestPairFloors:
    """_pair_floors against ratio_floor on the sweeps of a and of -a."""

    def test_hexagon(self, unstable_hexagon):
        # every direction of sup-height 12 or less
        assert_scan_pair_floors(*unstable_hexagon, 12)

    def test_random_corpus(self):
        rng = random.Random(79)
        for _ in range(200):
            P = random_polygon(rng)
            assert_scan_pair_floors(P, random_weights(rng, P), 5)

    def test_segments(self, segment01):
        P = Polytope.from_vertices([(Q(-7, 3),), (Q(5, 2),)])
        assert_scan_pair_floors(segment01, BoundaryMeasure((Q(1), Q(2))), 7)
        assert_scan_pair_floors(P, BoundaryMeasure((Q(3, 4), Q(2, 9))), 7)

    @pytest.mark.parametrize("bco, floor", [([0, 0, 0, 0], "-A"), ([-1, 0, 0, 0], None)])
    def test_negative_mass_coefficients(self, monkeypatch, square, bco, floor):
        # the mass (1 - 2S)^2 of test_floor_needs_every_coefficient on the
        # square's one piece of (1, 0), and the same rows flipped for (-1, 0)
        sigma = unit(square)
        A = measures(square, sigma).A
        poly = stab._IntegerPolygon(square, sigma)
        brk, _, _, *rest = stab._sweep(poly, (1, 0))
        rows = (brk, [bco], [[1, -4, 4, 0]], *rest)
        monkeypatch.setattr(stab, "_sweep", lambda poly, a: rows if a == (1, 0) else flipped(rows))
        assert ratio_floor(stab._sweep(poly, (1, 0)), A) == (-A if floor else None)
        assert_pair_floors(poly, (1, 0), A, 4)

    def test_scan_builds_only_opened_profiles(self, monkeypatch, unstable_hexagon):
        # a serial R = 8 scan sweeps each antipodal pair once, which gives
        # every floor, and after that only the 5 directions the heap opens,
        # for their pieces
        P, sigma = unstable_hexagon
        swept, sweep = [], stab._sweep

        def counted(poly, a):
            swept.append(a)
            return sweep(poly, a)

        monkeypatch.setattr(stab, "_sweep", counted)
        dirs = stab.primitive_directions(2, 8)
        best, *counts = stab._scan_chunk((P, sigma, measures(P, sigma).A, dirs, 8))
        assert len(dirs) == 176
        assert swept[:88] == dirs[:88]
        assert swept[88:] == [(0, -1), (1, -8), (1, -7), (1, -6), (1, -5)]
        assert counts == [164428, 19, 18, 171]
        assert (best[0].direction, len(best)) == ((0, -1), 10)


class TestIntegerProfiles:
    """Every direction's _sweep rows against the Fraction builder, at R = 8."""

    @pytest.mark.parametrize("name", ["square", "trapezoid"])
    def test_polygon_fixtures(self, request, name):
        P = request.getfixturevalue(name)
        assert_profiles_match(P, unit(P), 8)

    def test_hexagon(self, unstable_hexagon):
        assert_profiles_match(*unstable_hexagon, 8)

    def test_segments(self, segment01, segment_sym):
        assert_profiles_match(segment01, BoundaryMeasure((Q(1), Q(2))), 8)
        assert_profiles_match(segment_sym, unit(segment_sym), 8)
        P = Polytope.from_vertices([(Q(-7, 3),), (Q(5, 2),)])
        assert_profiles_match(P, BoundaryMeasure((Q(3, 4), Q(2, 9))), 8)

    def test_random_corpus(self):
        rng = random.Random(67)
        for k in range(8):
            P = random_polygon(rng) if k % 2 else random_integral_polygon(rng)
            assert_profiles_match(P, random_weights(rng, P), 8)

    def test_large_vertex_denominators(self):
        p, q = 2 ** 61 - 1, 10 ** 12 + 39
        P = Polytope.from_vertices([
            (Q(-2 * p + 1, p), Q(-q - 3, q)), (Q(3 * q + 7, q), Q(-1, p)),
            (Q(2 * p - 5, p), Q(2 * q + 1, q)), (Q(-1, q), Q(3 * p - 2, p)),
            (Q(-2 * q - 11, q), Q(p + 4, p))])
        assert max(v[0].denominator * v[1].denominator for v in P.vertices) > 2 ** 100
        sigma = BoundaryMeasure(tuple(Q(k + 2, 2 * k + 3) for k in range(len(P.facets))))
        assert_profiles_match(P, sigma, 8)

    def test_float_overflow(self, square):
        # a weight of 10^400, past the floats, still gives exact profiles
        sigma = BoundaryMeasure((Q(10 ** 400),) + (Q(1),) * 3)
        assert_profiles_match(square, sigma, 8)


def assert_parts_match(P, sigma, R, rng, descents=1):
    """Parts evaluate their offsets as the Fraction oracle does.

    Each piece of every direction is halved at random (halves) to a depth
    of 5 to 7, descents times; at every admissible offset of each part at
    depth 5 or more, _part_values equals FractionProfile.eval.  Returns the
    number of offsets compared.
    """
    poly = stab._IntegerPolygon(P, sigma)
    checked = 0
    for a in stab.primitive_directions(P.dim, R):
        brk, bco, ico, bden, iden, _, _ = stab._sweep(poly, a)
        ref = FractionProfile(P, sigma, a)
        for piece in stab._pieces(brk, bco, ico) * descents:
            start, width, bb, ib = piece
            den = poly.D
            for depth in range(1, rng.randint(5, 7) + 1):
                k = rng.randint(0, 1)
                bb, ib = ip.halves(bb)[k], ip.halves(ib)[k]
                start, den = 2 * start + k * width, 2 * den
                if depth < 5:
                    continue
                part = (start, width, den, bb, ib)
                for c in stab.admissible_offsets(Q(start, den), Q(start + width, den), R):
                    assert stab._part_values(part, c, poly.D, bden, iden) == ref.eval(c), \
                        (a, c, start, den)
                    checked += 1
    return checked


class TestPartValues:
    """The scan's exact values, from each part's own Bernstein coefficients."""

    def test_hexagon(self, unstable_hexagon):
        # every direction of sup-height 12 or less
        assert assert_parts_match(*unstable_hexagon, 12, random.Random(107)) > 10000

    def test_random_corpus(self):
        rng, checked = random.Random(109), 0
        for k in range(8):
            P = random_polygon(rng) if k % 2 else random_integral_polygon(rng)
            checked += assert_parts_match(P, random_weights(rng, P), 5, rng)
        assert checked > 1000

    def test_weighted_segments(self, segment01):
        rng = random.Random(113)
        P = Polytope.from_vertices([(Q(-7, 3),), (Q(5, 2),)])
        checked = assert_parts_match(segment01, BoundaryMeasure((Q(1), Q(2))), 48, rng, 4)
        checked += assert_parts_match(P, BoundaryMeasure((Q(3, 4), Q(2, 9))), 48, rng, 4)
        assert checked > 1000


class TestTestConfiguration:
    def test_conic_to_two_lines(self, segment_sym):
        tc = stab.test_configuration(segment_sym, PLConvexFunction.abs_coordinate(1))
        cells = sorted(tuple(sorted(v[0] for v in c.vertices)) for c in tc.cells)
        assert cells == [(Q(-1), Q(0)), (Q(0), Q(1))]
        assert tc.truncation == 2
        assert not tc.is_product
        # the epigraph contains the graph points and the truncation roof
        for pt in [(0, 0), (1, 1), (-1, 1), (1, 2), (-1, 2)]:
            assert tc.polytope.contains(pt)
        assert not tc.polytope.contains((0, -Q(1, 10)))

    def test_affine_is_product(self, square):
        tc = stab.test_configuration(square, PLConvexFunction.affine((1, 0), 0))
        assert tc.is_product
        assert len(tc.cells) == 1

    def test_square_crease_two_cells(self, square):
        tc = stab.test_configuration(square, PLConvexFunction.crease((1, 0), Q(1, 2)))
        assert len(tc.cells) == 2
        vols = sorted(measures(c).vol for c in tc.cells)
        assert vols == [Q(1, 2), Q(1, 2)]
        for f in tc.polytope.facets:
            assert math.gcd(*(abs(n) for n in f.normal)) == 1
        for v in tc.polytope.vertices:
            assert tc.polytope.contains(v)

    def test_rational_piece_scaled_primitive(self, square):
        tc = stab.test_configuration(square, PLConvexFunction.crease((Q(1, 2), Q(1, 3)), Q(1, 6)))
        assert any(f.normal[2] > 1 for f in tc.polytope.facets)
