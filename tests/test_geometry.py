import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from kstab import geometry as geo
from kstab.polytope import BoundaryMeasure, Polytope, measures, parse_polytope_text

from conftest import (box_quadratic_integrals, divergence_pairing, ibp_pairing,
                      numeric_scalar_curvature, oracle_boundary_integral_nodes,
                      oracle_boundary_integral_u0_exact, oracle_divergence2,
                      oracle_extend_interior_field, oracle_hessian_and_gradient,
                      scalar_curvature_field, uniform_core_mask)


def unit(P):
    return BoundaryMeasure.unit(P)


class TestGradedMesh:
    def test_spans_interval(self):
        x = geo.graded_nodes(0.0, 1.0, 65)
        assert x[0] == 0 and x[-1] == 1
        assert (np.diff(x) > 0).all()

    def test_symmetric(self):
        x = geo.graded_nodes(0.0, 1.0, 64)
        assert np.abs((x + x[::-1]) - 1).max() < 1e-12

    def test_grading_crowds_boundary(self):
        x = geo.graded_nodes(0.0, 1.0, 129)
        gaps = np.diff(x)
        assert gaps[0] < gaps[len(gaps) // 2] / 5
        assert gaps[0] > 1e-7

    def test_refined_nested(self):
        P = Polytope.from_vertices([(0,), (1,)])
        g = geo.guillemin(P, unit(P), m=17)
        g2 = g.refined()
        assert np.allclose(g2.axes[0].nodes[0::2], g.axes[0].nodes)


class TestGuillemin:
    def test_segment_closed_form(self, segment01):
        g = geo.guillemin(segment01, unit(segment01), m=33)
        x = g.axes[0].nodes[1:-1]
        u0 = g.u0_values()[1:-1]
        assert np.allclose(u0, x * np.log(x) + (1 - x) * np.log(1 - x))
        d2 = g.axes[0].u0_d2()
        assert np.allclose(d2, 1 / (x * (1 - x)))

    def test_weighted_segment_formula(self, segment01):
        g = geo.guillemin(segment01, BoundaryMeasure((Q(1), Q(2))), m=33)
        x = g.axes[0].nodes[1:-1]
        u0 = g.u0_values()[1:-1]
        assert np.allclose(u0, x * np.log(x) + (1 - x) / 2 * np.log(1 - x))

    def test_square_separable_hessian_diagonal(self, square):
        g = geo.guillemin(square, unit(square), m=17)
        H = geo.hessian_field(g)
        assert np.abs(H[(0, 1)]).max() == 0
        x = g.axes[0].nodes[1:-1]
        assert np.allclose(H[(0, 0)], (1 / (x * (1 - x)))[:, None] * np.ones_like(x)[None, :])

    def test_non_box_rejected(self):
        tri = Polytope.from_vertices([(0, 0), (2, 0), (0, 2)])
        with pytest.raises(geo.UnsupportedPolytopeError):
            geo.guillemin(tri, unit(tri), m=17)

    def test_non_delzant_warns(self):
        tri = Polytope.from_vertices([(0, 0), (1, 0), (0, 2)])
        with pytest.warns(UserWarning, match="Delzant"):
            with pytest.raises(geo.UnsupportedPolytopeError):
                geo.guillemin(tri, unit(tri), m=17)

    def test_boundary_values_vanish(self, square):
        g = geo.guillemin(square, unit(square), m=17)
        u0 = g.u0_values()
        assert u0[0, 0] == 0 and u0[-1, -1] == 0


class TestAbreuOperator:
    def test_segment_constant(self, segment01):
        g = geo.guillemin(segment01, unit(segment01), m=65)
        S = scalar_curvature_field(g)
        assert np.abs(S - 1).max() < 1e-10   # A/2 with A = 2

    def test_square_constant(self, square):
        g = geo.guillemin(square, unit(square), m=33)
        S = scalar_curvature_field(g)
        assert np.abs(S - 2).max() < 1e-10   # A/2 with A = 4

    def test_weighted_box_constant(self, square):
        sigma = BoundaryMeasure(tuple(
            Q(2) if f.normal[0] != 0 else Q(3) for f in square.facets))
        g = geo.guillemin(square, sigma, m=33)
        A = float(measures(square, sigma).A)
        S = scalar_curvature_field(g)
        assert np.abs(S - A / 2).max() < 1e-9

    def test_sample_and_inverse_consistency(self, segment01):
        g = geo.guillemin(segment01, unit(segment01), m=65)
        x = g.axes[0].nodes[32]
        samp = geo.abreu_S(g, (x,))
        assert abs(samp.S - 1) < 1e-10
        eye_err = np.abs(samp.g_xx @ samp.g_theta - np.eye(1)).max()
        cond = np.linalg.cond(samp.g_xx)
        assert eye_err <= 10 * np.finfo(float).eps * cond

    def test_affine_shift_leaves_S(self, square):
        g = geo.guillemin(square, unit(square), m=17)
        g2 = g.with_phi(lambda x, y: 0.3 * x - 0.2 * y + 0.7)
        S1 = scalar_curvature_field(g)
        S2 = scalar_curvature_field(g2)
        assert np.abs(S1 - S2).max() < 1e-9

    def test_depth_requirement(self, segment01):
        g = geo.guillemin(segment01, unit(segment01), m=33)
        with pytest.raises(ValueError, match="2 mesh layers"):
            geo.abreu_S(g, (g.axes[0].nodes[1],))

    def test_convexity_violation_reported_with_location(self, segment01):
        g = geo.guillemin(segment01, unit(segment01), m=33)
        g2 = g.with_phi(lambda x: -40.0 * (x - 0.5) ** 2)
        with pytest.raises(geo.ConvexityError) as ei:
            geo.abreu_S(g2, (g.axes[0].nodes[16],))
        assert 0 < ei.value.point[0] < 1

    def test_convexity_error_reports_plain_floats(self, square):
        g = geo.guillemin(square, unit(square), m=17).with_phi(
            lambda x, y: -40.0 * (x - 0.5) ** 2)
        H = geo.hessian_field(g)
        with pytest.raises(geo.ConvexityError) as ei:
            geo.check_convexity(g, H, geo.det_field(H))
        assert all(type(v) is float for v in ei.value.point)
        assert "np.float64" not in str(ei.value)

    def test_numeric_mode_second_order_segment(self, segment01):
        g1 = geo.guillemin(segment01, unit(segment01), m=65)
        g2 = g1.refined()
        e = []
        for g in (g1, g2):
            S = numeric_scalar_curvature(g)
            mask = uniform_core_mask(g)
            e.append(np.abs(S - 1)[mask].max())
        # compare at the common coarse nodes
        S2 = numeric_scalar_curvature(g2)
        S1 = numeric_scalar_curvature(g1)
        m1 = uniform_core_mask(g1)
        common = S2[2 * np.arange(len(S1)) + 2]
        ratio = np.abs(S1 - 1)[m1].max() / np.abs(common - 1)[m1].max()
        assert 3.5 < ratio < 4.5

    def test_numeric_mode_oracle_potential(self, segment_sym):
        # u'' = 1 + x^2 gives S = (1 - 3x^2)/(1 + x^2)^3 in closed form
        def phi_f(x):
            u0 = np.zeros_like(x)
            a = x + 1
            b = 1 - x
            pos = a > 0
            u0[pos] += a[pos] * np.log(a[pos])
            pos = b > 0
            u0[pos] += b[pos] * np.log(b[pos])
            return x ** 2 / 2 + x ** 4 / 12 - u0

        g1 = geo.guillemin(segment_sym, unit(segment_sym), m=65).with_phi(phi_f)
        g2 = g1.refined(phi_f)
        S1 = numeric_scalar_curvature(g1)
        S2 = numeric_scalar_curvature(g2)
        x1 = g1.axes[0].nodes[2:-2]
        exact1 = (1 - 3 * x1 ** 2) / (1 + x1 ** 2) ** 3
        m1 = uniform_core_mask(g1)
        e1 = np.abs(S1 - exact1)[m1].max()
        e2 = np.abs(S2[2 * np.arange(len(S1)) + 2] - exact1)[m1].max()
        assert 3.4 < e1 / e2 < 4.6


class TestLegendre:
    def test_quadratic_self_dual(self, segment_sym, monkeypatch):
        g = geo.PotentialGrid.build(segment_sym, unit(segment_sym), 33)
        u0 = g.u0_values()
        x = g.axes[0].nodes
        g2 = g.with_phi(x ** 2 / 2 - u0)   # u = x^2/2 overall
        # phi carries the log singularities of -u0, so the analytic route sees
        # a nonconvex u near the ends; the numeric route is exact on x^2/2
        monkeypatch.setattr(geo, "hessian_field",
                            lambda g: oracle_hessian_and_gradient(g, "numeric")[0])
        monkeypatch.setattr(geo, "gradient_field",
                            lambda g: oracle_hessian_and_gradient(g, "numeric")[1])
        j = 16
        val, grad = geo.legendre(g2, (x[j],))
        assert abs(grad[0] - x[j]) < 1e-10
        assert abs(val - x[j] ** 2 / 2) < 1e-10

    def test_segment_reference_midpoint(self, segment01):
        g = geo.guillemin(segment01, unit(segment01), m=65)
        mid = g.axes[0].nodes[32]
        assert abs(mid - 0.5) < 1e-12
        val, grad = geo.legendre(g, (mid,))
        assert abs(grad[0]) < 1e-12

    def test_transform_convex_along_line(self, segment01):
        g = geo.guillemin(segment01, unit(segment01), m=65)
        ys, vals = [], []
        for j in range(5, 60):
            v, gr = geo.legendre(g, (g.axes[0].nodes[j],))
            ys.append(gr[0])
            vals.append(v)
        ys = np.array(ys)
        vals = np.array(vals)
        assert (np.diff(ys) > 0).all()
        slopes = np.diff(vals) / np.diff(ys)
        assert (np.diff(slopes) > -1e-9).all()


class TestQuadrature:
    def test_closed_forms_match_fine_trapezoid(self, square):
        sigma = BoundaryMeasure(tuple(
            Q(2) if f.normal == (1, 0) else Q(1) for f in square.facets))
        g = geo.PotentialGrid.build(square, sigma, 17)
        gf = geo.PotentialGrid.build(square, sigma, 513)
        u0f = gf.u0_values()
        trap = geo.integrate_nodes(gf, u0f)
        assert abs(trap - geo.integral_u0_exact(g)) < 5e-5
        btrap = geo.boundary_integral_nodes(gf, u0f)
        assert abs(btrap - geo.boundary_integral_u0_exact(g)) < 5e-5

    def test_boundary_integrals_match_the_per_dimension_bodies(self):
        # one loop over the facets sums in the order of the separate 1-D and
        # 2-D bodies, so the results are bitwise equal
        rng = random.Random(83)
        for k in range(60):
            dim = 1 + k % 2
            lines = [f"dim {dim}", "facets"]
            for a in range(dim):
                lo = Q(rng.randint(-50, 50), rng.randint(1, 7))
                hi = lo + Q(rng.randint(1, 90), rng.randint(1, 9))
                for sign, c in ((1, lo), (-1, -hi)):
                    nu = [0] * dim
                    nu[a] = sign
                    lines.append(" ".join(map(str, nu))
                                 + f" {c} {Q(rng.randint(1, 9), rng.randint(1, 4))}")
            P, sigma = parse_polytope_text("\n".join(lines) + "\n")
            g = geo.PotentialGrid.build(P, sigma, [rng.randint(8, 40) for _ in range(dim)])
            values = np.random.default_rng(k).standard_normal(g.shape)
            got = geo.boundary_integral_u0_exact(g), geo.boundary_integral_nodes(g, values)
            want = oracle_boundary_integral_u0_exact(g), oracle_boundary_integral_nodes(g, values)
            assert got == want and all(type(v) is float for v in got)

    def test_l_quadrature_exact_for_linear_phi(self, square):
        from kstab.stability import L, PLConvexFunction
        g = geo.PotentialGrid.build(square, unit(square), 17)
        lin = g.with_phi(lambda x, y: 2.0 * x - 1.0 * y)
        base = geo.l_functional_quadrature(g)
        shifted = geo.l_functional_quadrature(lin)
        exact = L(square, unit(square), PLConvexFunction.affine((2, -1), 0))
        assert abs((shifted - base) - float(exact)) < 1e-12

    def test_integration_by_parts_identity(self, square, segment01):
        # int u^{ab} f_ab - int (u^{ab})_{,ab} f = boundary integral of f,
        # for any u = u0 + smooth phi: the two-integrations-by-parts contract
        # that encodes the (ell/w) log ell boundary behaviour.
        cases = []
        sig2 = BoundaryMeasure(tuple(
            Q(2) if f.normal[0] != 0 else Q(3) for f in square.facets))
        cases.append((square, sig2, lambda x, y: 0.02 * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2,
                      [[1, 0], [0, 0]], 33))
        cases.append((segment01, BoundaryMeasure((Q(1), Q(3))),
                      lambda x: 0.1 * np.sin(np.pi * x) ** 2, [[1]], 129))
        for P, sigma, phi, qmat, m in cases:
            g = geo.PotentialGrid.build(P, sigma, m, phi=phi)
            lhs = ibp_pairing(g, qmat)
            mid = divergence_pairing(g, qmat)
            # boundary integral of f = x^T Q x with the weighted measure
            bexact = float(box_quadratic_integrals(P, sigma, qmat)[0])
            # quadrature order estimate from a refined grid
            g2 = g.refined(phi)
            lhs2 = ibp_pairing(g2, qmat)
            mid2 = divergence_pairing(g2, qmat)
            err_est = abs((lhs - mid) - (lhs2 - mid2)) * 4 / 3 + 1e-8
            assert abs((lhs - mid) - bexact) < 12 * err_est + 5e-4


class TestFieldExtension:
    def test_extends_polynomials_exactly(self, square):
        g = geo.PotentialGrid.build(square, unit(square), 17)
        grids = g.node_grids()
        f = 1.0 + 2 * grids[0] - grids[1] + 0.5 * grids[0] * grids[1]
        inner = f[1:-1, 1:-1]
        ext = geo.extend_interior_field(g, inner)
        assert np.abs(ext - f).max() < 1e-10

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("vertices, m", [([(0,), (1,)], 17), ([(0,), (1,)], 256),
                                             ([(0, 0), (2, 0), (2, 1), (0, 1)], 17),
                                             ([(0, 0), (2, 0), (2, 1), (0, 1)], (65, 40))])
    def test_bitwise_equal_to_nan_loop(self, vertices, m, layers):
        P = Polytope.from_vertices(vertices)
        g = geo.PotentialGrid.build(P, unit(P), m)
        F = np.random.default_rng(layers).standard_normal(tuple(k - 2 * layers for k in g.shape))
        got = geo.extend_interior_field(g, F, layers)
        assert got.tobytes() == oracle_extend_interior_field(g, F, layers).tobytes()

    def test_grid_dump_shape(self, segment01):
        g = geo.guillemin(segment01, unit(segment01), m=17)
        _, det, _, div = geo.potential_fields(g)
        cols = geo.grid_dump_rows(g, det, div)
        assert list(cols) == ["x1", "u", "det_hess", "S"]
        assert [len(c) for c in cols.values()] == [17] * 4
        assert math.isnan(cols["det_hess"][0])

    def test_grid_dump_matches_per_node_loop(self):
        for g in perturbed_grids()[1:]:   # a weighted segment and a weighted box
            _, det, _, div = geo.potential_fields(g)
            got = geo.grid_dump_rows(g, det, div)
            assert list(got) == ["x1", "x2"][:g.n] + ["u", "det_hess", "S"]
            # the coordinates are written as their reprs; repr keeps NaN cells
            # comparable, pins every bit of the rest and tells a numpy scalar
            # from a float
            rows = list(zip(*got.values()))
            assert [list(r[:g.n]) + list(map(repr, r[g.n:])) for r in rows] == \
                   [list(map(repr, r)) for r in oracle_grid_dump_rows(g)]
            assert any(math.isnan(v) for r in rows for v in r[g.n:])


class TestMesh:
    def test_with_phi_shares_the_mesh_and_refined_makes_its_own(self, square):
        sigma = BoundaryMeasure(tuple(Q(2) if f.normal[0] else Q(3) for f in square.facets))
        g = geo.PotentialGrid.build(square, sigma, 17)
        assert g.with_phi(lambda x, y: x * y).mesh is g.mesh
        fine = g.refined()
        assert fine.mesh is not g.mesh and fine.shape == (33, 33)
        # the coarse grid's constants first: a refined grid reading them fails
        for h in (g, fine):
            axes = h.axes
            assert np.array_equal(h.u0_values(), np.add.outer(axes[0].u0(), axes[1].u0()))
            assert all(np.array_equal(d2, geo._on_axis(ax.u0_d2(), 2, a))
                       for a, (d2, ax) in enumerate(zip(h.mesh.u0_d2, axes)))
            assert np.array_equal(h.mesh.node_weights, np.outer(axes[0].trapezoid,
                                                                axes[1].trapezoid))
            assert np.array_equal(h.mesh.interior_weights, h.mesh.node_weights[1:-1, 1:-1])
            assert np.array_equal(h.mesh.log_singular, geo.log_singular_field(h))
            assert (h.mesh.integral_u0, h.mesh.integral_log_terms, h.mesh.boundary_integral_u0) \
                == (geo.integral_u0_exact(h), geo.integral_log_terms_exact(h),
                    geo.boundary_integral_u0_exact(h))
            assert not h.mesh.u0.flags.writeable and not h.mesh.node_weights.flags.writeable


def oracle_grid_dump_rows(g):
    """The per-node loop grid_dump_rows replaced, from a fresh evaluation of
    g's potential: (x1[, x2], u, det_hess, S) per node, as floats."""
    u = g.u_values()
    det_full = np.full(g.shape, np.nan)
    det_full[(slice(1, -1),) * g.n] = geo.det_field(geo.hessian_field(g))
    S_full = np.full(g.shape, np.nan)
    S_full[(slice(2, -2),) * g.n] = scalar_curvature_field(g)
    grids = g.node_grids()
    rows = []
    for idx in np.ndindex(*g.shape):
        rows.append(tuple(float(gr[idx]) for gr in grids)
                    + (float(u[idx]), float(det_full[idx]), float(S_full[idx])))
    return rows


def perturbed_grids():
    """A unit segment, a weighted segment and a weighted non-square box, each
    with a smooth bump plus seeded noise in phi."""
    rng = np.random.default_rng(3)
    seg = Polytope.from_vertices([(0,), (1,)])
    sq = Polytope.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
    wsq = BoundaryMeasure(tuple(Q(2) if f.normal[0] != 0 else Q(3) for f in sq.facets))
    out = []
    for P, sigma, m, bump in (
            (seg, unit(seg), 33, lambda x: 0.05 * np.sin(np.pi * x) ** 2),
            (seg, BoundaryMeasure((Q(1), Q(2))), 40, lambda x: 0.02 * x ** 3),
            (sq, wsq, (19, 23), lambda x, y: 0.02 * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2
             + 0.01 * x * y ** 2)):
        g = geo.PotentialGrid.build(P, sigma, m, phi=bump)
        out.append(g.with_phi(g.phi + 1e-6 * rng.standard_normal(g.shape)))
    return out


class TestStencilOracle:
    """The sparse axis matrices reproduce the stencil route bit for bit."""

    # the library has the analytic route only; the numeric one is a test oracle
    @pytest.mark.parametrize("mode", ["analytic"])
    @pytest.mark.parametrize("case", range(3))
    def test_fields_equal_oracle(self, case, mode):
        g = perturbed_grids()[case]
        H_want, grad_want = oracle_hessian_and_gradient(g, mode)
        H = geo.hessian_field(g)
        assert H.keys() == H_want.keys()
        for key in H:
            assert np.array_equal(H[key], H_want[key]), key
        for got, want in zip(geo.gradient_field(g), grad_want, strict=True):
            assert np.array_equal(got, want)
        U = geo.inverse_hessian_field(H, geo.det_field(H))
        assert np.array_equal(geo.divergence2_field(g, U), oracle_divergence2(g, U))
