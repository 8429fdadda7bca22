import numpy as np
import pytest

from kstab import kempfness as kn


class TestSphereMoment:
    def test_antipodal_pair(self):
        c = kn.SphereConfig(np.array([[0, 0, 1.0], [0, 0, -1.0]]))
        assert np.linalg.norm(kn.sphere_moment(c)) == 0

    def test_multiplicity_three_one(self):
        c = kn.SphereConfig(np.array([[0, 0, 1.0], [0, 0, -1.0]]), np.array([3, 1]))
        assert np.allclose(kn.sphere_moment(c), [0, 0, 2])

    def test_tetrahedron(self):
        pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
        c = kn.SphereConfig(pts)
        assert np.linalg.norm(kn.sphere_moment(c)) < 1e-12

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            kn.SphereConfig(np.array([[0, 0, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_points_rejected(self, bad):
        # NaN fails every comparison, so the unit-norm check alone lets it pass
        with pytest.raises(ValueError, match="finite"):
            kn.SphereConfig(np.array([[0, 0, 1.0], [bad, 0, 0]]))


class TestSphereFlow:
    def test_balanced_two_two(self):
        rng = np.random.default_rng(5)
        p = rng.standard_normal((2, 3))
        p /= np.linalg.norm(p, axis=1)[:, None]
        res = kn.sphere_flow(kn.SphereConfig(p, np.array([2, 2])))
        assert res.verdict == "balanced"
        assert res.mu_norms[-1] < 1e-8
        axis, plus, minus = res.antipodal
        assert plus == minus == 2

    def test_unstable_three_one(self):
        rng = np.random.default_rng(7)
        p = rng.standard_normal((2, 3))
        p /= np.linalg.norm(p, axis=1)[:, None]
        res = kn.sphere_flow(kn.SphereConfig(p, np.array([3, 1])))
        assert res.verdict == "diverges-to-fixed-point"
        assert abs(res.mu_norms[-1] - 2) < 1e-6
        _, plus, minus = res.antipodal
        assert {plus, minus} == {3, 1}

    def test_already_balanced_fixed(self):
        pts = np.array([[0, 0, 1.0], [0, 0, -1.0]])
        res = kn.sphere_flow(kn.SphereConfig(pts))
        assert res.verdict == "balanced"
        assert np.allclose(res.config.points, pts)
        assert res.steps <= 1

    def test_out_of_steps_is_unresolved(self):
        # a (1, 1, 1, 1) configuration that balances in 24 steps at step 0.05
        pts = np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]])
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        assert kn.sphere_flow(kn.SphereConfig(pts)).verdict == "balanced"
        res = kn.sphere_flow(kn.SphereConfig(pts), max_steps=3)
        assert (res.verdict, res.steps) == ("unresolved", 3)
        assert res.mu_norms[-1] > 0.5

    def test_mu_monotone(self):
        rng = np.random.default_rng(11)
        p = rng.standard_normal((5, 3))
        p /= np.linalg.norm(p, axis=1)[:, None]
        res = kn.sphere_flow(kn.SphereConfig(p))
        v = np.array(res.mu_norms)
        assert (np.diff(v) <= 1e-15).all()


class TestMatrixFlow:
    def test_diagonalizable_to_normal(self):
        res = kn.matrix_flow([[1, 1], [0, 2]])
        assert res.verdict == "normal"
        assert res.commutator_norms[-1] < 1e-8
        eigs = np.sort(np.linalg.eigvals(res.matrix).real)
        assert np.abs(eigs - [1, 2]).max() < 1e-6

    def test_nilpotent_to_zero(self):
        res = kn.matrix_flow([[0, 1], [0, 0]])
        assert np.linalg.norm(res.matrix) < 1e-3
        v = np.array(res.commutator_norms)
        assert (np.diff(v) < 0).all()
        # eigenvalues conserved: still nilpotent spectrum
        assert np.abs(np.linalg.eigvals(res.matrix)).max() < 1e-6

    def test_normal_is_fixed(self):
        A = np.diag([1.0, 3.0])
        res = kn.matrix_flow(A)
        assert res.verdict == "normal"
        assert np.allclose(res.matrix, A)

    def test_eigenvalue_conservation_random(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        before = np.sort_complex(np.linalg.eigvals(A))
        res = kn.matrix_flow(A, max_steps=5000)
        after = np.sort_complex(np.linalg.eigvals(res.matrix))
        assert np.abs(before - after).max() < 1e-6
        v = np.array(res.commutator_norms)
        assert (np.diff(v) <= 0).all()


@pytest.mark.parametrize("step", [0.0, -0.05, np.nan, np.inf])
@pytest.mark.parametrize("flow, start", [
    (kn.sphere_flow, kn.SphereConfig(np.array([[0, 0, 1.0], [1.0, 0, 0]]))),
    (kn.matrix_flow, [[1, 1], [0, 2]])])
def test_flow_step_must_be_finite_and_positive(flow, start, step):
    # a zero, negative or NaN step used to end in a verdict with no flow behind it
    with pytest.raises(ValueError, match="step must be finite and positive"):
        flow(start, step=step)


@pytest.mark.parametrize("max_steps", [0, -3])
@pytest.mark.parametrize("flow, start", [
    (kn.sphere_flow, kn.SphereConfig(np.array([[0, 0, 1.0], [1.0, 0, 0]]))),
    (kn.matrix_flow, [[1, 1], [0, 2]])])
def test_flow_needs_a_step(flow, start, max_steps):
    # max_steps < 1 used to report "unresolved after 0 steps"
    with pytest.raises(ValueError, match="max_steps must be at least 1"):
        flow(start, max_steps=max_steps)


class TestHilbertMumford:
    def test_examples(self):
        lam = kn.OnePS((1, -1))
        assert kn.hm_weight(lam, [1, 0]) == -1
        assert kn.hm_weight(lam, [1, 1]) == 1
        assert kn.hm_weight(lam, [0, 1]) == 1

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            kn.hm_weight(kn.OnePS((1, -1)), [0, 0])

    def test_trivial_subgroup_rejected(self):
        with pytest.raises(ValueError):
            kn.OnePS((0, 0))


class TestKnFunction:
    def test_single_weight_vector_is_line(self):
        lam = kn.OnePS((3, -2))
        ks = kn.kn_function([1, 0], lam, s_range=(-5, 5), n=11)
        slopes = np.diff(ks.values) / np.diff(ks.s)
        assert np.abs(slopes - 3).max() < 1e-12

    def test_two_weights_convex_min_at_zero(self):
        lam = kn.OnePS((1, -1))
        ks = kn.kn_function([1, 1], lam, s_range=(-10, 10), n=201)
        assert ks.convexity_violations == 0
        assert abs(ks.s[np.argmin(ks.values)]) < 0.11
        slopes = np.diff(ks.values) / np.diff(ks.s)
        assert abs(slopes[0] + 1) < 1e-6 and abs(slopes[-1] - 1) < 1e-6

    def test_slope_matches_weight_random(self):
        rng = np.random.default_rng(19)
        done = 0
        while done < 100:
            m = int(rng.integers(2, 6))
            w = rng.integers(-5, 6, size=m)
            if not w.any():
                continue
            v = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) \
                * rng.integers(0, 2, size=m)
            if not np.abs(v).sum():
                continue
            done += 1
            lam = kn.OnePS(tuple(int(x) for x in w))
            ks = kn.kn_function(v, lam, s_range=(-60, 20), n=161)
            assert ks.convexity_violations == 0
            assert abs(ks.slope_minus_infinity - (-kn.hm_weight(lam, v))) < 1e-6
