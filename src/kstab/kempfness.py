"""Finite-dimensional moment-map laboratory.

Two classical pictures: configurations of points on the 2-sphere under the
rotation action (the moment map is the centre of mass), and square complex
matrices under conjugation (the moment map is the commutator with the
adjoint).  Both carry the norm-squared-of-moment-map gradient flow, whose
limits sort configurations into balanced (polystable) and stuck-at-a
critical-stratum (unstable) states.  One-parameter-subgroup weights and the
log-norm function along geodesics give the numerical stability test: the
function is convex and its slope at minus infinity is minus the weight.

The sphere picture works with unit vectors throughout: the underlying
moment map on tensors is homogeneous of degree two and is divided by the
squared norm, so fixing |v| = 1 loses nothing on (and near) its zero set;
this is the usual Fubini-Study reduction to the projectivized
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BALANCED_TOL = 1e-8
STATIONARY_TOL = 1e-12


@dataclass
class SphereConfig:
    """Points on the unit sphere with optional positive integer multiplicities."""

    points: np.ndarray                 # (d, 3)
    multiplicities: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must be a (d, 3) array")
        if self.multiplicities is None:
            self.multiplicities = np.ones(len(self.points))
        self.multiplicities = np.asarray(self.multiplicities, dtype=float)
        if not (self.multiplicities > 0).all():
            raise ValueError("multiplicities must be positive")
        if not np.isfinite(self.points).all():
            raise ValueError("points must be finite")
        norms = np.linalg.norm(self.points, axis=1)
        if np.abs(norms - 1).max() > 1e-9:
            raise ValueError("points must lie on the unit sphere")
        self.points = self.points / norms[:, None]

    @property
    def total(self) -> float:
        return float(self.multiplicities.sum())


def sphere_moment(c: SphereConfig) -> np.ndarray:
    """Multiplicity-weighted centre of mass (the moment map value)."""
    return (c.multiplicities[:, None] * c.points).sum(axis=0)


def antipodal_structure(c: SphereConfig, tol: float = 1e-6):
    """(axis, mult_plus, mult_minus) if every point sits at +-axis, else None."""
    mu = sphere_moment(c)
    nmu = np.linalg.norm(mu)
    axis = mu / nmu if nmu > tol else c.points[0]
    dots = c.points @ axis
    if np.all(np.abs(np.abs(dots) - 1) < tol):
        plus = float(c.multiplicities[dots > 0].sum())
        minus = float(c.multiplicities[dots < 0].sum())
        return axis, plus, minus
    return None


def _check_flow(step: float, max_steps: int):
    if not 0 < step < np.inf:
        raise ValueError(f"step must be finite and positive, got {step!r}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps!r}")


@dataclass
class SphereFlowResult:
    config: SphereConfig
    verdict: str                       # balanced | diverges-to-fixed-point | unresolved
    mu_norms: list[float]
    steps: int
    antipodal: tuple | None = None


def sphere_flow(c: SphereConfig, step: float = 0.05,
                max_steps: int = 200_000) -> SphereFlowResult:
    """Gradient flow of |mu|^2: each point moves against the tangential
    component of mu.  |mu|^2 decreases monotonically (backtracking); the
    flow stops at a balanced configuration or at a stationary point, which
    is necessarily an antipodal pair with multiplicities; a flow still
    moving after max_steps is unresolved.  step must be finite and
    positive and max_steps at least 1; the first step, like every later
    one, is at most 1.
    """
    _check_flow(step, max_steps)
    pts = c.points.copy()
    mult = c.multiplicities
    mu = (mult[:, None] * pts).sum(axis=0)
    mu2 = float(mu @ mu)
    history = [np.sqrt(mu2)]
    dt = min(step, 1.0)     # the cap of every later step
    n_steps = 0
    flat = 0
    ending = "diverges-to-fixed-point"
    for n_steps in range(1, max_steps + 1):
        tang = mu[None, :] - (pts @ mu)[:, None] * pts
        grad2 = float((mult[:, None] ** 2 * tang ** 2).sum())
        if np.sqrt(mu2) < BALANCED_TOL or grad2 < STATIONARY_TOL ** 2:
            break
        moved = False
        for _ in range(60):
            trial = pts - dt * mult[:, None] * tang
            trial /= np.linalg.norm(trial, axis=1)[:, None]
            tmu = (mult[:, None] * trial).sum(axis=0)
            tmu2 = float(tmu @ tmu)
            if tmu2 <= mu2:
                flat = flat + 1 if mu2 - tmu2 < 1e-16 * (1 + mu2) else 0
                pts, mu, mu2 = trial, tmu, tmu2
                dt = min(dt * 1.1, 1.0)
                moved = True
                break
            dt /= 2
        if not moved or flat >= 25:
            break
        history.append(np.sqrt(mu2))
    else:
        ending = "unresolved"   # still moving after max_steps
    out = SphereConfig(pts, mult.copy())
    verdict = "balanced" if np.sqrt(mu2) < BALANCED_TOL else ending
    return SphereFlowResult(out, verdict, history, n_steps, antipodal_structure(out))


@dataclass
class MatrixFlowResult:
    matrix: np.ndarray
    verdict: str                       # normal | unresolved
    commutator_norms: list[float]
    steps: int


def matrix_flow(A, step: float = 0.05, max_steps: int = 100_000) -> MatrixFlowResult:
    """Flow A -> exp(-t N) A exp(t N) with N = [A, A*].

    Each step is an exact conjugation, so the spectrum is preserved to
    rounding; the commutator norm decreases monotonically to the normal
    (polystable) limit, or the whole matrix flows to the zero-orbit closure
    for non-semistable starts.  step must be finite and positive,
    max_steps at least 1 and [A, A*] of the start finite (ValueError); the
    first step, like every later one, is at most 1e12.
    """
    from scipy.linalg import expm
    _check_flow(step, max_steps)
    A = np.array(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")

    def comm(M):
        return M @ M.conj().T - M.conj().T @ M

    with np.errstate(all="ignore"):
        N = comm(A)
        f = float(np.linalg.norm(N) ** 2)
    if not np.isfinite(f):
        raise ValueError("[A, A*] of the start matrix overflows; rescale A")
    history = [np.sqrt(f)]
    dt = min(step, 1e12)    # the cap of every later step
    n_steps = 0
    for n_steps in range(1, max_steps + 1):
        if np.sqrt(f) < BALANCED_TOL:
            break
        moved = False
        for _ in range(60):
            with np.errstate(all="ignore"):     # an overflowed trial is rejected
                trial = expm(-dt * N) @ A @ expm(dt * N)
                Nt = comm(trial)
                ft = float(np.linalg.norm(Nt) ** 2)
            if ft < f:
                A, N, f = trial, Nt, ft
                # conjugation is exact at any dt, so let it grow with the
                # vanishing commutator (nilpotent orbits decay algebraically)
                dt = min(dt * 1.5, 1e12)
                moved = True
                break
            dt /= 2
        if not moved:
            break
        history.append(np.sqrt(f))
    verdict = "normal" if np.sqrt(f) < BALANCED_TOL else "unresolved"
    return MatrixFlowResult(A, verdict, history, n_steps)


@dataclass(frozen=True)
class OnePS:
    """Generator of a diagonal 1-parameter subgroup: integer weights."""

    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if all(w == 0 for w in self.weights):
            raise ValueError("one-parameter subgroup must be non-trivial")


def hm_weight(lam: OnePS, v) -> int:
    """Hilbert-Mumford weight: minus the Laurent order of lam(t) v at t = 0.

    lam(t) scales coordinate i by t^{w_i}, so the order is the minimum
    weight over the support of v; stability of v demands this be positive
    for every subgroup.
    """
    v = np.asarray(v)
    if v.ndim != 1 or len(v) != len(lam.weights):
        raise ValueError("vector and subgroup dimensions differ")
    support = [w for w, vi in zip(lam.weights, v) if vi != 0]
    if not support:
        raise ValueError("the zero vector has no Hilbert-Mumford weight")
    return -min(support)


@dataclass
class KnSamples:
    s: np.ndarray
    values: np.ndarray
    slope_minus_infinity: float
    convexity_violations: int


def kn_function(v, xi: OnePS, s_range: tuple[float, float] = (-40.0, 40.0),
                n: int = 401) -> KnSamples:
    """Samples of the log-norm function s -> log |exp(s xi) v|.

    Convex in s (log-sum-exp); the slope at minus infinity equals minus the
    Hilbert-Mumford weight.  Computed with the usual shift trick so large
    |s| stays finite.
    """
    v = np.asarray(v, dtype=complex)
    w = np.asarray(xi.weights, dtype=float)
    mask = np.abs(v) > 0
    if not mask.any():
        raise ValueError("zero vector")
    logs = 2 * np.log(np.abs(v[mask]))
    ww = 2 * w[mask]
    s = np.linspace(s_range[0], s_range[1], n)
    ex = s[:, None] * ww[None, :] + logs[None, :]
    top = ex.max(axis=1)
    vals = 0.5 * (top + np.log(np.exp(ex - top[:, None]).sum(axis=1)))
    d2 = np.diff(vals, 2)
    h = s[1] - s[0]
    violations = int((d2 < -1e-9 * max(1.0, np.abs(vals).max()) * h * h).sum())
    slope = (vals[1] - vals[0]) / h
    return KnSamples(s, vals, float(slope), violations)
