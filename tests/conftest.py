import random
from fractions import Fraction as Q

import pytest

from kstab.polytope import BoundaryMeasure, Polytope


@pytest.fixture
def segment01():
    return Polytope.from_vertices([(0,), (1,)])


@pytest.fixture
def segment_sym():
    return Polytope.from_vertices([(-1,), (1,)])


@pytest.fixture
def square():
    return Polytope.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture
def trapezoid():
    return Polytope.from_vertices([(0, 0), (2, 0), (1, 1), (0, 1)])


@pytest.fixture
def unstable_hexagon():
    """Zero Futaki vector but an exact destabilizing crease.

    Two facet weights were solved exactly so both centroids coincide; the
    crease max(0, 1/4 - y) then has L = -12193/33088 < 0.
    """
    P = Polytope.from_vertices([(-4, 2), (-1, 0), (3, -1), (4, 0), (2, 4), (-3, 4)])
    wmap = {
        (2, 3): Q(7197, 517),
        (1, 4): Q(1),
        (-1, 1): Q(1),
        (-2, -1): Q(3635, 517),
        (0, -1): Q(1),
        (2, -1): Q(1),
    }
    sigma = BoundaryMeasure(tuple(wmap[f.normal] for f in P.facets))
    return P, sigma


def random_polygon(rng: random.Random, span: int = 8) -> Polytope:
    while True:
        pts = [(Q(rng.randint(-span, span), rng.randint(1, 4)),
                Q(rng.randint(-span, span), rng.randint(1, 4)))
               for _ in range(rng.randint(4, 9))]
        try:
            return Polytope.from_vertices(pts)
        except Exception:
            continue


def random_integral_polygon(rng: random.Random, span: int = 6) -> Polytope:
    while True:
        pts = [(rng.randint(-span, span), rng.randint(-span, span))
               for _ in range(rng.randint(4, 9))]
        try:
            return Polytope.from_vertices(pts)
        except Exception:
            continue


def random_weights(rng: random.Random, P: Polytope) -> BoundaryMeasure:
    return BoundaryMeasure(tuple(Q(rng.randint(1, 9), rng.randint(1, 4))
                                 for _ in P.facets))


def random_unimodular(rng: random.Random):
    while True:
        T = [[rng.randint(-3, 3), rng.randint(-3, 3)],
             [rng.randint(-3, 3), rng.randint(-3, 3)]]
        if abs(T[0][0] * T[1][1] - T[0][1] * T[1][0]) == 1:
            return T
