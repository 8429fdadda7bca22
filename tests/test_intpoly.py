"""kstab._intpoly's exact tools, each against a plain Fraction oracle."""

import math
import random
from fractions import Fraction as Q

from kstab import _intpoly as ip
from kstab import futaki
from kstab import stability as stab


def mu(n):
    """Moebius mu(n) by trial division."""
    out = 1
    for p in range(2, n + 1):
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
    return out


def bernstein_value(b, t):
    """sum over k of C(3, k) b_k t^k (1 - t)^(3 - k)."""
    return sum(math.comb(3, k) * bk * t ** k * (1 - t) ** (3 - k) for k, bk in enumerate(b))


def de_casteljau(b, t):
    """The Bernstein coefficients of a cubic on [0, t] and on [t, 1], in Fractions."""
    rows = [[Q(x) for x in b]]
    while len(rows[-1]) > 1:
        r = rows[-1]
        rows.append([(1 - t) * x + t * y for x, y in zip(r, r[1:])])
    return [r[0] for r in rows], [r[-1] for r in reversed(rows)]


def samples(rng):
    """The ends, the middle and random points of [0, 1], as Fractions."""
    return [Q(0), Q(1), Q(1, 2)] + [Q(rng.randint(0, 60), 60) for _ in range(6)]


class TestFloorSum:
    def test_against_direct_sum(self):
        rng = random.Random(14)
        for _ in range(500):
            n, m = rng.randint(0, 40), rng.randint(1, 30)
            a, b = rng.randint(-100, 100), rng.randint(-1000, 1000)
            assert ip.floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))

    def test_one_implementation(self):
        # the crease scan's offset count and the lattice sums share _intpoly's floor sums
        assert stab.floor_sum is futaki.floor_sum is ip.floor_sum
        assert futaki.floor_sums is ip.floor_sums


class TestFloorSums:
    def test_against_direct_sums(self):
        # a and b of either sign, n = 0 and slopes far beyond m
        rng = random.Random(36)
        for _ in range(2000):
            n, m = rng.randint(0, 40), rng.randint(1, 30)
            a, b = rng.randint(-200, 200), rng.randint(-2000, 2000)
            f = [(a * i + b) // m for i in range(n)]
            want = (sum(f), sum(i * v for i, v in enumerate(f)), sum(v * v for v in f))
            assert ip.floor_sums(n, m, a, b) == want, (n, m, a, b)

    def test_first_sum_is_floor_sum(self):
        rng = random.Random(37)
        for _ in range(300):
            n, m = rng.randint(0, 10 ** 6), rng.randint(1, 10 ** 6)
            a, b = rng.randint(-10 ** 9, 10 ** 9), rng.randint(-10 ** 12, 10 ** 12)
            assert ip.floor_sums(n, m, a, b)[0] == ip.floor_sum(n, m, a, b)


class TestMoebiusBlocks:
    def test_against_naive_mu(self):
        for R in range(1, 121):
            sums = [(J, sum(mu(e) for e in range(1, R + 1) if R // e == J))
                    for J in sorted({R // e for e in range(1, R + 1)}, reverse=True)]
            want = [(J, M) for J, M in sums if M]
            assert ip.moebius_blocks(R) == want, R
            assert want[0] == (R, 1)


class TestBernstein3:
    def test_against_direct_basis_evaluation(self):
        rng = random.Random(3)
        for _ in range(300):
            p = [rng.randint(-50, 50) for _ in range(4)]
            s0, h = rng.randint(-30, 30), rng.randint(1, 20)
            b = ip.bernstein3(p, s0, h)
            for t in samples(rng):
                power = sum(c * (s0 + h * t) ** k for k, c in enumerate(p))
                assert bernstein_value(b, t) == 3 * power, (p, s0, h, t)


class TestHalves:
    def test_against_de_casteljau(self):
        rng = random.Random(5)
        for _ in range(300):
            b = [rng.randint(-100, 100) for _ in range(4)]
            left, right = de_casteljau(b, Q(1, 2))
            assert ip.halves(b) == ([8 * x for x in left], [8 * x for x in right])
            # each half reparametrizes the cubic on its own half of [0, 1]
            lo, hi = ip.halves(b)
            for t in samples(rng):
                assert bernstein_value(lo, t) == 8 * bernstein_value(b, t / 2)
                assert bernstein_value(hi, t) == 8 * bernstein_value(b, (1 + t) / 2)


class TestBernsteinFloor:
    def test_floor_at_most_ratio_at_sampled_t(self):
        # small coefficients so zero and negative ones of m are common
        rng = random.Random(11)
        checked = 0
        for _ in range(3000):
            lb = [rng.randint(-6, 6) for _ in range(4)]
            mb = [rng.randint(-2, 4) for _ in range(4)]
            low = ip.bernstein_floor(lb, mb)
            if low is None:
                continue
            num, den = low
            assert den > 0 and (num, den) in zip(lb, mb)
            for t in samples(rng) + [Q(k, 12) for k in range(13)]:
                l, m = bernstein_value(lb, t), bernstein_value(mb, t)
                if m > 0:
                    assert Q(num, den) <= l / m, (lb, mb, t)
                    checked += 1
        assert checked > 10000

    def test_least_ratio_over_positive_masses(self):
        assert ip.bernstein_floor([3, 1, 4, 2], [1, 1, 2, 1]) == (1, 1)
        assert ip.bernstein_floor([3, -1, 4, 2], [1, 0, 2, 1]) is None
        assert ip.bernstein_floor([1, 2, 3, 4], [0, -1, 0, 0]) is None


def lagrange(ks, vals):
    """Ascending coefficients of the polynomial through (ks, vals): the
    Lagrange sum, each basis polynomial expanded in Fractions."""
    coef = [Q(0)] * len(ks)
    for i, (ki, vi) in enumerate(zip(ks, vals)):
        basis, scale = [Q(1)], Q(vi)
        for j, kj in enumerate(ks):
            if j != i:
                basis = [c - kj * b for c, b in zip([0] + basis, basis + [0])]
                scale /= ki - kj
        coef = [c + scale * b for c, b in zip(coef, basis)]
    return coef


class TestInterpolatePolynomial:
    def test_interpolator_exact(self):
        c, D = ip.interpolate_consecutive(1, [2, 5, 10])
        assert (c, D) == ([2, 0, 2], 2)     # 1 + k^2, over 2!

    def test_recovers_random_polynomials(self):
        rng = random.Random(17)
        for _ in range(300):
            deg = rng.randint(0, 7)
            # integer values at integers: integer combinations of binomials C(k, j)
            weights = [rng.randint(-20, 20) for _ in range(deg + 1)]
            k0 = rng.choice([rng.randint(-40, 40), rng.randint(150, 300)])
            ks = list(range(k0, k0 + deg + 1))
            vals = [sum(w * math.comb(k - k0 + 3, j) for j, w in enumerate(weights))
                    for k in ks]
            c, D = ip.interpolate_consecutive(k0, vals)
            assert D == math.factorial(deg) and all(type(x) is int for x in c)
            assert [Q(x, D) for x in c] == lagrange(ks, vals), (k0, vals)


class TestDivideSeries:
    def test_quotient_times_divisor_is_dividend(self):
        rng = random.Random(19)
        for _ in range(300):
            terms = rng.randint(1, 7)
            num = [Q(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(terms + 2)]
            den = [Q(rng.choice([-3, -1, 1, 2, 5]))] + [
                Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 8))]
            q = ip.divide_series(num, den, terms)
            assert len(q) == terms and all(type(c) is Q for c in q)
            product = [sum(q[i] * den[j - i] for i in range(j + 1) if j - i < len(den))
                       for j in range(terms)]
            assert product == num[:terms], (num, den, terms)
