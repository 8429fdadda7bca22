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
        # the crease scan's offset count and the filtration share one floor_sum
        assert futaki.floor_sum is stab.floor_sum is ip.floor_sum


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


class TestInterpolatePolynomial:
    def test_interpolator_exact(self):
        poly = ip.interpolate_polynomial([1, 2, 3], [Q(2), Q(5), Q(10)])
        assert poly == [Q(1), Q(0), Q(1)]   # 1 + k^2

    def test_recovers_random_polynomials(self):
        rng = random.Random(17)
        for _ in range(100):
            coef = [Q(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(rng.randint(1, 6))]
            ks = rng.sample(range(-15, 16), len(coef))
            vals = [sum(c * k ** j for j, c in enumerate(coef)) for k in ks]
            assert ip.interpolate_polynomial(ks, vals) == coef


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
