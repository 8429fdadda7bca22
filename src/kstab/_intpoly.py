"""Exact integer-polynomial tools in Python ints and Fractions: floor sums,
Moebius blocks, Bernstein bounds of cubics on [0, 1], Lagrange interpolation
and series division.  Standard library only, so it loads no numpy."""

from fractions import Fraction as Q


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum of floor((a*i + b)/m) over i = 0..n-1, for n >= 0 and m >= 1.

    O(log m) steps of the Euclid-like reduction of the AtCoder Library's
    floor_sum (atcoder/math.hpp); a and b may be negative.
    """
    total = 0
    while True:
        q, a = divmod(a, m)
        total += n * (n - 1) // 2 * q
        q, b = divmod(b, m)
        total += n * q
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def moebius_blocks(R: int) -> list[tuple[int, int]]:
    """(J, M) for each distinct J = R // e, e = 1..R, M the sum of mu(e) over those e.

    Blocks with M = 0 are dropped; the first is (R, 1).
    """
    mu = [0, 1] + [None] * (R - 1)
    for n in range(2, R + 1):
        p = next(p for p in range(2, n + 1) if n % p == 0)      # least prime factor
        mu[n] = 0 if (n // p) % p == 0 else -mu[n // p]
    blocks = {}
    for e in range(1, R + 1):
        blocks[R // e] = blocks.get(R // e, 0) + mu[e]
    return [(J, M) for J, M in blocks.items() if M]


def bernstein_floor(lb: list[int], mb: list[int]) -> tuple[int, int] | None:
    """(num, den), den > 0, with num/den <= l/m wherever m > 0 on [0, 1], or None.

    lb and mb are (multiples of) the Bernstein coefficients of l and m.  The
    basis is nonnegative on [0, 1], so l >= beta * m holds wherever it holds
    coefficient by coefficient: beta is the least l_i / m_i over m_i > 0,
    valid when every l_i with m_i <= 0 passes the same test.  This is the
    Bernstein range bound (Garloff 1986; Farouki and Rajan 1987).
    """
    low = None
    for li, mi in zip(lb, mb):
        if mi > 0 and (low is None or li * low[1] < low[0] * mi):
            low = (li, mi)
    if low is None:
        return None
    num, den = low
    for li, mi in zip(lb, mb):
        if mi <= 0 and li * den < num * mi:
            return None
    return low


def halves(b: list[int]) -> tuple[list[int], list[int]]:
    """8 * the Bernstein coefficients of a cubic on [0, 1/2] and on [1/2, 1] (de Casteljau)."""
    b0, b1, b2, b3 = b
    c0, c1, c2 = b0 + b1, b1 + b2, b2 + b3
    d0, d1 = c0 + c1, c1 + c2
    return [8 * b0, 4 * c0, 2 * d0, d0 + d1], [d0 + d1, 2 * d1, 4 * c2, 8 * b3]


def bernstein3(p: list[int], s0: int, h: int) -> list[int]:
    """3 * the Bernstein coefficients on [0, 1] of t -> sum p[k] (s0 + h*t)^k."""
    p0, p1, p2, p3 = p
    q0 = ((p3 * s0 + p2) * s0 + p1) * s0 + p0
    q1 = ((3 * p3 * s0 + 2 * p2) * s0 + p1) * h
    q2 = (3 * p3 * s0 + p2) * h * h
    q3 = p3 * h ** 3
    return [3 * q0, 3 * q0 + q1, 3 * q0 + 2 * q1 + q2, 3 * (q0 + q1 + q2 + q3)]


def interpolate_polynomial(ks, vals) -> list[Q]:
    """Exact coefficients (ascending) of the polynomial through (ks, vals).

    The Lagrange sum of vals[i] * prod_{j != i} (x - ks[j]) / (ks[i] - ks[j]),
    each product expanded one factor at a time.
    """
    coef = [Q(0)] * len(ks)
    for i, (ki, vi) in enumerate(zip(ks, vals)):
        basis, scale = [1], Q(vi)
        for j, kj in enumerate(ks):
            if j != i:
                basis = [c - kj * b for c, b in zip([0] + basis, basis + [0])]
                scale /= ki - kj
        coef = [c + scale * b for c, b in zip(coef, basis)]
    return coef


def divide_series(num, den, terms: int) -> list[Q]:
    """The first terms coefficients q of num/den, power series listed in
    ascending powers (num with at least terms entries, den[0] != 0): q_j
    solves sum_i q_i den_(j-i) = num_j."""
    q = []
    for j in range(terms):
        known = sum(q[i] * den[j - i] for i in range(j) if j - i < len(den))
        q.append(Q(num[j] - known) / den[0])
    return q
