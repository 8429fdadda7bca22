"""Exact integer-polynomial tools in Python ints and Fractions: floor sums,
Moebius blocks, Bernstein bounds of cubics on [0, 1], interpolation at
consecutive integers and series division.  Standard library only, so it
loads no numpy."""

import math
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


def floor_sums(n: int, m: int, a: int, b: int) -> tuple[int, int, int]:
    """(sum f, sum i*f, sum f^2) over i = 0..n-1 for f(i) = floor((a*i + b)/m),
    n >= 0 and m >= 1; a and b may be negative.

    Each level writes a = qa*m + a', b = qb*m + b' with 0 <= a', b' < m, so
    f = qa*i + qb + f'.  With M = f'(n-1) and t_j the least i with f'(i) >= j,
    f'(i) counts the j <= i's t_j, f'^2 = sum over j <= f' of 2j - 1, and
    t_(j+1) = floor((m*j + m - b' + a' - 1)/a') for j = 0..M-1: the same sums
    with (n, m, a, b) -> (M, a', m, m - b' + a' - 1).  m and a' swap as in
    Euclid's algorithm, so there are O(log m) levels.
    """
    levels = []
    while n:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        top = (a * (n - 1) + b) // m
        levels.append((n, qa, qb, top))
        n, m, a, b = top, a, m, m - b + a - 1
    f = fi = ff = 0                     # the sums over t_1..t_M of the level below
    for n, qa, qb, top in reversed(levels):
        f, fi, ff = (n * top - f, top * n * (n - 1) // 2 - (ff - f) // 2,
                     n * top * top - 2 * fi - f)
        s1, s2 = n * (n - 1) // 2, (n - 1) * n * (2 * n - 1) // 6
        ff += qa * qa * s2 + 2 * qa * qb * s1 + qb * qb * n + 2 * qa * fi + 2 * qb * f
        fi += qa * s2 + qb * s1
        f += qa * s1 + qb * n
    return f, fi, ff


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


def interpolate_consecutive(k0: int, vals: list[int]) -> tuple[list[int], int]:
    """(c, D), D = deg!, with sum c_j k^j / D the polynomial of degree
    deg = len(vals) - 1 through (k0 + i, vals[i]), c in ascending powers.

    Newton's forward form sum_j Delta^j f(k0) C(k - k0, j), times D, has the
    integer weights D/j!; Horner's rule in the factors k - (k0 + j) expands
    it into powers of k, all in Python ints."""
    diffs, row = [], vals
    while row:                      # Delta^j f(k0), j = 0..deg
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    D = math.factorial(len(vals) - 1)
    c = []
    for j in range(len(vals) - 1, -1, -1):
        c = [x - (k0 + j) * y for x, y in zip([0] + c, c + [0])]
        c[0] += diffs[j] * (D // math.factorial(j))
    return c, D


def divide_series(num, den, terms: int) -> list[Q]:
    """The first terms coefficients q of num/den, power series listed in
    ascending powers (num with at least terms entries, den[0] != 0): q_j
    solves sum_i q_i den_(j-i) = num_j."""
    q = []
    for j in range(terms):
        known = sum(q[i] * den[j - i] for i in range(j) if j - i < len(den))
        q.append(Q(num[j] - known) / den[0])
    return q
