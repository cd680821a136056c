"""Independent checks for the benchmark, in plain `Fraction` arithmetic.

Nothing here imports `knaster`: each function re-derives a fact from its
definition, so a fault in the library cannot hide behind a shared helper.
A check returns None when it holds and a short reason string when it fails.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def tent_value(k: int, x: Fraction) -> Fraction:
    """tent(k)(x) in closed form: the fractional part of k*x, reflected on odd legs."""
    y = k * x
    c = y.numerator // y.denominator
    u = y - c
    return u if c % 2 == 0 else ONE - u


def evaluator(points):
    """The piecewise-linear map through the given breakpoints, as a function."""
    points = list(points)
    xs = [x for x, _ in points]
    last = len(points) - 1

    def value(x: Fraction) -> Fraction:
        i = bisect_right(xs, x) - 1
        if i >= last:
            return points[-1][1]
        (x0, y0), (x1, y1) = points[i], points[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    return value


def canonical(points) -> str | None:
    """x strictly increasing from 0 to 1, values in [0, 1], no collinear triple."""
    if len(points) < 2:
        return "fewer than two breakpoints"
    if points[0][0] != ZERO or points[-1][0] != ONE:
        return "breakpoints do not run from x = 0 to x = 1"
    for (xa, _), (xb, _) in zip(points, points[1:]):
        if not xa < xb:
            return f"x not strictly increasing at {xb}"
    for x, y in points:
        if not ZERO <= y <= ONE:
            return f"value {y} at x = {x} outside [0, 1]"
    for (xa, ya), (xb, yb), (xc, yc) in zip(points, points[1:], points[2:]):
        if (yb - ya) * (xc - xb) == (yc - yb) * (xb - xa):
            return f"breakpoint at x = {xb} is collinear with its neighbours"
    return None


def range_on(points, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """(min, max) over [lo, hi]: the extremes sit at the ends or at breakpoints."""
    f = evaluator(points)
    values = [f(lo), f(hi)]
    values.extend(y for x, y in points if lo < x < hi)
    return min(values), max(values)


def lift_window(points, m: int, q: int, i: int) -> str | None:
    """Sweep exactly [0, 1] on [i/q, (i+1)/q]; at most 1/m left of it, at least (m-1)/m right."""
    lo, hi = Fraction(i, q), Fraction(i + 1, q)
    if range_on(points, lo, hi) != (ZERO, ONE):
        return f"range on the window [{lo}, {hi}] is not exactly [0, 1]"
    if range_on(points, ZERO, lo)[1] > Fraction(1, m):
        return f"lift exceeds 1/{m} left of the window"
    if range_on(points, hi, ONE)[0] < Fraction(m - 1, m):
        return f"lift drops below {m - 1}/{m} right of the window"
    return None


def seq_nth(text: str):
    """Term function of a sequence written const:K, list:a,b,... or periodic:a,b|c,d."""
    kind, _, rest = text.partition(":")
    if kind == "const":
        k = int(rest)
        return lambda i: k
    if kind == "list":
        items = [int(v) for v in rest.split(",")]
        return lambda i: items[i - 1]
    if kind == "periodic":
        head, _, tail = rest.partition("|")
        prefix = [int(v) for v in head.split(",") if v]
        period = [int(v) for v in tail.split(",")]
        return lambda i: (prefix[i - 1] if i <= len(prefix)
                          else period[(i - 1 - len(prefix)) % len(period)])
    raise ValueError(f"unknown sequence {text!r}")


def regrouped_terms(raw_nth, partner_nth, levels: int) -> list[int]:
    """Greedy left-to-right blocks: n_j is the shortest run product > (m_j + 2) j."""
    terms, r = [], 1
    for j in range(1, levels + 1):
        bound, product = (partner_nth(j) + 2) * j, 1
        while product <= bound:
            product *= raw_nth(r)
            r += 1
        terms.append(product)
    return terms


def certificate_level(t: Fraction, s: Fraction, ell: int, m_nth) -> int:
    """Least j with m_1*...*m_{j-1} > ell and 3/j < s - t."""
    j, p = 1, 1  # p = m_1 * ... * m_{j-1}
    while not (p > ell and Fraction(3, j) < s - t):
        p *= m_nth(j)
        j += 1
    return j


def certificate(cert, raw_nth, m_nth) -> str | None:
    """Level from its definition, witness 2q/n_j in its window, vs = 0, vt in the top band."""
    t, s, j = cert.t, cert.s, cert.j
    if not ZERO <= t < s <= ONE:
        return "parameters out of order"
    want = certificate_level(t, s, cert.ell, m_nth)
    if j != want:
        return f"level {j}, expected {want}"
    n_j = regrouped_terms(raw_nth, m_nth, j)[-1]
    if cert.witness != Fraction(2 * cert.q, n_j):
        return f"witness {cert.witness} is not 2q/n_j = {2 * cert.q}/{n_j}"
    slot = min(t * j // 1, j - 1)
    if not Fraction(slot + 1, j) <= cert.witness <= Fraction(slot + 2, j):
        return f"witness {cert.witness} outside [{slot + 1}/{j}, {slot + 2}/{j}]"
    m_j = m_nth(j)
    if cert.vs != ZERO:
        return f"vs = {cert.vs}, expected 0"
    if cert.vt < Fraction(m_j - 1, m_j):
        return f"vt = {cert.vt} below {m_j - 1}/{m_j}"
    p = 1
    for i in range(1, j):
        p *= m_nth(i)
    if cert.p != p or cert.r != p * m_j:
        return "sweep counts p, r do not match the target prefix products"
    return None
