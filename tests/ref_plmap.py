"""Slow reference for `knaster.plmap`: breakpoints kept as Fraction pairs.

This is the Fraction implementation that preceded the integer-triple core,
kept verbatim as the oracle for the differential tests in
`test_plmap_oracle.py`. It covers construction (validation and the
collinear merge), evaluation, `compose`, `lap` and `range_on`.
`leftmost_preimage` has no library counterpart: the lift and tower tests
use it to find where a map first reaches a value; it reads only
`f.points`, so it takes a library map as well as a reference one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

RatLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_rat(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) or isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _lt(a: Fraction, b: Fraction) -> bool:
    return a.numerator * b.denominator < b.numerator * a.denominator


def _bisect_right(xs, x: Fraction, lo: int = 0, hi: int | None = None) -> int:
    """bisect.bisect_right with integer cross-multiplied comparisons."""
    if hi is None:
        hi = len(xs)
    xn, xd = x.numerator, x.denominator
    while lo < hi:
        mid = (lo + hi) // 2
        v = xs[mid]
        if v.numerator * xd <= xn * v.denominator:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _bisect_left(xs, x: Fraction, lo: int = 0, hi: int | None = None) -> int:
    if hi is None:
        hi = len(xs)
    xn, xd = x.numerator, x.denominator
    while lo < hi:
        mid = (lo + hi) // 2
        v = xs[mid]
        if v.numerator * xd < xn * v.denominator:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _interpolate(x: Fraction, x0: Fraction, y0: Fraction,
                 x1: Fraction, y1: Fraction) -> Fraction:
    """y0 + (y1 - y0) * (x - x0) / (x1 - x0), one normalization at the end."""
    a = x.numerator * x0.denominator - x0.numerator * x.denominator
    b = x.denominator * x0.denominator
    c = x1.numerator * x0.denominator - x0.numerator * x1.denominator
    d = x1.denominator * x0.denominator
    e = y1.numerator * y0.denominator - y0.numerator * y1.denominator
    f = y1.denominator * y0.denominator
    return Fraction(y0.numerator * f * b * c + y0.denominator * e * a * d,
                    y0.denominator * f * b * c)


def _collinear(p, q, r) -> bool:
    (px, py), (qx, qy), (rx, ry) = p, q, r
    a1 = qy.numerator * py.denominator - py.numerator * qy.denominator
    b1 = py.denominator * qy.denominator
    a2 = rx.numerator * qx.denominator - qx.numerator * rx.denominator
    b2 = qx.denominator * rx.denominator
    a3 = ry.numerator * qy.denominator - qy.numerator * ry.denominator
    b3 = qy.denominator * ry.denominator
    a4 = qx.numerator * px.denominator - px.numerator * qx.denominator
    b4 = px.denominator * qx.denominator
    return a1 * a2 * b3 * b4 == a3 * a4 * b1 * b2


class PLMap:
    """A continuous piecewise-linear map [0, 1] -> [0, 1] in canonical form.

    Breakpoint x-coordinates increase strictly from 0 to 1, values stay in
    [0, 1], and no three consecutive breakpoints are collinear (construction
    merges such runs). Equality is therefore equality of breakpoint tuples.
    Instances are immutable; all operations return new maps.
    """

    __slots__ = ("points", "xs")

    def __init__(self, points: Iterable[tuple[RatLike, RatLike]]):
        pts = [(as_rat(x), as_rat(y)) for x, y in points]
        if len(pts) < 2:
            raise ValueError("a map needs at least two breakpoints")
        if pts[0][0] != ZERO or pts[-1][0] != ONE:
            raise ValueError("breakpoints must start at x=0 and end at x=1")
        prev_n, prev_d = 0, 1  # x = 0
        first = True
        for x, y in pts:
            if not first and x.numerator * prev_d <= prev_n * x.denominator:
                raise ValueError(
                    f"x-coordinates must increase strictly (at x = {x})")
            prev_n, prev_d = x.numerator, x.denominator
            first = False
            if y.numerator < 0 or y.numerator > y.denominator:
                raise ValueError(f"value {y} outside [0, 1]")
        merged: list[tuple[Fraction, Fraction]] = [pts[0]]
        for pt in pts[1:]:
            while len(merged) >= 2 and _collinear(merged[-2], merged[-1], pt):
                merged.pop()
            merged.append(pt)
        self.points: tuple[tuple[Fraction, Fraction], ...] = tuple(merged)
        self.xs: list[Fraction] = [x for x, _ in merged]

    def _eval_unchecked(self, x: Fraction) -> Fraction:
        i = _bisect_right(self.xs, x) - 1
        if i == len(self.xs) - 1:
            return self.points[-1][1]
        (x0, y0), (x1, y1) = self.points[i], self.points[i + 1]
        if x0.numerator * x.denominator == x.numerator * x0.denominator:
            return y0
        return _interpolate(x, x0, y0, x1, y1)

    def __call__(self, x: RatLike) -> Fraction:
        x = as_rat(x)
        if x.numerator < 0 or x.numerator > x.denominator:
            raise ValueError(f"{x} outside [0, 1]")
        return self._eval_unchecked(x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PLMap):
            return NotImplemented
        return self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        inside = ", ".join(f"({x}, {y})" for x, y in self.points)
        return f"PLMap([{inside}])"


def compose(outer: PLMap, inner: PLMap) -> PLMap:
    """Exact composition outer(inner(x)), refined at all slope changes."""
    out_xs = outer.xs
    out_pts = outer.points
    pts: list[tuple[Fraction, Fraction]] = []
    ipts = inner.points
    for (x0, y0), (x1, y1) in zip(ipts, ipts[1:]):
        pts.append((x0, outer._eval_unchecked(y0)))
        if y1 == y0:
            continue
        if _lt(y0, y1):
            idxs = range(_bisect_right(out_xs, y0), _bisect_left(out_xs, y1))
        else:
            lo = _bisect_right(out_xs, y1)
            hi = _bisect_left(out_xs, y0)
            idxs = range(hi - 1, lo - 1, -1)
        if not idxs:
            continue
        # x = x0 + (u - y0) * (x1 - x0) / (y1 - y0), in integer pieces
        sn = x1.numerator * x0.denominator - x0.numerator * x1.denominator
        sd = x1.denominator * x0.denominator
        en = y1.numerator * y0.denominator - y0.numerator * y1.denominator
        ed = y1.denominator * y0.denominator
        for idx in idxs:
            u = out_xs[idx]
            gn = u.numerator * y0.denominator - y0.numerator * u.denominator
            gd = u.denominator * y0.denominator
            num = x0.numerator * gd * sd * en + x0.denominator * gn * sn * ed
            den = x0.denominator * gd * sd * en
            pts.append((Fraction(num, den), out_pts[idx][1]))
    pts.append((ONE, outer._eval_unchecked(ipts[-1][1])))
    return PLMap(pts)


def lap(f: PLMap) -> int:
    """Number of maximal monotone pieces; constant runs join a neighbour."""
    signs = []
    for (_, y0), (_, y1) in zip(f.points, f.points[1:]):
        if y1 != y0:
            signs.append(y1 > y0)
    if not signs:
        return 1
    return 1 + sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)


def range_on(f: PLMap, a: RatLike, b: RatLike) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of f over [a, b]."""
    a, b = as_rat(a), as_rat(b)
    if not ZERO <= a <= b <= ONE:
        raise ValueError(f"bad interval [{a}, {b}]")
    va, vb = f._eval_unchecked(a), f._eval_unchecked(b)
    if _lt(vb, va):
        lo, hi = vb, va
    else:
        lo, hi = va, vb
    for i in range(_bisect_right(f.xs, a), _bisect_left(f.xs, b)):
        y = f.points[i][1]
        if _lt(y, lo):
            lo = y
        elif _lt(hi, y):
            hi = y
    return lo, hi


def leftmost_preimage(f: PLMap, y: RatLike) -> Fraction | None:
    """Smallest x with f(x) = y, or None when y is not attained."""
    y = as_rat(y)
    for (x0, y0), (x1, y1) in zip(f.points, f.points[1:]):
        if y0 == y:
            return x0
        if y0 != y1 and min(y0, y1) <= y <= max(y0, y1):
            return x0 + (x1 - x0) * (y - y0) / (y1 - y0)
    if f.points[-1][1] == y:
        return ONE
    return None


