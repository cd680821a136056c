"""Exact algebra of continuous piecewise-linear self-maps of [0, 1].

Every coordinate is exact, so evaluation, composition, lap counting and
range queries are exact; there is no floating-point mode. The generators
are the stretch-and-fold maps `tent(n)`: n monotone legs of slope +-n
whose values alternate 0, 1, 0, ... at the fold points k/n.

Inside a PLMap each breakpoint (x, y) is the reduced integer triple
(X, Y, W) with x = X/W, y = Y/W, W > 0 and gcd(X, Y, W) = 1, so equal
points have equal triples. Read as homogeneous coordinates, the line
through two points and the point where two lines meet are both one
integer cross product: evaluation meets a segment with a vertical line,
composition meets it with a horizontal one. A breakpoint is merged away
when it lies on the line through its neighbours, in one pass (`_merge`)
that every map goes through. `compose` and the lift step `tent_lift`,
which reads f0 tiled n times and never builds f0∘tent(n), map triples to
triples; the lift turns from one inverse branch of tent(m) to the next at
the index of f0's first zero or first one, with no point searched for and
no Fraction built. `compose` knows a tent operand by its value and walks
it itself: f∘tent(n) tiles f's triples n times, with no search over f,
and tent(m)∘f is one walk over f, where the integer tent step `_tent_at`,
also the tower's, maps each breakpoint and each fold k/m a segment
crosses comes from an integer floor, with no search over tent(m).
Fractions appear only at the API boundary (`points`, `__call__`,
`range_on`, `tent_preimages`). The JSON writer and the SVG renderer read
`triples`, the JSON reader hands integer ratios to `from_ratios`, and
`repr` spells the triples through `_int_to_str` at any length, so none of
them builds a Fraction per breakpoint.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterable, Union

RatLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)
TENT_CACHE_SIZE = 256  # above every workload's set of tent degrees (at most ~150)
_RAT_RE = re.compile(r"^(-?)(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?$")  # a canonical rational


def as_rat(x: RatLike) -> Fraction:
    """Coerce to an exact rational; floats are rejected on purpose, and a string
    must spell a rational canonically, as the JSON files do (see `_rat_parts`)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(*_rat_parts(x))
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def wave_eval(t: RatLike) -> Fraction:
    """The 2-periodic triangular wave: fractional part on even floors, reflected on odd."""
    t = as_rat(t)
    k = math.floor(t)
    u = t - k
    return u if k % 2 == 0 else ONE - u


def _cross(u, v):
    """Cross product of integer triples: the line through two points, or
    the point where two lines meet."""
    (a, b, c), (d, e, f) = u, v
    return (b * f - c * e, c * d - a * f, a * e - b * d)


def _tent_at(n: int, X: int, D: int) -> tuple[int, int]:
    """(c, U): the tent leg c = floor(n*X/D) and tent(n)(X/D) = U/D, D > 0."""
    s = n * X
    c = s // D
    return c, s - c * D if c % 2 == 0 else (c + 1) * D - s


def _reduce(p):
    """The reduced triple of a homogeneous point with W != 0."""
    x, y, w = p
    g = math.gcd(x, y, w)
    if w < 0:
        g = -g
    return (x // g, y // g, w // g)


def _bisect(t, p: int, q: int, right: bool) -> int:
    """bisect_right (right) or bisect_left of x = p/q, q > 0, over the x of t."""
    lo, hi = 0, len(t)
    while lo < hi:
        mid = (lo + hi) // 2
        x, _, w = t[mid]
        if x * q - p * w < right:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _merge(t) -> tuple:
    """Drop each breakpoint that lies on the line through its neighbours, in
    one pass: the last two kept points a, b stay in locals, and p lies on
    their line when the 3x3 determinant of a, b, p is 0. Each such b is
    popped and p re-checked against the new last two, so a collinear run
    of any length merges to its two ends. t holds at least two triples."""
    merged = [t[0], t[1]]
    (ax, ay, aw), (bx, by, bw) = merged
    for p in islice(t, 2, None):
        px, py, pw = p
        while not ax * (by * pw - bw * py) + ay * (bw * px - bx * pw) + aw * (bx * py - by * px):
            merged.pop()
            bx, by, bw = ax, ay, aw
            if len(merged) < 2:
                break
            ax, ay, aw = merged[-2]
        merged.append(p)
        ax, ay, aw, bx, by, bw = bx, by, bw, px, py, pw
    return tuple(merged)


# str() refuses integers longer than sys.get_int_max_str_digits() (4300
# digits by default, at least 640), so longer ones go in halves.
def _int_to_str(n: int) -> str:
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _int_to_str(-n)
        half = n.bit_length() * 3 // 20  # about half the digit count
        high, low = divmod(n, 10 ** half)
        return _int_to_str(high) + _int_to_str(low).zfill(half)


def _ratio_str(p: int, q: int) -> str:
    """p/q, q > 0, spelled as str() spells its Fraction: reduced, and "p"
    alone when q divides p, at any length."""
    g = math.gcd(p, q)
    if g == q:
        return _int_to_str(p // q)
    return f"{_int_to_str(p // g)}/{_int_to_str(q // g)}"


# int() refuses strings longer than sys.get_int_max_str_digits(), so longer
# ones go in halves; _int_to_str is the writing direction.
def _digits_to_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:
        half = len(digits) // 2
        return _digits_to_int(digits[:-half]) * 10 ** half + _digits_to_int(digits[-half:])


def _rat_parts(text: str) -> tuple[int, int]:
    """The (numerator, denominator) of a rational string, denominator positive;
    anything but "p/q" in lowest terms, or "p" alone when q = 1, is rejected."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    match = _RAT_RE.match(text)
    if match is None:
        raise ValueError(f"malformed rational {text!r}")
    sign, digits, den_digits = match.groups()
    if den_digits == "1" or (sign and digits == "0"):
        raise ValueError(f"non-canonical rational {text!r}")
    num = _digits_to_int(digits)
    den = _digits_to_int(den_digits) if den_digits else 1
    if math.gcd(num, den) != 1:
        raise ValueError(f"rational {text!r} is not in lowest terms")
    return (-num if sign else num), den


def _triple(xn: int, xd: int, yn: int, yd: int) -> tuple[int, int, int]:
    """The reduced triple of (xn/xd, yn/yd), both in lowest terms with
    positive denominators: over the lcm of the denominators it is reduced."""
    w = math.lcm(xd, yd)
    return (xn * (w // xd), yn * (w // yd), w)


def _checked(t: list) -> tuple:
    """The merged triples of t, after checking that they are a map [0, 1] -> [0, 1]."""
    if len(t) < 2:
        raise ValueError("a map needs at least two breakpoints")
    if t[0][0] != 0 or t[-1][0] != t[-1][2]:
        raise ValueError("breakpoints must start at x=0 and end at x=1")
    for i, (x, y, w) in enumerate(t):
        if i and x * t[i - 1][2] <= t[i - 1][0] * w:
            raise ValueError(
                f"x-coordinates must increase strictly (at x = {Fraction(x, w)})")
        if not 0 <= y <= w:
            raise ValueError(f"value {Fraction(y, w)} outside [0, 1]")
    return _merge(t)


class PLMap:
    """A continuous piecewise-linear map [0, 1] -> [0, 1] in canonical form.

    Breakpoint x-coordinates increase strictly from 0 to 1, values stay in
    [0, 1], and no three consecutive breakpoints are collinear (construction
    merges such runs). Equality is therefore equality of breakpoint tuples.
    Instances are immutable; all operations return new maps.
    """

    __slots__ = ("_t",)

    def __init__(self, points: Iterable[tuple[RatLike, RatLike]]):
        t = []
        for x, y in points:
            x, y = as_rat(x), as_rat(y)
            t.append(_triple(x.numerator, x.denominator, y.numerator, y.denominator))
        self._t = _checked(t)

    @classmethod
    def from_ratios(cls, pairs: Iterable[tuple[tuple[int, int], tuple[int, int]]]) -> PLMap:
        """The map through ((xn, xd), (yn, yd)) pairs, each ratio an integer
        pair in lowest terms with a positive denominator, checked as by the
        constructor but with no Fraction built."""
        f = object.__new__(cls)
        f._t = _checked([_triple(xn, xd, yn, yd) for (xn, xd), (yn, yd) in pairs])
        return f

    @property
    def triples(self) -> tuple[tuple[int, int, int], ...]:
        """The breakpoints as the stored reduced (X, Y, W), x = X/W and y = Y/W."""
        return self._t

    @property
    def points(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The breakpoints as (x, y) pairs, built afresh on each access."""
        return tuple((Fraction(x, w), Fraction(y, w)) for x, y, w in self._t)

    def _at(self, p: int, q: int):
        """The reduced triple of the graph's point at x = p/q in [0, 1], q > 0."""
        t = self._t
        i = min(_bisect(t, p, q, True), len(t) - 1)
        return _reduce(_cross(_cross(t[i - 1], t[i]), (q, 0, -p)))

    def __call__(self, x: RatLike) -> Fraction:
        x = as_rat(x)
        if x.numerator < 0 or x.numerator > x.denominator:
            raise ValueError(f"{x} outside [0, 1]")
        _, y, w = self._at(x.numerator, x.denominator)
        return Fraction(y, w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PLMap):
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        return hash(self._t)

    def __repr__(self) -> str:
        inside = ", ".join(f"({_ratio_str(x, w)}, {_ratio_str(y, w)})" for x, y, w in self._t)
        return f"PLMap([{inside}])"


def identity() -> PLMap:
    return PLMap([(ZERO, ZERO), (ONE, ONE)])


@lru_cache(maxsize=TENT_CACHE_SIZE)
def tent(n: int) -> PLMap:
    """The n-fold stretch-and-fold map t -> wave_eval(n*t)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("tent index must be a positive integer")
    return _from_triples([_reduce((k, k % 2 * n, n)) for k in range(n + 1)])


def compose(outer: PLMap, inner: PLMap) -> PLMap:
    """Exact composition outer(inner(x)), refined at all slope changes. A tent
    operand, inner first, is tiled (`_of_tent`) or walked once (`_tent_of`);
    only a map of k segments through (1/k, 1) is compared with tent(k)."""
    for f in (inner, outer):
        k = len(f._t) - 1
        if f._t[1] == (1, k, k) and f._t == tent(k)._t:
            return _of_tent(outer, k) if f is inner else _tent_of(k, inner)
    ot, it = outer._t, inner._t
    pts = []
    for p0, p1 in zip(it, it[1:]):
        x0, y0, w0 = p0
        _, v, w = outer._at(y0, w0)
        pts.append(_reduce((x0 * w, v * w0, w0 * w)))
        _, y1, w1 = p1
        rise = y1 * w0 - y0 * w1
        if rise > 0:
            idxs = range(_bisect(ot, y0, w0, True), _bisect(ot, y1, w1, False))
        elif rise < 0:
            idxs = range(_bisect(ot, y0, w0, False) - 1, _bisect(ot, y1, w1, True) - 1, -1)
        else:
            continue
        line = _cross(p0, p1)
        for k in idxs:
            u, v, w = ot[k]
            # where inner's segment reaches height u/w, outer has value v/w
            x, _, wx = _cross(line, (0, w, -u))
            pts.append(_reduce((x * w, v * wx, wx * w)))
    _, v, w = outer._at(it[-1][1], it[-1][2])
    pts.append(_reduce((w, v, w)))
    return _from_triples(pts)


def _tent_of(m: int, f: PLMap) -> PLMap:
    """tent(m)∘f, m >= 1, in one walk over f's triples.

    Each breakpoint goes through the tent step. A segment from height y0 to
    y1 crosses the folds k/m strictly between them, k from floor(m*y0) + 1
    up to ceil(m*y1) - 1 (from ceil(m*y0) - 1 down to floor(m*y1) + 1 on a
    falling segment), and each adds the point where the segment meets
    y = k/m, of value k % 2. A lift crosses few folds inside its segments,
    so the segment's line is made only at a crossing."""
    t, pts = f._t, []
    for p0, p1 in zip(t, t[1:]):
        (X, Y, W), (_, Y1, W1) = p0, p1
        c, U = _tent_at(m, Y, W)
        g = math.gcd(m, X, W)  # U ≡ ±m·Y (mod W) and gcd(X, Y, W) = 1
        pts.append((X // g, U // g, W // g))
        rise = Y1 * W - Y * W1
        if rise > 0:
            ks = range(c + 1, -(-m * Y1 // W1))
        elif rise < 0:
            ks = range(-(-m * Y // W) - 1, m * Y1 // W1, -1)
        else:
            continue
        for k in ks:
            x, _, w = _cross(_cross(p0, p1), (0, m, -k))
            pts.append(_reduce((x, k % 2 * w, w)))
    X, Y, W = t[-1]
    g = math.gcd(m, X, W)
    pts.append((X // g, _tent_at(m, Y, W)[1] // g, W // g))
    return _from_triples(pts)


def _of_tent(f: PLMap, n: int) -> PLMap:
    """f∘tent(n), n >= 1: f's triples tiled n times, odd legs reversed,
    leg by leg (X, Y, W) -> (leg·W + X, n·Y, n·W), or ((leg+1)·W - X, n·Y,
    n·W) on an odd leg. No point of f is searched for and no segment is
    cut, since tent(n) sweeps [0, 1] once per leg."""
    t, pts = f._t, []
    walks = (t[1:], t[-2::-1])
    for leg in range(n):
        odd = leg % 2
        for X, Y, W in walks[odd] if leg else t:
            x = (leg + 1) * W - X if odd else leg * W + X
            g = math.gcd(x, n)  # x ≡ ±X (mod W) and gcd(X, Y, W) = 1
            pts.append((x // g, n * Y // g, n * W // g))
    return _from_triples(pts)


def tent_lift(f0: PLMap, n: int, m: int, k: int) -> PLMap:
    """The lift x -> tent_branch(m, c, f0(tent(n)(x))), so tent(m)∘lift =
    f0∘tent(n), read off f0's triples tiled n times, odd legs reversed, with
    no f0∘tent(n) built. Legs up to k take branch c = 0 and legs from k + m
    on c = m - 1. Leg k + lam, 0 < lam < m, turns from branch lam - 1 to lam
    at the tiled copy of f0's first zero (lam even) or first one (lam odd),
    both breakpoints since f0 stays in [0, 1]: from that index on, which on
    an odd leg, walked backwards, means at or before it. Both branches give
    lam/m at the turn, so a turn at a leg's end may be taken by either leg."""
    t, pts, last = f0._t, [], len(f0._t) - 1
    zero = next((s for s, (_, Y, _) in enumerate(t) if Y == 0), None)
    one = next((s for s, (_, Y, W) in enumerate(t) if Y == W), None)
    if zero is None or one is None:
        raise ValueError("f0 must map [0, 1] onto itself")
    walks = (t[1:], t[-2::-1])
    for leg in range(n):
        odd, lam = leg % 2, leg - k
        s = one if lam % 2 else zero  # the turn's index, on a turning leg
        if not 0 < lam < m:
            runs = ((0 if lam <= 0 else m - 1, walks[odd] if leg else t),)
        elif odd:  # as in walks, no run repeats the point ending the leg before
            runs = ((lam - 1, t[last - 1:s:-1]), (lam, t[min(s, last - 1)::-1]))
        else:
            runs = ((lam - 1, t[1:s]), (lam, t[s or 1:]))
        for c, run in runs:
            for X, Y, W in run:
                x, w, y = (leg + 1) * W - X if odd else leg * W + X, n * W, n * Y
                pts.append(_reduce((m * x, (c + 1) * w - y if c % 2 else c * w + y, m * w)))
    return _from_triples(pts)


def _from_triples(t) -> PLMap:
    """The PLMap on valid reduced triples t, merged but not re-checked."""
    f = object.__new__(PLMap)
    f._t = _merge(t)
    return f


def lap(f: PLMap) -> int:
    """Number of maximal monotone pieces; constant runs join a neighbour."""
    t = f._t
    rises = (y1 * w0 - y0 * w1 for (_, y0, w0), (_, y1, w1) in zip(t, t[1:]))
    signs = [r > 0 for r in rises if r]
    return 1 + sum(s0 != s1 for s0, s1 in zip(signs, signs[1:]))


def range_on(f: PLMap, a: RatLike, b: RatLike) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of f over [a, b]."""
    a, b = as_rat(a), as_rat(b)
    if not ZERO <= a <= b <= ONE:
        raise ValueError(f"bad interval [{a}, {b}]")
    t = f._t
    ap, aq, bp, bq = a.numerator, a.denominator, b.numerator, b.denominator
    lo = hi = f._at(ap, aq)[1:]
    for _, y, w in (f._at(bp, bq),) + t[_bisect(t, ap, aq, True):_bisect(t, bp, bq, False)]:
        if y * lo[1] < lo[0] * w:
            lo = (y, w)
        elif y * hi[1] > hi[0] * w:
            hi = (y, w)
    return Fraction(*lo), Fraction(*hi)


def tent_preimages(n: int, y: RatLike) -> list[Fraction]:
    """All solutions of tent(n)(x) = y, in increasing order."""
    y = as_rat(y)
    if not ZERO <= y <= ONE:
        raise ValueError(f"{y} outside [0, 1]")
    if not isinstance(n, int) or n < 1:
        raise ValueError("tent index must be a positive integer")
    return sorted({tent_branch(n, c, y) for c in range(n)})


def tent_branch(n: int, c: int, y: RatLike) -> Fraction:
    """The point of leg c (0-based) of tent(n), [c/n, (c+1)/n], that tent(n)
    maps to y: the inverse branch of tent(n) on that leg. Fraction-with-int
    arithmetic, so every gcd has n, c or 1 as an operand, not two integers
    as long as y's."""
    y = as_rat(y)
    return (c + y) / n if c % 2 == 0 else (c + 1 - y) / n
