"""Lift construction through tent maps and the recursive map towers.

The kernel takes a map f0 of [0, 1] onto itself and integers (m, n, q, i)
with (m+2)q <= n, and produces a lift f1 satisfying tent(m)∘f1 = f0∘tent(n)
whose full sweep of [0, 1] happens inside [i/q, (i+1)/q], with the rest of
the domain pinned near 0 (left of the window) or near 1 (right of it).

Iterating the kernel with q = level index j and i = min(floor(t*j), j-1),
the slot of the window [i/j, (i+1)/j] holding t, yields, for each rational
parameter t, a tower of interval maps {f_j} commuting with the two bonding
sequences. Towers are never materialized eagerly: the lap count of f_j
grows like n_1*...*n_j, so a level stores integers only: n, m, slot, k and
the numerator of its tracked preimage over n_1*...*n_j. Its fold points
follow by leg arithmetic, and queries descend the levels; an explicit f_j
is built on request and kept by no one but the caller. No build or descent
step takes a gcd or does Fraction arithmetic. An exact range descends one
subinterval per level for each extreme, on integer numerators, comparing
x with the one switch point on its tent leg to pick a branch, and reduces
one Fraction at the end; a value f_j(x) is the extreme over [x, x].

`check_conditions` checks a lift's commuting square as the paper states it,
`compose(f0, tent(n)) == compose(tent(m), f1)`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass
from fractions import Fraction

from .plmap import (
    ONE,
    ZERO,
    PLMap,
    RatLike,
    _tent_at,
    as_rat,
    compose,
    range_on,
    tent,
    tent_branch,
    tent_lift,
    tent_preimages,
    wave_eval,
)
from .seqs import GroupedSeq, SeqSpec, regroup

DEFAULT_LAP_BUDGET = 10 ** 6


class LapBudgetError(ValueError):
    """Materializing this level would exceed the allowed lap bound."""


@dataclass(frozen=True)
class LiftSpec:
    """Input of the lift kernel: tent degrees m (target) and n (source), the
    sweep window [i/q, (i+1)/q], and the onto map f0 being lifted."""

    m: int
    n: int
    q: int
    i: int
    f0: PLMap

    def validate(self) -> None:
        if min(self.m, self.n, self.q) < 1:
            raise ValueError("m, n and q must be positive")
        if not 0 <= self.i < self.q:
            raise ValueError(f"need 0 <= i < q, got i={self.i}, q={self.q}")
        # (m+2)q <= n guarantees the fold window fits the sweep window for
        # every i; the construction itself only needs the fit, which is
        # checked exactly (k depends on i), so degenerate cases like
        # m=1, n=2, q=1 stay admissible.
        k = -(-self.n * self.i // self.q)
        if (k + self.m + 1) * self.q > (self.i + 1) * self.n:
            raise ValueError(
                f"fold window [{k}/{self.n}, {k + self.m + 1}/{self.n}] does not fit "
                f"inside [{self.i}/{self.q}, {self.i + 1}/{self.q}]; "
                f"(m+2)q <= n guarantees the fit")


def construct_lift(spec: LiftSpec) -> PLMap:
    """The lift f1 with tent(m)∘f1 = f0∘tent(n), sweeping inside [i/q, (i+1)/q].

    Deterministic choices: k is the least nonnegative integer with k/n >= i/q,
    and on tent leg k + lam, 0 < lam < m, the lift turns from inverse branch
    lam-1 of tent(m) to branch lam where that leg's copy of f0 first reaches
    0 (lam even) or 1 (lam odd). `tent_lift` applies the branches to
    g = f0∘tent(n) read off f0 tiled n times; g is never built. A turn t_lam
    needs no breakpoint of its own: g(t_lam) is 0 or 1, so t_lam is a
    breakpoint of g, given the value lam/m, or inside a segment where g is
    constant 0 or 1, on which branches lam-1 and lam agree.
    """
    spec.validate()
    return tent_lift(spec.f0, spec.n, spec.m, -(-spec.n * spec.i // spec.q))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the five lift conclusions; commutes is None when skipped."""

    fixes_origin: bool
    commutes: bool | None
    low_confined: bool
    sweeps_all: bool
    high_confined: bool

    @property
    def all_ok(self) -> bool:
        return all(v is not False for v in astuple(self))

    def as_dict(self) -> dict[str, bool | None]:
        return asdict(self)


def _report(fixes_origin: bool, commutes: bool | None, rng, m: int, q: int,
            i: int) -> ConditionReport:
    """Conditions 1 and 2 as given, and 3-5 for the window [i/q, (i+1)/q]
    and tent degree m, with rng(lo, hi) the exact (min, max) over [lo, hi]."""
    win_lo, win_hi = Fraction(i, q), Fraction(i + 1, q)
    low_confined = rng(ZERO, win_lo)[1] <= Fraction(1, m)
    sweeps_all = rng(win_lo, win_hi) == (ZERO, ONE)
    high_confined = rng(win_hi, ONE)[0] >= Fraction(m - 1, m)
    return ConditionReport(fixes_origin, commutes, low_confined, sweeps_all, high_confined)


def check_conditions(f1: PLMap, spec: LiftSpec) -> ConditionReport:
    """Exact check of the five lift conclusions for f1 against spec.

    Condition 2 is the square f0∘tent(n) = tent(m)∘f1, both sides through
    `compose`, which tiles f0 and walks f1 once; neither side reads the
    lift's construction (`tent_lift` tiles f0 with its own arithmetic, so
    a tiling fault cannot cancel)."""
    f0 = spec.f0
    fixes_origin = f0(ZERO) != ZERO or f1(ZERO) == ZERO
    commutes = compose(f0, tent(spec.n)) == compose(tent(spec.m), f1)
    return _report(fixes_origin, commutes, lambda lo, hi: range_on(f1, lo, hi),
                   spec.m, spec.q, spec.i)


@dataclass(frozen=True)
class LevelData:
    """One tower level, all integers: n, m, slot, k, and its leftmost
    1-preimage as the unreduced b_num / b_den, b_den = n_1*...*n_j. Only
    `_switch` derives its switch points t_lam (none is stored), and a branch
    at x is picked by comparing x with the one on x's tent leg."""

    j: int
    n: int
    m: int
    slot: int
    k: int
    b_num: int
    b_den: int


def _branch(lvl: LevelData, below: LevelData | None, c: int, X: int, D: int) -> int:
    """Branch index of lvl (its switch points t_1..t_{m-1} at or left of x) at
    x = X/D, D > 0, on tent leg c = floor(n*x): only t_{c-k} lies on that leg,
    so x is compared with it alone, as `_switch` gives it, cross-multiplied."""
    d = c - lvl.k
    if d < 1:
        return 0
    if d >= lvl.m:
        return lvl.m - 1
    T, W = _switch(lvl, below, d)
    return d if X * W >= T * D else d - 1


def _climb(branches, Y: int, W: int) -> Fraction:
    """tent_branch(m, lam, .) for each (m, lam) of a descent, top level first,
    applied bottom-up to Y/W kept unreduced; one Fraction at the end."""
    for m, lam in reversed(branches):
        Y = lam * W + Y if lam % 2 == 0 else (lam + 1) * W - Y
        W *= m
    return Fraction(Y, W)


class Tower:
    """The family {f_j} for fixed (raw source sequence, target sequence, t).

    Levels hold integers only. Evaluation and range queries are lazy and
    cache nothing; materialization is opt-in, guarded by an explicit lap
    budget, and caches nothing either.
    Construction is sequential, evaluation afterwards is pure.
    """

    def __init__(self, raw_source: SeqSpec, target: SeqSpec, t: Fraction,
                 grouped: GroupedSeq, levels):
        self.raw_source = raw_source
        self.target = target
        self.t = t
        self.grouped = grouped
        self.levels: tuple[LevelData, ...] = tuple(levels)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, j: int) -> LevelData:
        """The stored data of lift j, 1 <= j <= depth."""
        _check_level(self, j)
        if j == 0:
            raise ValueError("level 0 is the identity, not a lift: it has no n, m or slot")
        return self.levels[j - 1]


def _check_level(tower: Tower, j: int) -> None:
    """f_j is defined for 0 <= j <= depth, f_0 being the identity."""
    if not 0 <= j <= tower.depth:
        raise ValueError(f"level {j} not built (depth {tower.depth})")


def build_tower(raw_source: SeqSpec, target: SeqSpec, t: RatLike, depth: int) -> Tower:
    """Build level data for f_1..f_depth over the regrouped source sequence.

    A level costs one integer floor for its slot, one multiply and two
    multiply-adds: its leftmost 1-preimage B and rightmost 0-preimage Z are
    numerators over P = n_1*...*n_j, which no step reduces.
    """
    t = as_rat(t)
    if not ZERO <= t <= ONE:
        raise ValueError(f"parameter {t} outside [0, 1]")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    grouped = regroup(raw_source, target, depth)
    levels = []
    B, Z, P = 1, 0, 1  # level 0, the identity: b = 1, z = 0
    t_num, t_den = t.numerator, t.denominator
    for j in range(1, depth + 1):
        n, m = grouped.nth(j), target.nth(j)
        if not (m + 2) * j < n:
            raise ValueError(f"level {j}: n = {n} does not exceed (m+2)j = {(m + 2) * j}")
        slot = min(t_num * j // t_den, j - 1)  # the window [slot/j, (slot+1)/j] holding t
        k = -(-n * slot // j)
        # Where this level's map first reaches 1: past fold t_{m-1}, on leg c,
        # the map is the top branch, so it reaches 1 where the previous map
        # next hits 1 (m odd: (e + b)/n on the first even leg e from c) or 0
        # (m even: at its rightmost zero, (o + 1 - z)/n on the first odd leg
        # o from c), b and z being that map's preimages, here over P.
        c = k + m - 1
        if m % 2 == 1:
            B = (c + c % 2) * P + B
        else:
            B = (c + 2 - c % 2) * P - Z
        # Zeros live left of t_1 only; the rightmost one mirrors the previous
        # level's rightmost zero through the first even leg from k.
        Z = (k + k % 2) * P + Z
        P *= n
        levels.append(LevelData(j=j, n=n, m=m, slot=slot, k=k, b_num=B, b_den=P))
    return Tower(raw_source, target, t, grouped, levels)


def eval_level(tower: Tower, j: int, x: RatLike) -> Fraction:
    """f_j(x) without materializing: the range descent over the point [x, x],
    one floor and at most one cross-multiplied compare a level."""
    x = as_rat(x)
    if not ZERO <= x <= ONE:
        raise ValueError(f"{x} outside [0, 1]")
    _check_level(tower, j)
    return _extreme(tower, j, x, x, False)


def materialize_level(tower: Tower, j: int, lap_budget: int = DEFAULT_LAP_BUDGET) -> PLMap:
    """Explicit canonical PLMap equal to f_j; refuses when n_1*...*n_j > budget.

    Each call lifts f_0 = identity up to level j and keeps nothing."""
    _check_level(tower, j)
    estimate = tower.grouped.prefix_product(j)
    if estimate > lap_budget:
        raise LapBudgetError(
            f"estimated lap {estimate} at level {j} exceeds budget {lap_budget}")
    f = tent(1)
    for lvl in tower.levels[:j]:
        f = construct_lift(LiftSpec(lvl.m, lvl.n, q=lvl.j, i=lvl.slot, f0=f))
    return f


def level_range(tower: Tower, j: int, lo: RatLike, hi: RatLike) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of f_j over [lo, hi], computed lazily.

    On a piece of [lo, hi] between two of level j's branch switches, f_j is
    the inverse branch lam of tent(m_j) applied to f_{j-1}∘tent(n_j), and
    that branch maps into [lam/m_j, (lam+1)/m_j]. So the minimum lies on the
    first piece and the maximum on the last, each the branch applied to an
    extreme of f_{j-1} over the piece's tent image: the same extreme where
    the branch rises (lam even), the other one where it falls. Each extreme
    is one descent through single intervals, at most j steps, one for a point.
    """
    lo, hi = as_rat(lo), as_rat(hi)
    if not ZERO <= lo <= hi <= ONE:
        raise ValueError(f"bad interval [{lo}, {hi}]")
    _check_level(tower, j)
    low = _extreme(tower, j, lo, hi, False)
    return low, low if lo == hi else _extreme(tower, j, lo, hi, True)


def _switch(lvl: LevelData, below: LevelData | None, lam: int) -> tuple[int, int]:
    """Switch point t_lam of lvl as an unreduced (numerator, denominator): on
    tent leg k + lam, where tent(n) maps it to 0 (lam even) or to the
    1-preimage b_num / b_den of the level below (1 at level 1)."""
    c = lvl.k + lam
    y, w = (below.b_num, below.b_den) if lam % 2 and below else (lam % 2, 1)
    return (c * w + y if c % 2 == 0 else (c + 1) * w - y), lvl.n * w


def _extreme(tower: Tower, j: int, lo: Fraction, hi: Fraction, top: bool) -> Fraction:
    """The minimum (top false) or maximum (top true) of f_j over [lo, hi].

    Each end, an integer numerator over its own denominator, is compared with
    its leg's one switch point before its tent step. The near end X/D (hi for
    a maximum) picks the branch; the far end Y/E is cut to that branch's
    switch point only when it lies on another branch."""
    near, far = (hi, lo) if top else (lo, hi)
    X, D, Y, E = near.numerator, near.denominator, far.numerator, far.denominator
    point = lo == hi
    levels = tower.levels
    branches = []
    for i in range(j - 1, -1, -1):
        lvl = levels[i]
        below = levels[i - 1] if i else None
        # the near end's tent step, inline: through _tent_at a point runs ~10% slower
        s = lvl.n * X
        c = s // D
        lam = _branch(lvl, below, c, X, D)
        X = s - c * D if c % 2 == 0 else (c + 1) * D - s
        branches.append((lvl.m, lam))
        if point:
            continue
        if _branch(lvl, below, lvl.n * Y // E, Y, E) != lam:
            Y, E = _switch(lvl, below, lam if top else lam + 1)
        d, V = _tent_at(lvl.n, Y, E)
        # the tent folds c/n inside the interval: ceil(n*lo) <= c <= floor(n*hi)
        c_lo, c_hi = (-(-lvl.n * Y // E), c) if top else (-(-s // D), d)
        top ^= lam % 2 == 1  # a falling branch turns f_{j-1}'s max into f_j's min
        if c_hi > c_lo:
            # [c_lo/n, (c_lo+1)/n] lies inside: f_{j-1} is onto, so takes 0 and 1
            return _climb(branches, int(top), 1)
        lo_end, hi_end = ((X, D), (V, E)) if X * E <= V * D else ((V, E), (X, D))
        if c_hi == c_lo:  # one fold c_lo/n inside: the wave turns at 0 (even) or 1 (odd)
            lo_end, hi_end = ((0, 1), hi_end) if c_lo % 2 == 0 else (lo_end, (1, 1))
        (X, D), (Y, E) = (hi_end, lo_end) if top else (lo_end, hi_end)
    return _climb(branches, X, D)  # level 0 is the identity


def commutes_pointwise(tower: Tower, j: int, x: RatLike) -> bool:
    """Check f_{j-1}(tent(n_j)(x)) == tent(m_j)(f_j(x)) at one point, lazily."""
    x = as_rat(x)
    lvl = tower.level(j)
    lhs = eval_level(tower, j - 1, wave_eval(lvl.n * x))
    rhs = wave_eval(lvl.m * eval_level(tower, j, x))
    return lhs == rhs


def check_level_conditions(tower: Tower, j: int) -> ConditionReport:
    """Exact conditions 1, 3, 4, 5 at level j via lazy range queries.

    The commuting identity (condition 2) is not checked here; use
    commutes_pointwise or compare materialized compositions when feasible.
    """
    lvl = tower.level(j)
    fixes_origin = eval_level(tower, j, ZERO) == ZERO
    return _report(fixes_origin, None, lambda lo, hi: level_range(tower, j, lo, hi),
                   lvl.m, j, lvl.slot)


def enumerate_lifts(h: PLMap, m: int, cap: int) -> list[PLMap]:
    """Distinct continuous maps f with tent(m)∘f = h, at most cap of them.

    Depth-first, on an explicit stack, over the branch choices available
    where h hits 0 or 1. At a branch point the continuation that keeps f's
    current direction is tried first (so monotone lifts such as tent(k) for
    h = tent(m*k) come out early); with no direction yet, the smaller-valued
    continuation goes first. Initial values run over tent(m)^{-1}(h(0)) in
    increasing order.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError("tent index must be a positive integer")
    if cap < 1:
        raise ValueError("cap must be positive")
    xs, ys = zip(*h.points)
    last = len(xs) - 1
    out: list[PLMap] = []
    # Explicit stack of (index, value, direction) nodes, children pushed in
    # reverse so they pop in order. A popped node at idx shares vals[:idx]
    # with its parent's path, which no later node has overwritten yet.
    vals: list[Fraction] = []
    stack = [(0, v0, 0) for v0 in reversed(tent_preimages(m, ys[0]))]
    while stack:
        idx, v, direction = stack.pop()
        del vals[idx:]
        vals.append(v)
        if idx == last:
            out.append(PLMap(list(zip(xs, vals))))
            if len(out) == cap:
                break
            continue
        y0, y1 = ys[idx], ys[idx + 1]
        if y0 != ZERO and y0 != ONE:
            legs = [math.floor(v * m)]  # interior of a single leg, no choice
        else:
            c = int(v * m)  # v sits exactly on fold c/m
            if y1 == y0:
                legs = [min(c, m - 1)]  # constant run, both branches agree
            else:
                pair = [c, c - 1] if direction > 0 else [c - 1, c]
                legs = [leg for leg in pair if 0 <= leg <= m - 1]
        for leg in reversed(legs):
            w = tent_branch(m, leg, y1)
            nd = direction if w == v else (1 if w > v else -1)
            stack.append((idx + 1, w, nd))
    return out
