"""Slow references for `knaster.tower.build_tower` and `eval_level`.

These are the Fraction-step versions that preceded the integer descent and
climb, kept as the oracle for the tower differentials in `test_tower.py`.
Every tower step goes through `_tent_branch`, which builds a reduced
Fraction from two integers as long as the step's value, so each level pays
a gcd that grows with depth; the library keeps unreduced integer
numerators over n_1*...*n_j instead, so the differential of the tracked
1-preimage compares two arithmetic paths. The slot is min(floor(t*j), j-1)
taken on the Fraction t, and the branch choice is a Fraction compare.
"""

from __future__ import annotations

import math
from fractions import Fraction

from knaster.plmap import ONE, ZERO, RatLike, as_rat
from knaster.seqs import SeqSpec, regroup
from knaster.tower import LevelData, Tower


def _tent_branch(n: int, c: int, y: Fraction) -> Fraction:
    """The inverse branch of tent(n) on leg c, as one reduced Fraction."""
    num, den = y.numerator, y.denominator
    if c % 2 == 0:
        return Fraction(c * den + num, n * den)
    return Fraction((c + 1) * den - num, n * den)


def fold_points(n: int, k: int, m: int, a: Fraction, b: Fraction) -> tuple[Fraction, ...]:
    """The points t_0 < ... < t_m of a lift of f0 through tent(m) over tent(n):
    t_lam on tent leg k + lam, where tent(n) maps it to a (lam even) or b
    (lam odd), f0's leftmost preimages of 0 and 1. The lift takes the value
    lam/m at t_lam and turns there from inverse branch lam-1 to lam."""
    return tuple(_tent_branch(n, k + lam, b if lam % 2 else a) for lam in range(m + 1))


def _branch(lvl: LevelData, b_prev: Fraction, c: int, u: Fraction) -> int:
    """Branch index of lvl at x on tent leg c = floor(n*x), u = tent(n)(x)."""
    d = c - lvl.k
    if d < 1:
        return 0
    if d >= lvl.m:
        return lvl.m - 1
    y = b_prev if d % 2 else ZERO
    return d if (y <= u if c % 2 == 0 else u <= y) else d - 1


def build_tower(raw_source: SeqSpec, target: SeqSpec, t: RatLike, depth: int) -> Tower:
    t = as_rat(t)
    if not ZERO <= t <= ONE:
        raise ValueError(f"parameter {t} outside [0, 1]")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    grouped = regroup(raw_source, target, depth)
    levels = []
    b_prev, z_prev = ONE, ZERO
    for j in range(1, depth + 1):
        n, m = grouped.nth(j), target.nth(j)
        if not (m + 2) * j < n:
            raise ValueError(f"level {j}: n = {n} does not exceed (m+2)j = {(m + 2) * j}")
        slot = min(math.floor(t * j), j - 1)
        k = -(-n * slot // j)
        c = k + m - 1
        if m % 2 == 1:
            b_self = _tent_branch(n, c + c % 2, b_prev)
        else:
            b_self = _tent_branch(n, c + 1 - c % 2, z_prev)
        z_prev = _tent_branch(n, k + k % 2, z_prev)
        levels.append(LevelData(j=j, n=n, m=m, slot=slot, k=k,
                                b_num=b_self.numerator, b_den=b_self.denominator))
        b_prev = b_self
    return Tower(raw_source, target, t, grouped, levels)


def eval_level(tower: Tower, j: int, x: RatLike) -> Fraction:
    x = as_rat(x)
    if not ZERO <= x <= ONE:
        raise ValueError(f"{x} outside [0, 1]")
    if not 0 <= j <= tower.depth:
        raise ValueError(f"level {j} not built (depth {tower.depth})")
    legs = []
    for lvl in reversed(tower.levels[:j]):
        s = lvl.n * x
        c = s.numerator // s.denominator
        x = s - c if c % 2 == 0 else c + 1 - s
        legs.append((lvl, c, x))
    y, b_prev = x, ONE
    for lvl, c, u in reversed(legs):
        y = _tent_branch(lvl.m, _branch(lvl, b_prev, c, u), y)
        b_prev = Fraction(lvl.b_num, lvl.b_den)
    return y
