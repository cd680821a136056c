"""Slow reference for `knaster.tower.level_range`: the all-branch walk-up.

This is the range recursion that preceded the outer-branch walk, kept as
the oracle for the range differentials in `test_tower.py`. At every level
it asks the level below for the sub-range of every piece between branch
switches and takes the minimum and maximum over the images of all their
ends. It splits intervals at the stored switch points by bisection, derives
those points from a level's `n, k, m` and the level below's `b_num / b_den` with
its own tent arithmetic, and keeps its memo to one call, so it shares no
code with the lazy descent it checks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

ZERO, ONE = Fraction(0), Fraction(1)


def tent_branch(n: int, c: int, y: Fraction) -> Fraction:
    """The point of leg c of tent(n) that tent(n) maps to y."""
    return (c + y) / n if c % 2 == 0 else (c + 1 - y) / n


def wave(t: Fraction) -> Fraction:
    """tent(1) extended 2-periodically: tent(n)(x) is wave(n * x)."""
    k = math.floor(t)
    return t - k if k % 2 == 0 else k + 1 - t


def fold_points(lvl, b_prev: Fraction) -> list[Fraction]:
    """t_0..t_m: t_lam on tent leg k + lam, mapped by tent(n) to 0 (lam
    even) or to b_prev, the level below's leftmost 1-preimage (lam odd)."""
    return [tent_branch(lvl.n, lvl.k + lam, b_prev if lam % 2 else ZERO)
            for lam in range(lvl.m + 1)]


def stored_range_pieces(lvl, b_prev: Fraction, lo: Fraction, hi: Fraction):
    """Split [lo, hi] at bisections of the switch points t_1..t_{m-1}:
    (branch, interval) pairs, the interval being the piece's image under
    tent(n), where the level below is queried."""
    n, bounds = lvl.n, fold_points(lvl, b_prev)[1:lvl.m]
    first = bisect_right(bounds, lo)
    cuts = (lo, *bounds[first:bisect_left(bounds, hi)], hi)
    pieces = []
    for lam, (p, q) in enumerate(zip(cuts, cuts[1:]), first):
        c_lo, c_hi = math.ceil(n * p), math.floor(n * q)
        if c_hi > c_lo:
            pieces.append((lam, (ZERO, ONE)))
            continue
        u1, u2 = sorted((wave(n * p), wave(n * q)))
        if c_hi == c_lo:
            if c_lo % 2 == 0:
                u1 = ZERO
            else:
                u2 = ONE
        pieces.append((lam, (u1, u2)))
    return pieces


def level_range(tower, j: int, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    plans, need = [], {(lo, hi)}
    for level in range(j, 0, -1):
        lvl = tower.levels[level - 1]
        below = tower.levels[level - 2] if level > 1 else None
        b_prev = Fraction(below.b_num, below.b_den) if below else ONE
        plan = {iv: stored_range_pieces(lvl, b_prev, *iv) for iv in need}
        plans.append((level, plan))
        need = {sub for pieces in plan.values() for _, sub in pieces}
    memo = {(0, *iv): iv for iv in need}
    for level, plan in reversed(plans):
        m = tower.levels[level - 1].m
        for iv, pieces in plan.items():
            ends = [tent_branch(m, lam, r) for lam, sub in pieces for r in memo[(level - 1, *sub)]]
            memo[(level, *iv)] = (min(ends), max(ends))
    return memo[(j, lo, hi)]
