"""Slow reference for `knaster.tower.level_range`: the all-branch walk-up.

This is the range recursion that preceded the outer-branch walk, kept as
the oracle for the deep range differential in `test_tower.py`. At every
level it asks the level below for the sub-range of every piece between
branch switches and takes the minimum and maximum over the images of all
their ends. It splits intervals with `knaster.tower._range_pieces`, which
has its own stored-fold reference test, and keeps its memo to one call,
so nothing is shared with the tower's memo.
"""

from __future__ import annotations

from fractions import Fraction


def tent_branch(n: int, c: int, y: Fraction) -> Fraction:
    """The point of leg c of tent(n) that tent(n) maps to y."""
    return (c + y) / n if c % 2 == 0 else (c + 1 - y) / n


def level_range(tower, j: int, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    from knaster.tower import _range_pieces

    plans, need = [], {(lo, hi)}
    for level in range(j, 0, -1):
        lvl = tower.levels[level - 1]
        b_prev = tower.levels[level - 2].b_self if level > 1 else Fraction(1)
        plan = {iv: _range_pieces(lvl, b_prev, *iv) for iv in need}
        plans.append((level, plan))
        need = {sub for pieces in plan.values() for _, sub in pieces}
    memo = {(0, *iv): iv for iv in need}
    for level, plan in reversed(plans):
        m = tower.levels[level - 1].m
        for iv, pieces in plan.items():
            ends = [tent_branch(m, lam, r) for lam, sub in pieces for r in memo[(level - 1, *sub)]]
            memo[(level, *iv)] = (min(ends), max(ends))
    return memo[(j, lo, hi)]
