"""Slow reference for `knaster.tower.construct_lift`: the Fraction lift loop.

This is the lift step that preceded `plmap.tent_lift`, kept as the oracle
for `test_lift_oracle.py`. It walks the breakpoints of f0∘tent(n) as
Fraction pairs, inserts every switch point t_lam that is not a breakpoint
with its value lam/m, and builds the result through the Fraction reference
`ref_plmap`, so no part of the integer-triple core is used. Input checks
are left to the caller: the spec must be one `LiftSpec` accepts.
"""

from __future__ import annotations

from fractions import Fraction

import ref_plmap as ref


def tent(n: int) -> ref.PLMap:
    return ref.PLMap([(Fraction(k, n), k % 2) for k in range(n + 1)])


def tent_branch(n: int, c: int, y: Fraction) -> Fraction:
    """The point of leg c of tent(n) that tent(n) maps to y."""
    return (c + y) / n if c % 2 == 0 else (c + 1 - y) / n


def construct_lift(m: int, n: int, q: int, i: int, f0: ref.PLMap) -> ref.PLMap:
    a = ref.leftmost_preimage(f0, 0)
    b = ref.leftmost_preimage(f0, 1)
    k = -(-n * i // q)
    bounds = [tent_branch(n, k + lam, b if lam % 2 else a) for lam in range(1, m)]
    # bi counts the switch points at or left of x: the branch index at x
    pts, bi = [], 0
    for x, y in ref.compose(f0, tent(n)).points:
        while bi < len(bounds) and bounds[bi] < x:
            bi += 1
            pts.append((bounds[bi - 1], Fraction(bi, m)))  # f1(t_lam) = lam/m
        if bi < len(bounds) and bounds[bi] == x:
            bi += 1
        pts.append((x, tent_branch(m, bi, y)))
    return ref.PLMap(pts)
