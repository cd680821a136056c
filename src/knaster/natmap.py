"""Divisibility arithmetic of naturally induced maps between Knaster continua.

A naturally induced map sends a point (x_0, x_1, ...) of the source
continuum to (g_{i_0}(x_{j_0}), g_{i_1}(x_{j_1}), ...) in the target.
Once i_0 and the strictly increasing coordinate picks {j_k} are fixed, the
remaining tent degrees are forced:

    i_k = i_0 * n_{j_0+1} * ... * n_{j_k} / (m_1 * ... * m_k)

and the map exists iff every i_k is a positive integer. Solenoid maps share
this arithmetic verbatim; only the interval-level action differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .seqs import SeqSpec


@dataclass(frozen=True)
class NaturalMapSpec:
    """Level-0 tent degree i0 plus the coordinate picks j_0 < j_1 < ..."""

    i0: int
    jseq: tuple[int, ...]
    source: SeqSpec
    target: SeqSpec

    def __post_init__(self):
        object.__setattr__(self, "jseq", tuple(self.jseq))
        if self.i0 < 1:
            raise ValueError("i0 must be a positive integer")
        if not self.jseq or self.jseq[0] < 0:
            raise ValueError("jseq must be nonempty with j_0 >= 0")
        if any(a >= b for a, b in zip(self.jseq, self.jseq[1:])):
            raise ValueError("jseq must increase strictly")


def induced_indices(spec: NaturalMapSpec, depth: int) -> list[Fraction]:
    """The exact values i_1..i_depth forced by the divisibility formula."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > len(spec.jseq) - 1:
        raise ValueError(f"jseq of length {len(spec.jseq)} does not reach depth {depth}")
    out = []
    cur = Fraction(spec.i0)
    for k in range(1, depth + 1):
        block = 1
        for r in range(spec.jseq[k - 1] + 1, spec.jseq[k] + 1):
            block *= spec.source.nth(r)
        cur = cur * block / spec.target.nth(k)
        out.append(cur)
    return out


def first_incompatible(spec: NaturalMapSpec, depth: int) -> int | None:
    """Least k <= depth where i_k fails to be a positive integer, or None."""
    for k, value in enumerate(induced_indices(spec, depth), start=1):
        if value.denominator != 1 or value < 1:
            return k
    return None


def _least_compatible_picks(source: SeqSpec, target: SeqSpec, i0: int, j0: int,
                            jmax: int, depth: int) -> tuple[int, ...] | None:
    """Lexicographically least j_1 < ... < j_depth <= jmax, all past j0, with
    every i_k a positive integer, or None.

    i_k depends only on i_{k-1} and the picks j_{k-1} < j_k, so the picks are
    searched depth-first, in increasing order, on an explicit stack, and a
    prefix is dropped at the first k where i_k fails. Sequence terms are
    read only as far as the search gets.
    """
    picks: list[int] = []
    stack = [(j0 + 1, i0)]  # frame k: next candidate for j_k, i_{k-1}*n_{j_{k-1}+1}*...*n_{j_k-1}
    while stack:
        if len(picks) == depth:
            return tuple(picks)
        k = len(stack)
        j, block = stack.pop()
        if j > jmax - depth + k:  # no room left for j_{k+1}, ..., j_depth
            if picks:
                picks.pop()
            continue
        block *= source.nth(j)
        stack.append((j + 1, block))
        if block % target.nth(k) == 0:
            picks.append(j)
            stack.append((j + 1, block // target.nth(k)))
    return None


def enumerate_natural_maps(source: SeqSpec, target: SeqSpec, i0max: int,
                           j0max: int, jmax: int, depth: int) -> list[NaturalMapSpec]:
    """All compatible specs within the bounds, one per induced map.

    Ordered lexicographically by (i0, jseq). Two compatible specs with the
    same (i0, j_0) induce the same map (the level-0 composite determines a
    naturally induced map), so only the lexicographically least jseq is
    emitted for each such pair.
    """
    if min(i0max, j0max, jmax, depth) < 0:
        raise ValueError("bounds must be nonnegative")
    out: list[NaturalMapSpec] = []
    for i0 in range(1, i0max + 1):
        for j0 in range(min(j0max, jmax) + 1):
            picks = _least_compatible_picks(source, target, i0, j0, jmax, depth)
            if picks is not None:
                out.append(NaturalMapSpec(i0, (j0, *picks), source, target))
    if len({(s.i0, s.jseq[0]) for s in out}) != len(out):
        raise AssertionError("two emitted specs share (i0, j_0): one map listed twice")
    return out


def _tail_product(seq: SeqSpec) -> int:
    """The product of one period of the tail (constant/periodic only)."""
    if seq.kind == "constant":
        return seq.n
    if seq.kind == "periodic":
        return math.prod(seq.period)
    raise ValueError("a finite sequence has no infinite tail")


def prime_obstruction(source: SeqSpec, target: SeqSpec) -> bool:
    """Advisory global nonexistence test for constant/periodic sequences.

    True when the target tail keeps demanding a prime the source tail cannot
    supply; then no spec stays compatible at arbitrarily large depth, whatever
    i0 and jseq are. False means this test proves nothing. Decided by gcd,
    not by factoring: strip from the target's tail product every factor it
    shares with the source's, and see whether anything is left.
    """
    demand, supply = _tail_product(target), _tail_product(source)
    while (g := math.gcd(demand, supply)) > 1:
        demand //= g
    return demand > 1
