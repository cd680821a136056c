"""Slow references for `knaster.natmap`: prime factoring and the full
enumeration of coordinate picks.

`prime_obstruction` decides by gcd whether the target's tail needs a prime
the source's tail lacks. This is the definition it implements, the set of
primes dividing infinitely many terms, found by trial division, which runs
to the square root of the tail product; it is only fit for small terms.

`enumerate_natural_maps` stops at the first compatible jseq of each
(i0, j_0). The reference walks every (depth + 1)-combination of the
coordinates and skips those past j0max or with an (i0, j_0) already
emitted, so its cost grows like C(jmax + 1, depth + 1).
"""

from __future__ import annotations

from itertools import combinations

from knaster.natmap import NaturalMapSpec, _tail_product, first_incompatible
from knaster.seqs import SeqSpec


def _prime_factors(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def tail_prime_support(seq: SeqSpec) -> frozenset[int]:
    """Primes dividing infinitely many terms (constant/periodic only)."""
    return frozenset(_prime_factors(_tail_product(seq)))


def enumerate_natural_maps(source: SeqSpec, target: SeqSpec, i0max: int,
                           j0max: int, jmax: int, depth: int) -> list[NaturalMapSpec]:
    out: list[NaturalMapSpec] = []
    seen: set[tuple[int, int]] = set()
    for i0 in range(1, i0max + 1):
        for jseq in combinations(range(jmax + 1), depth + 1):
            if jseq[0] > j0max:
                continue
            if (i0, jseq[0]) in seen:
                continue
            spec = NaturalMapSpec(i0, jseq, source, target)
            if depth == 0 or first_incompatible(spec, depth) is None:
                seen.add((i0, jseq[0]))
                out.append(spec)
    return out
