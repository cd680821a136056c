"""Slow reference for `knaster.natmap.prime_obstruction`: prime factoring.

`prime_obstruction` decides by gcd whether the target's tail needs a prime
the source's tail lacks. This is the definition it implements, the set of
primes dividing infinitely many terms, found by trial division, which runs
to the square root of the tail product; it is only fit for small terms.
"""

from __future__ import annotations

from knaster.natmap import _tail_product
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
