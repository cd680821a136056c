"""Bonding sequences and the block regrouping used by map towers.

A bonding sequence is an infinite (or declared-finite) sequence of integers
>= 2. Regrouping replaces it by products of consecutive blocks, chosen
greedily from the left so that the j-th grouped term strictly exceeds
(m_j + 2) * j, where {m_j} is the partner sequence. The inverse limit is
unchanged by regrouping; everything downstream works over the grouped terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class SequenceExhausted(ValueError):
    """A finite bonding sequence has no term at the requested index."""


@dataclass(frozen=True)
class SeqSpec:
    """A sequence of integers >= 2: constant, finite list, or eventually periodic."""

    kind: str
    n: int = 0
    items: tuple[int, ...] = ()
    prefix: tuple[int, ...] = ()
    period: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind == "constant":
            if self.n < 2:
                raise ValueError("constant bonding term must be >= 2")
        elif self.kind == "list":
            if any(v < 2 for v in self.items):
                raise ValueError("bonding terms must be >= 2")
        elif self.kind == "periodic":
            if not self.period:
                raise ValueError("periodic sequence needs a nonempty period")
            if any(v < 2 for v in self.prefix + self.period):
                raise ValueError("bonding terms must be >= 2")
        else:
            raise ValueError(f"unknown sequence kind {self.kind!r}")

    @staticmethod
    def constant(n: int) -> "SeqSpec":
        return SeqSpec(kind="constant", n=n)

    @staticmethod
    def from_list(items) -> "SeqSpec":
        return SeqSpec(kind="list", items=tuple(items))

    @staticmethod
    def periodic(prefix, period) -> "SeqSpec":
        return SeqSpec(kind="periodic", prefix=tuple(prefix), period=tuple(period))

    def nth(self, j: int) -> int:
        """The j-th term, 1-based."""
        if j < 1:
            raise ValueError("term index must be >= 1")
        if self.kind == "constant":
            return self.n
        if self.kind == "list":
            if j > len(self.items):
                raise SequenceExhausted(
                    f"finite sequence of length {len(self.items)} has no term {j}")
            return self.items[j - 1]
        if j <= len(self.prefix):
            return self.prefix[j - 1]
        return self.period[(j - 1 - len(self.prefix)) % len(self.period)]

    def prefix_product(self, j: int) -> int:
        """Product of the first j terms; 1 when j = 0."""
        if j < 0:
            raise ValueError("prefix length must be >= 0")
        return math.prod(self.nth(i) for i in range(1, j + 1))


class GroupedSeq:
    """Lazily regrouped view of a raw sequence.

    Term j is the product of the shortest remaining run of raw terms whose
    product strictly exceeds (partner.nth(j) + 2) * j. Blocks are extended on
    demand, so an instance is not for concurrent use.
    """

    def __init__(self, raw: SeqSpec, partner: SeqSpec):
        self.raw = raw
        self.partner = partner
        self._blocks: list[int] = []  # the grouped terms, products of raw blocks
        self._used = 0  # raw terms the blocks use

    def ensure(self, levels: int) -> None:
        while len(self._blocks) < levels:
            j = len(self._blocks) + 1
            bound = (self.partner.nth(j) + 2) * j
            used, product = self._used, 1
            while product <= bound:
                used += 1
                product *= self.raw.nth(used)
            self._blocks.append(product)
            self._used = used

    def nth(self, j: int) -> int:
        if j < 1:
            raise ValueError("term index must be >= 1")
        self.ensure(j)
        return self._blocks[j - 1]

    def prefix_product(self, j: int) -> int:
        """Product of grouped terms 1..j (equals the consumed raw prefix product)."""
        if j < 0:
            raise ValueError("prefix length must be >= 0")
        self.ensure(j)
        return math.prod(self._blocks[:j])


def regroup(raw: SeqSpec, partner: SeqSpec, levels: int) -> GroupedSeq:
    """Greedy minimal left-to-right regrouping, materialized to `levels` blocks."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    grouped = GroupedSeq(raw, partner)
    grouped.ensure(levels)
    return grouped
