"""The triples a `knaster.plmap` walk hands on before any point is dropped.

A walk (the general `compose` walk, `_of_tent`, `_tent_of`, `tent_lift`)
ends by handing its triples to `_from_triples`, which drops a point
collinear with its neighbours. A point emitted out of place would be
hidden there when it is collinear with its neighbours, so the raw-order
tests read the first list handed on and check it directly: x must
increase strictly, and the walk's output must be the full merge of that
list, taken by `full_merge` here rather than by the library.
"""

from __future__ import annotations

from contextlib import contextmanager

from knaster import PLMap, plmap, tent


def full_merge(t) -> tuple:
    """t with every collinear run merged to its two ends: a stack pass that
    pops the last kept point while it lies on the line through the point
    before it and the next one, by the 3x3 determinant of the three."""
    merged = []
    for p in t:
        while len(merged) >= 2:
            (ax, ay, aw), (bx, by, bw), (px, py, pw) = merged[-2], merged[-1], p
            if ax * (by * pw - bw * py) - ay * (bx * pw - bw * px) + aw * (bx * py - by * px):
                break
            merged.pop()
        merged.append(p)
    return tuple(merged)


@contextmanager
def raw_triples():
    """Every list handed to `_from_triples` inside the block, in call order."""
    seen, saved = [], plmap._from_triples

    def recording(t, *rest):
        seen.append(list(t))
        return saved(t, *rest)
    plmap._from_triples = recording
    try:
        yield seen
    finally:
        plmap._from_triples = saved


def check_raw(walk, *args) -> PLMap:
    """walk(*args), after checking that the triples it hands on have x
    increasing strictly and that its output is their full merge."""
    for f in args:
        if isinstance(f, PLMap):
            tent(len(f.triples) - 1)  # cached now, so the walk's tent check builds none
    with raw_triples() as seen:
        got = walk(*args)
    raw = seen[0]
    assert all(x0 * w1 < x1 * w0 for (x0, _, w0), (x1, _, w1) in zip(raw, raw[1:])), raw
    assert got.triples == full_merge(raw)
    return got
