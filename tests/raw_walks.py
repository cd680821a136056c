"""The triples a `knaster.plmap` walk hands on before any merge.

A walk (the general `compose` walk, `_of_tent`, `_tent_of`, `tent_lift`)
ends by handing its triples to `_merge` or to `_from_triples`. A point
emitted out of place would be hidden there when it is collinear with its
neighbours, so the raw-order tests read the first list handed on and check
it directly: x must increase strictly, and the walk's output must be the
full merge of that list.
"""

from __future__ import annotations

from contextlib import contextmanager

from knaster import PLMap, plmap, tent

_merge = plmap._merge


@contextmanager
def raw_triples():
    """Every list handed to `_merge` or `_from_triples` inside the block, in
    call order."""
    seen, saved = [], (plmap._merge, plmap._from_triples)

    def recording(fn):
        def run(t, *rest):
            seen.append(list(t))
            return fn(t, *rest)
        return run
    plmap._merge, plmap._from_triples = recording(saved[0]), recording(saved[1])
    try:
        yield seen
    finally:
        plmap._merge, plmap._from_triples = saved


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
    assert got.triples == _merge(raw)
    return got
