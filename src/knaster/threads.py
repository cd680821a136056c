"""Finite prefixes of points of a Knaster continuum, and map actions on them.

A thread is a coordinate list (x_0, ..., x_k) meant to satisfy
x_{i-1} = tent(n_i)(x_i) for the continuum's bonding terms n_i. The all-zero
thread is the endpoint; it is fixed by every naturally induced map and every
tower. Threads are plain data: consistency is checked by `validate`, not
enforced at construction, so broken inputs can be diagnosed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .natmap import NaturalMapSpec, _first_bad, induced_indices
from .plmap import ONE, ZERO, as_rat, tent_preimages, wave_eval
from .seqs import GroupedSeq, SeqSpec
from .tower import Tower, eval_level

BondingSeq = SeqSpec | GroupedSeq


@dataclass(frozen=True)
class Thread:
    """Coordinates (x_0, ..., x_k) over the given bonding data."""

    seq: BondingSeq
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = tuple(as_rat(x) for x in self.coords)
        if not coords:
            raise ValueError("a thread needs at least one coordinate")
        for x in coords:
            if not ZERO <= x <= ONE:
                raise ValueError(f"coordinate {x} outside [0, 1]")
        object.__setattr__(self, "coords", coords)

    @property
    def depth(self) -> int:
        return len(self.coords) - 1


def endpoint(seq: BondingSeq, k: int) -> Thread:
    """The all-zeros thread of length k+1."""
    if k < 0:
        raise ValueError("depth must be >= 0")
    return Thread(seq, (ZERO,) * (k + 1))


def validate(thread: Thread) -> int | None:
    """Least i with x_{i-1} != tent(n_i)(x_i), or None when consistent."""
    for i in range(1, len(thread.coords)):
        n = thread.seq.nth(i)
        if thread.coords[i - 1] != wave_eval(n * thread.coords[i]):
            return i
    return None


def _unchecked(seq: BondingSeq, coords: tuple[Fraction, ...]) -> Thread:
    """The Thread over coords built with no check of them."""
    thread = object.__new__(Thread)
    object.__setattr__(thread, "seq", seq)
    object.__setattr__(thread, "coords", coords)
    return thread


def extend(thread: Thread) -> list[Thread]:
    """All one-step extensions, new coordinate increasing over the preimage fan.
    A child is its parent's coordinates, checked when the parent was built,
    plus one preimage, which `tent_preimages` keeps in [0, 1]: so no child
    re-checks its prefix, and a step makes no Fraction compare per inherited
    coordinate."""
    n = thread.seq.nth(len(thread.coords))
    return [_unchecked(thread.seq, thread.coords + (x,))
            for x in tent_preimages(n, thread.coords[-1])]


def apply_natmap(spec: NaturalMapSpec, thread: Thread) -> Thread:
    """Image thread y_k = tent(i_k)(x_{j_k}) in the target continuum."""
    depth = len(spec.jseq) - 1
    if thread.depth < spec.jseq[-1]:
        raise ValueError(
            f"thread depth {thread.depth} does not reach coordinate {spec.jseq[-1]}")
    degrees = [spec.i0]
    if depth >= 1:
        values = induced_indices(spec, depth)
        if (bad := _first_bad(values)) is not None:
            raise ValueError(f"spec is incompatible at level {bad}")
        degrees += map(int, values)
    ys = tuple(wave_eval(degrees[k] * thread.coords[spec.jseq[k]])
               for k in range(depth + 1))
    return Thread(spec.target, ys)


def apply_tower(tower: Tower, thread: Thread) -> Thread:
    """Image thread y_j = f_j(x_j) in the target continuum."""
    if thread.depth > tower.depth:
        raise ValueError(
            f"tower built to depth {tower.depth}, thread has depth {thread.depth}")
    ys = tuple(eval_level(tower, j, x) for j, x in enumerate(thread.coords))
    return Thread(tower.target, ys)
