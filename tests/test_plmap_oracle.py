"""Differential tests: the integer-triple PLMap core against the Fraction
reference kept in `ref_plmap.py`.

Coordinates draw their denominators from many distinct primes (and a few
small composites), values repeat to make constant runs, extra points are
inserted on segments so the collinear merge has work to do, and probes
sit exactly at breakpoints, 0 and 1 as well as between them.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import ref_plmap as ref
from knaster import (
    PLMap,
    compose,
    identity,
    lap,
    range_on,
    tent,
)
from knaster import plmap
from knaster.plmap import _from_triples, _of_tent, _tent_of, _triple
from knaster.serialize import plmap_from_obj
from raw_walks import check_raw

F = Fraction


def _primes(lo, hi):
    return [p for p in range(lo, hi) if p > 1 and all(p % d for d in range(2, int(p ** 0.5) + 1))]


DENOMINATORS = [1, 2, 3, 4, 6, 8, 12, 30] + _primes(2, 120) + _primes(9900, 10100)


@st.composite
def unit_rationals(draw):
    den = draw(st.sampled_from(DENOMINATORS))
    return F(draw(st.integers(min_value=0, max_value=den)), den)


@st.composite
def raw_points(draw):
    """A valid breakpoint list, possibly with collinear runs left in."""
    xs = sorted(draw(st.sets(unit_rationals().filter(lambda x: 0 < x < 1), max_size=7)))
    xs = [F(0)] + xs + [F(1)]
    ys = [draw(unit_rationals())]
    for _ in xs[1:]:
        kind = draw(st.sampled_from(["fresh", "repeat", "zero", "one"]))
        ys.append({"fresh": draw(unit_rationals()), "repeat": ys[-1],
                   "zero": F(0), "one": F(1)}[kind])
    pts = list(zip(xs, ys))
    for i in sorted(draw(st.sets(st.integers(0, len(pts) - 2), max_size=3)), reverse=True):
        (x0, y0), (x1, y1) = pts[i], pts[i + 1]
        lam = draw(st.sampled_from([F(1, 2), F(1, 3), F(7, 9973)]))
        pts.insert(i + 1, (x0 + lam * (x1 - x0), y0 + lam * (y1 - y0)))
    return pts


def both(pts):
    return PLMap(pts), ref.PLMap(pts)


def probes(f_ref, extra):
    """0, 1, every breakpoint, and the drawn extra points."""
    return sorted({F(0), F(1), *f_ref.xs, *extra})


@settings(max_examples=300, deadline=None)
@given(raw_points(), raw_points(), st.lists(unit_rationals(), max_size=4))
def test_matches_reference(pf, pg, extra):
    f, fr = both(pf)
    g, gr = both(pg)
    assert f.points == fr.points
    assert [x for x, _ in f.points] == fr.xs
    assert repr(f) == repr(fr)
    assert lap(f) == ref.lap(fr)
    xs = probes(fr, extra)
    for x in xs:
        assert f(x) == fr._eval_unchecked(x)
    for a in xs:
        for b in xs:
            if a <= b:
                assert range_on(f, a, b) == ref.range_on(fr, a, b)
    for outer, inner, outer_r, inner_r in ((f, g, fr, gr), (g, f, gr, fr), (f, f, fr, fr)):
        h, hr = check_raw(compose, outer, inner), ref.compose(outer_r, inner_r)
        assert h.points == hr.points
        assert lap(h) == ref.lap(hr)
        assert h == PLMap(hr.points) and hash(h) == hash(PLMap(hr.points))


@settings(max_examples=200, deadline=None)
@given(raw_points(), raw_points())
def test_equality_and_hash_agree(pf, pg):
    f, fr = both(pf)
    g, gr = both(pg)
    assert (f == g) == (fr == gr)
    # the same map reached by composition and by construction
    for h, hr in ((compose(identity(), f), ref.compose(ref.PLMap([(0, 0), (1, 1)]), fr)),
                  (compose(f, identity()), fr),
                  (PLMap(fr.points), fr)):
        assert h == f and hash(h) == hash(f)
        assert (h == g) == (hr == gr)
        if h == g:
            assert hash(h) == hash(g)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.fractions(min_value=F(-1, 3), max_value=F(4, 3), max_denominator=7),
                          st.fractions(min_value=F(-1, 3), max_value=F(4, 3), max_denominator=7)),
                max_size=6))
def test_construction_errors_agree(pts):
    def outcome(cls):
        try:
            return cls(pts).points
        except ValueError as err:
            return str(err)
    assert outcome(PLMap) == outcome(ref.PLMap)


def _prime_map(count, start):
    """count breakpoints whose coordinates have distinct primes near start as
    denominators, zig-zagging so that compose refines every segment."""
    primes = _primes(start, start + 20 * count)
    assert len(primes) >= 2 * count
    pts = [(F(0), F(0))]
    for i in range(1, count - 1):
        px, py = primes[2 * i], primes[2 * i + 1]
        y = F(py // 5, py) if i % 2 else F(4 * py // 5, py)
        pts.append((F(i * px // (count - 1), px), y))
    pts.append((F(1), F(1)))
    return pts


def test_compose_adversarial_denominators():
    pts = _prime_map(200, 10_000)
    f, fr = both(pts)
    assert len(f.points) == 200
    start = time.perf_counter()
    h = compose(f, f)
    elapsed = time.perf_counter() - start
    assert h.points == ref.compose(fr, fr).points
    assert elapsed < 5, f"compose took {elapsed:.2f} s"


def test_tents_match_reference():
    for m in range(1, 6):
        for n in range(1, 6):
            want = ref.compose(ref.PLMap(tent(m).points), ref.PLMap(tent(n).points))
            assert compose(tent(m), tent(n)).points == want.points


@st.composite
def fold_cases(draw):
    """m in 1..12 and a map whose values often sit on a fold k/m of tent(m),
    at 0 or at 1, or repeat: segments start and end on folds, and flat runs
    lie at 0, at 1 and on folds."""
    m = draw(st.integers(1, 12))
    xs = sorted(draw(st.sets(unit_rationals().filter(lambda x: 0 < x < 1), max_size=7)))
    xs = [F(0)] + xs + [F(1)]
    ys = []
    for _ in xs:
        kind = draw(st.sampled_from(["fresh", "fold", "repeat", "zero", "one"]))
        if kind == "fold":
            ys.append(F(draw(st.integers(0, m)), m))
        elif kind in ("zero", "one"):
            ys.append(F(kind == "one"))
        elif kind == "repeat" and ys:
            ys.append(ys[-1])
        else:
            ys.append(draw(unit_rationals()))
    return m, list(zip(xs, ys))


def _check_tent_of(m, pts):
    f, fr = both(pts)
    got = check_raw(_tent_of, m, f)
    assert got == compose(tent(m), f)
    assert got.points == ref.compose(ref.PLMap(tent(m).points), fr).points


@settings(max_examples=500, deadline=None)
@given(fold_cases())
def test_tent_of_matches_compose(case):
    _check_tent_of(*case)


def test_tent_of_long_denominator():
    d = 10 ** 4400 + 3  # 4,401 digits
    pts = [(F(0), F(1, d)), (F(1, 3), F(d - 1, d)), (F(1, 2), F(5, 12)),
           (F(2, 3), F(5, 12)), (F(3, 4), F(0)), (F(1), F(d // 7, d))]
    for m in (1, 2, 5, 12):
        _check_tent_of(m, pts)


@st.composite
def inner_tent_cases(draw):
    """n in 1..12 and a map with flat runs, values 0, 1/2 and 1, and collinear
    points left in, so that the tiles meet at 0 or 1 and merge across legs."""
    n = draw(st.integers(1, 12))
    xs = sorted(draw(st.sets(unit_rationals().filter(lambda x: 0 < x < 1), max_size=7)))
    xs = [F(0)] + xs + [F(1)]
    ys = []
    for _ in xs:
        kind = draw(st.sampled_from(["fresh", "half", "repeat", "zero", "one"]))
        if kind == "half":
            ys.append(F(1, 2))
        elif kind in ("zero", "one"):
            ys.append(F(kind == "one"))
        elif kind == "repeat" and ys:
            ys.append(ys[-1])
        else:
            ys.append(draw(unit_rationals()))
    pts = list(zip(xs, ys))
    for i in sorted(draw(st.sets(st.integers(0, len(pts) - 2), max_size=2)), reverse=True):
        (x0, y0), (x1, y1) = pts[i], pts[i + 1]
        pts.insert(i + 1, ((x0 + x1) / 2, (y0 + y1) / 2))
    return n, pts


def _check_of_tent(n, pts):
    f, fr = both(pts)
    got = check_raw(_of_tent, f, n)
    assert got == compose(f, tent(n))
    assert got.points == ref.compose(fr, ref.PLMap(tent(n).points)).points


@settings(max_examples=500, deadline=None)
@given(inner_tent_cases())
def test_of_tent_matches_compose(case):
    _check_of_tent(*case)


def test_of_tent_long_denominator():
    d = 10 ** 4400 + 3  # 4,401 digits
    pts = [(F(0), F(1, d)), (F(1, d), F(1, 2)), (F(1, 3), F(d - 1, d)), (F(1, 2), F(5, 12)),
           (F(2, 3), F(5, 12)), (F(3, 4), F(0)), (F(1), F(d // 7, d))]
    for n in (1, 2, 5, 12):
        _check_of_tent(n, pts)


# Maps at the edges of the walks' local merging: flat first and last
# segments, together and alone (the joints of f∘tent(n) there merge);
# breakpoints on the folds 1/3 and 2/3 of tent(3) and tent(6) that pass
# through, turn with unequal slopes and turn with equal ones; and constant
# maps.
EDGE_MAPS = (
    [(F(0), F(1, 3)), (F(1, 4), F(1, 3)), (F(1, 2), F(1)), (F(3, 4), F(1, 2)), (F(1), F(1, 2))],
    [(F(0), F(1, 3)), (F(1, 4), F(1, 3)), (F(1), F(1))],
    [(F(0), F(0)), (F(1, 2), F(1)), (F(1), F(1))],
    [(F(0), F(0)), (F(1, 3), F(1, 3)), (F(1, 2), F(2, 3)), (F(3, 4), F(1, 3)), (F(1), F(2, 3))],
    [(F(0), F(0)), (F(1, 3), F(2, 3)), (F(2, 3), F(0)), (F(1), F(1, 3))],
    [(F(0), F(1, 2)), (F(1), F(1, 2))],
    [(F(0), F(0)), (F(1), F(0))],
    [(F(0), F(1)), (F(1), F(1))],
)


def test_walks_at_merge_edges():
    maps = [PLMap(pts) for pts in EDGE_MAPS]
    for f, pts in zip(maps, EDGE_MAPS):
        for k in range(1, 7):
            _check_tent_of(k, pts)
            _check_of_tent(k, pts)
        for g in maps + [identity(), tent(3)]:
            for outer, inner in ((f, g), (g, f)):
                want = ref.compose(ref.PLMap(outer.points), ref.PLMap(inner.points))
                assert check_raw(compose, outer, inner).points == want.points


@contextmanager
def _counted_walks():
    """The (walk, first argument's segment count or degree, second's) of each
    tent walk run inside the block."""
    calls, saved = [], (plmap._of_tent, plmap._tent_of)

    def counting(name, walk):
        def run(a, b):
            calls.append((name, a, b))
            return walk(a, b)
        return run
    plmap._of_tent, plmap._tent_of = counting("_of_tent", saved[0]), counting("_tent_of", saved[1])
    try:
        yield calls
    finally:
        plmap._of_tent, plmap._tent_of = saved


def _tent_pts(k):
    return [(F(i, k), F(i % 2)) for i in range(k + 1)]


@st.composite
def tent_operand_cases(draw):
    """(outer, inner) with a tent on one side, on both, identity on either
    side, or a near-tent: a map of k segments through (0, 0) and (1/k, 1)
    with a later fold point moved, off 0 or 1 or sideways. Each tent is the
    cached tent(k), PLMap of its points or read from a JSON object."""
    def tent_like(k):
        how = draw(st.sampled_from(["cached", "points", "json"]))
        if how == "cached":
            return tent(k)
        if how == "points":
            return PLMap(_tent_pts(k))
        return plmap_from_obj({"breakpoints": [[str(x), str(y)] for x, y in _tent_pts(k)]})

    def near_tent():
        k = draw(st.integers(2, 12))
        pts = _tent_pts(k)
        i = draw(st.integers(2, k))
        if i < k and draw(st.booleans()):
            lam = draw(st.sampled_from([F(1, 3), F(2, 3), F(7, 9973)]))
            pts[i] = (F(i - 1, k) + lam * 2 / k, pts[i][1])
        else:
            pts[i] = (pts[i][0], draw(unit_rationals().filter(lambda y: 0 < y < 1)))
        return PLMap(pts)

    other = PLMap(draw(raw_points()))
    kind = draw(st.sampled_from(["inner", "outer", "both", "id", "near"]))
    if kind == "inner":
        pair = (other, tent_like(draw(st.integers(1, 12))))
    elif kind == "outer":
        pair = (tent_like(draw(st.integers(1, 12))), other)
    elif kind == "both":
        pair = (tent_like(draw(st.integers(1, 12))), tent_like(draw(st.integers(1, 12))))
    elif kind == "id":
        pair = (identity(), other)
    else:
        pair = (near_tent(), other)
    return pair if draw(st.booleans()) else pair[::-1]


def _tent_degree(f):
    """k when f equals tent(k), else None: read off the map's value."""
    k = len(f.points) - 1
    return k if f == PLMap(_tent_pts(k)) else None


@settings(max_examples=500, deadline=None)
@given(tent_operand_cases())
def test_compose_takes_the_tent_walks(case):
    outer, inner = case
    with _counted_walks() as calls:
        got = compose(outer, inner)
    assert got.points == ref.compose(ref.PLMap(outer.points), ref.PLMap(inner.points)).points
    # an inner tent is tiled, else an outer tent walks the inner map once,
    # else (near-tents included) the general walk runs
    k_in, k_out = _tent_degree(inner), _tent_degree(outer)
    if k_in is not None:
        assert calls == [("_of_tent", outer, k_in)]
    elif k_out is not None:
        assert calls == [("_tent_of", k_out, inner)]
    else:
        assert calls == []


BIG = [2 ** 64 + 13, 2 ** 89 - 1, 3 ** 50]  # denominators past 2^64


@st.composite
def collinear_runs(draw):
    """Breakpoints with collinear runs of 3 to 6 points, runs at either end
    included: on a segment from a to b the run adds 1 to 4 points between
    them, at positions over small or past-2^64 denominators; flat segments
    make horizontal runs."""
    den = draw(st.sampled_from([1, 2, 3, 7] + BIG))
    corners = [(F(0), F(draw(st.integers(0, den)), den))]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["fresh", "flat", "zero", "one"]))
        y = {"fresh": F(draw(st.integers(0, den)), den), "flat": corners[-1][1],
             "zero": F(0), "one": F(1)}[kind]
        corners.append((None, y))
    xs = sorted(draw(st.sets(st.integers(1, 10 ** 6 - 1), min_size=len(corners) - 2,
                             max_size=len(corners) - 2)))
    xs = [F(0)] + [F(x, 10 ** 6) for x in xs] + [F(1)]
    corners = [(x, y) for x, (_, y) in zip(xs, corners)]
    pts = [corners[0]]
    for (x0, y0), (x1, y1) in zip(corners, corners[1:]):
        run = draw(st.integers(1, 4))
        lam_den = draw(st.sampled_from([run + 1, 97] + BIG))
        lams = sorted(draw(st.sets(st.integers(1, lam_den - 1), min_size=run, max_size=run)))
        for k in lams:
            lam = F(k, lam_den)
            pts.append((x0 + lam * (x1 - x0), y0 + lam * (y1 - y0)))
        pts.append((x1, y1))
    return pts


@settings(max_examples=500, deadline=None)
@given(collinear_runs())
def test_merge_matches_fraction_merge(pts):
    want = ref.PLMap(pts).points
    assert PLMap(pts).points == want
    triples = [_triple(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in pts]
    assert _from_triples(triples, range(1, len(triples) - 1)).triples == tuple(
        _triple(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in want)


def test_merge_whole_line_and_short_inputs():
    line = [(F(k, 6), F(k, 6) / (2 ** 64 + 13)) for k in range(7)]
    assert PLMap(line).points == ref.PLMap(line).points == (line[0], line[-1])
    flat = [(F(k, 5), F(1)) for k in range(6)]
    assert PLMap(flat).points == ref.PLMap(flat).points == (flat[0], flat[-1])
    two = [(0, 0, 1), (1, 1, 1)]
    assert _from_triples(two, range(1, len(two) - 1)).triples == tuple(two)
