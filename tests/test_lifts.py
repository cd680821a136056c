import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knaster import PLMap, compose, enumerate_lifts, tent, tent_preimages
from knaster.plmap import tent_branch

F = Fraction


def reflect(f: PLMap) -> PLMap:
    return PLMap([(x, 1 - y) for x, y in f.points])


def oracle_lifts(h: PLMap, m: int) -> set[PLMap]:
    """Independent exhaustive enumeration.

    A value w may follow v across a segment of h iff tent(m) maps the
    straight segment v -> w onto that piece of h, which holds exactly when
    no fold point c/m lies strictly between v and w.
    """
    xs, ys = zip(*h.points)
    folds = [F(c, m) for c in range(m + 1)]

    def step(v, y_next):
        out = []
        for w in tent_preimages(m, y_next):
            lo, hi = min(v, w), max(v, w)
            if not any(lo < c < hi for c in folds):
                out.append(w)
        return out

    done: set[PLMap] = set()
    stack = [[v0] for v0 in tent_preimages(m, ys[0])]
    while stack:
        vals = stack.pop()
        if len(vals) == len(xs):
            done.add(PLMap(list(zip(xs, vals))))
            continue
        for w in step(vals[-1], ys[len(vals)]):
            stack.append(vals + [w])
    return done


def recursive_lifts(h: PLMap, m: int, cap: int) -> list[PLMap]:
    """Reference for enumerate_lifts' output order: the recursive depth-first
    search it replaced, one call per breakpoint of h."""
    xs, ys = zip(*h.points)
    last = len(xs) - 1
    out: list[PLMap] = []

    def descend(idx, vals, direction):
        if idx == last:
            out.append(PLMap(list(zip(xs, vals))))
            return len(out) < cap
        v = vals[-1]
        y0, y1 = ys[idx], ys[idx + 1]
        if y0 != 0 and y0 != 1:
            legs = [math.floor(v * m)]
        else:
            c = int(v * m)
            if y1 == y0:
                legs = [min(c, m - 1)]
            else:
                pair = [c, c - 1] if direction > 0 else [c - 1, c]
                legs = [leg for leg in pair if 0 <= leg <= m - 1]
        for leg in legs:
            w = tent_branch(m, leg, y1)
            nd = direction if w == v else (1 if w > v else -1)
            if not descend(idx + 1, vals + [w], nd):
                return False
        return True

    for v0 in tent_preimages(m, ys[0]):
        if not descend(0, [v0], 0):
            break
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from((F(0), F(1), F(1, 3), F(1, 2), F(3, 4))), min_size=2, max_size=7),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=60))
def test_enumerate_lifts_matches_recursive_order(values, m, cap):
    h = PLMap([(F(i, len(values) - 1), y) for i, y in enumerate(values)])
    assert enumerate_lifts(h, m, cap) == recursive_lifts(h, m, cap)


def test_tent6_through_two_contains_both_named_lifts():
    lifts = enumerate_lifts(tent(6), 2, 10)
    assert len(lifts) == 10
    assert tent(3) in lifts
    assert reflect(tent(3)) in lifts
    for f in lifts:
        assert compose(tent(2), f) == tent(6)


def test_monotone_lift_comes_first():
    assert enumerate_lifts(tent(6), 2, 3)[0] == tent(3)
    assert enumerate_lifts(tent(15), 3, 1)[0] == tent(5)
    assert enumerate_lifts(tent(8), 4, 1)[0] == tent(2)


def test_tent7_three_lifts():
    lifts = enumerate_lifts(tent(7), 3, 3)
    assert len(lifts) == 3
    assert len(set(lifts)) == 3
    for f in lifts:
        assert compose(tent(3), f) == tent(7)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("maker", [lambda: tent(6), lambda: tent(7)])
def test_lift_sets_match_oracle(m, maker):
    h = maker()
    expected = oracle_lifts(h, m)
    got = enumerate_lifts(h, m, 10 ** 6)
    assert len(got) == len(set(got)) == len(expected)
    assert set(got) == expected


def test_lift_set_matches_oracle_f1star(f1_star):
    for m in (2, 3):
        expected = oracle_lifts(f1_star, m)
        got = enumerate_lifts(f1_star, m, 10 ** 6)
        assert set(got) == expected
        for f in got:
            assert compose(tent(m), f) == f1_star


def test_cap_truncates():
    total = len(enumerate_lifts(tent(6), 2, 10 ** 6))
    assert total == 16
    for cap in (1, 5, 16, 40):
        assert len(enumerate_lifts(tent(6), 2, cap)) == min(cap, total)


def test_m_one_returns_h(f1_star):
    for h in (tent(4), f1_star):
        assert enumerate_lifts(h, 1, 5) == [h]


def test_constant_map_lifts():
    h = PLMap([(0, F(1, 3)), (1, F(1, 3))])
    lifts = enumerate_lifts(h, 3, 10)
    assert [f.points[0][1] for f in lifts] == tent_preimages(3, F(1, 3))
    for f in lifts:
        assert compose(tent(3), f) == h


def test_flat_run_at_extreme_height():
    # a plateau at height 1 pins the lift to the fold for its whole length,
    # and branching resumes only when h moves away
    h = PLMap([(0, 0), (F(1, 4), 1), (F(1, 2), 1), (1, 0)])
    got = enumerate_lifts(h, 2, 100)
    assert set(got) == oracle_lifts(h, 2)
    assert len(got) == 4
    for f in got:
        assert compose(tent(2), f) == h
        assert f(F(1, 4)) == f(F(3, 8)) == f(F(1, 2)) == F(1, 2)

    flat_zero = PLMap([(0, 1), (F(1, 4), 0), (F(3, 4), 0), (1, 1)])
    got = enumerate_lifts(flat_zero, 3, 100)
    assert set(got) == oracle_lifts(flat_zero, 3)
    for f in got:
        assert compose(tent(3), f) == flat_zero


def test_deterministic():
    assert enumerate_lifts(tent(6), 2, 8) == enumerate_lifts(tent(6), 2, 8)


def test_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_lifts(tent(6), 0, 3)
    with pytest.raises(ValueError):
        enumerate_lifts(tent(6), 2, 0)
