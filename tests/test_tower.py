import copy
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knaster
import ref_plmap
import ref_range
import ref_tower
from knaster import (
    LapBudgetError,
    LiftSpec,
    PLMap,
    SeqSpec,
    build_tower,
    check_conditions,
    check_level_conditions,
    commutes_pointwise,
    compose,
    eval_level,
    identity,
    lap,
    construct_lift,
    level_range,
    materialize_level,
    range_on,
    tent,
)
from knaster.cli import parse_seq
from knaster.tower import _branch, _switch

F = Fraction
c2 = SeqSpec.constant(2)

T_GRID = (F(0), F(1, 3), F(1, 2), F(1))


def b_of(lvl):
    """The level's leftmost 1-preimage, reduced."""
    return F(lvl.b_num, lvl.b_den)


# --------------------------------------------------------- level slots

def slot(t, j):
    """The slot build_tower gives level j of t's tower."""
    return build_tower(c2, c2, t, j).level(j).slot


def test_slot_index_examples():
    assert slot(F(2, 5), 5) == 2
    assert slot(F(1), 3) == 2
    assert slot(F(1, 3), 3) == 1
    assert slot(F(0), 9) == 0


def test_slot_index_membership():
    rng = random.Random(1)
    for _ in range(30):
        t = F(rng.randint(0, 840), 840)
        for lvl in build_tower(c2, c2, t, 40).levels:
            i, j = lvl.slot, lvl.j
            assert 0 <= i < j
            assert F(i, j) <= t <= F(i + 1, j)


def test_slot_index_rejects():
    with pytest.raises(ValueError):
        build_tower(c2, c2, F(3, 2), 4)
    with pytest.raises(ValueError):
        build_tower(c2, c2, F(1, 2), 0).level(0)  # the identity has no slot


# ---------------------------------------------------------- lift kernel

def test_lift_kernel_worked_example(f1_star, f1_star_expected):
    assert f1_star == f1_star_expected
    assert compose(tent(3), f1_star) == tent(7)


def test_lift_kernel_m1_collapses():
    f1 = construct_lift(LiftSpec(m=1, n=2, q=1, i=0, f0=identity()))
    assert f1 == tent(2)


def test_lift_kernel_second_worked_example():
    f1 = construct_lift(LiftSpec(m=2, n=8, q=2, i=1, f0=identity()))
    expect = PLMap([(0, 0), (F(1, 8), F(1, 2)), (F(2, 8), 0), (F(3, 8), F(1, 2)),
                    (F(4, 8), 0), (F(5, 8), F(1, 2)), (F(6, 8), 1),
                    (F(7, 8), F(1, 2)), (1, 1)])
    assert f1 == expect
    rep = check_conditions(f1, LiftSpec(m=2, n=8, q=2, i=1, f0=identity()))
    assert rep.all_ok


def test_lift_kernel_preconditions():
    # fold window [5/13, 9/13] does not fit inside [1/3, 2/3]
    with pytest.raises(ValueError):
        construct_lift(LiftSpec(m=3, n=13, q=3, i=1, f0=identity()))
    with pytest.raises(ValueError):
        construct_lift(LiftSpec(m=2, n=9, q=2, i=2, f0=identity()))
    with pytest.raises(ValueError):
        construct_lift(LiftSpec(m=0, n=9, q=2, i=1, f0=identity()))
    # f0 must reach 0 and 1: the lift turns where f0 first does
    for not_onto in (PLMap([(0, 0), (1, F(1, 2))]), PLMap([(0, F(1, 2)), (1, 1)])):
        with pytest.raises(ValueError, match="onto"):
            construct_lift(LiftSpec(m=2, n=8, q=1, i=0, f0=not_onto))


def test_lift_kernel_window_fit_beyond_paper_bound():
    # (m+2)q > n but the fold window still fits: the construction goes
    # through and every conclusion holds
    spec = LiftSpec(m=3, n=14, q=3, i=0, f0=identity())
    assert check_conditions(construct_lift(spec), spec).all_ok


def test_lift_kernel_deterministic():
    spec = LiftSpec(m=4, n=30, q=3, i=1, f0=tent(2))
    assert construct_lift(spec) == construct_lift(spec)


def test_check_conditions_tamper(f1_star):
    spec = LiftSpec(m=3, n=7, q=1, i=0, f0=identity())
    pts = list(f1_star.points)
    pts[2] = (pts[2][0], F(1, 2))  # bend one breakpoint
    rep = check_conditions(PLMap(pts), spec)
    assert rep.commutes is False
    assert not rep.all_ok


def test_check_conditions_nudged_breakpoint():
    # each value moved by 1/997 toward the middle: still a map, no longer a lift
    for spec in (LiftSpec(m=3, n=7, q=1, i=0, f0=identity()),
                 LiftSpec(m=4, n=30, q=3, i=1, f0=tent(2))):
        pts = list(construct_lift(spec).points)
        for k, (x, y) in enumerate(pts):
            nudged = pts[:k] + [(x, y + F(1, 997) if y < F(1, 2) else y - F(1, 997))] + pts[k + 1:]
            assert check_conditions(PLMap(nudged), spec).commutes is False, (spec, k)


def test_check_conditions_composes_once(monkeypatch):
    calls = []
    for name in ("_of_tent", "_tent_of"):
        walk = getattr(knaster.plmap, name)

        def counting(a, b, name=name, walk=walk):
            calls.append((name, a, b))
            return walk(a, b)
        monkeypatch.setattr(knaster.plmap, name, counting)

    # condition 2 is compose(f0, tent(n)) against compose(tent(m), f1): each
    # side takes its tent walk once, so the general walk never runs
    spec = LiftSpec(m=4, n=30, q=3, i=1, f0=tent(2))
    f1 = construct_lift(spec)
    assert check_conditions(f1, spec).all_ok
    assert calls == [("_of_tent", tent(2), 30), ("_tent_of", 4, f1)]


def test_check_conditions_degenerate_m1():
    spec = LiftSpec(m=1, n=7, q=1, i=0, f0=identity())
    rep = check_conditions(tent(7), spec)
    assert rep.all_ok  # bounds 1/m = 1 and (m-1)/m = 0 make 3 and 5 vacuous


# -------------------------------------------------------------- towers

def test_build_tower_desk_level1():
    tower = build_tower(c2, c2, F(0), 1)
    lvl = tower.level(1)
    assert (lvl.n, lvl.m, lvl.slot, lvl.k) == (8, 2, 0, 0)
    # level 1 folds over the identity: odd fold points map to b_prev = 1
    folds = ref_tower.fold_points(lvl.n, lvl.k, lvl.m, F(0), F(1))
    assert folds == (F(0), F(1, 8), F(1, 4))
    assert [eval_level(tower, 1, t) for t in folds] == [F(0), F(1, 2), F(1)]


def test_build_tower_t1_slots():
    tower = build_tower(c2, c2, F(1), 5)
    assert [lvl.slot for lvl in tower.levels] == [0, 1, 2, 3, 4]


def test_level_zero_is_identity():
    tower = build_tower(c2, c2, F(1, 3), 3)
    for x in (F(0), F(2, 7), F(1)):
        assert eval_level(tower, 0, x) == x
    assert materialize_level(tower, 0) == identity()


def test_eval_level_desk_example():
    tower = build_tower(c2, c2, F(0), 1)
    assert eval_level(tower, 1, F(1, 8)) == F(1, 2)


def test_eval_level_zero_cascade():
    for t in T_GRID:
        tower = build_tower(c2, c2, t, 7)
        for j in range(8):
            assert eval_level(tower, j, F(0)) == 0


@pytest.mark.parametrize("t", T_GRID)
def test_lazy_matches_materialized(t):
    tower = build_tower(c2, c2, t, 4)
    rng = random.Random(2718)
    for j in range(5):
        f = materialize_level(tower, j)
        for _ in range(100):
            x = F(rng.randint(0, 991), 991)
            assert eval_level(tower, j, x) == f(x)
        assert eval_level(tower, j, F(1)) == f(F(1))


@pytest.mark.parametrize("t", T_GRID)
def test_tracked_preimages_match_materialized(t):
    tower = build_tower(c2, c2, t, 4)
    maps = [materialize_level(tower, j) for j in range(5)]
    for j in range(1, 5):
        f = maps[j]
        lvl = tower.level(j)
        assert ref_plmap.leftmost_preimage(f, 1) == b_of(lvl)
        # next level consumed exactly these: its fold points derived from
        # that preimage are where f_{j+1} takes the values lam/m
        if j < 4:
            nxt = tower.level(j + 1)
            folds = ref_tower.fold_points(nxt.n, nxt.k, nxt.m, F(0), b_of(lvl))
            assert [maps[j + 1](x) for x in folds] == \
                [F(lam, nxt.m) for lam in range(nxt.m + 1)]


def test_tower_matches_lift_kernel():
    # materializing level j equals running the kernel on the materialized f_{j-1}
    tower = build_tower(c2, c2, F(1, 3), 3)
    prev = identity()
    for j in range(1, 4):
        lvl = tower.level(j)
        via_kernel = construct_lift(
            LiftSpec(m=lvl.m, n=lvl.n, q=j, i=lvl.slot, f0=prev))
        assert materialize_level(tower, j) == via_kernel
        prev = via_kernel


def test_commuting_squares_exact_small():
    for t in (F(0), F(2, 3)):
        tower = build_tower(c2, c2, t, 3)
        for j in range(1, 4):
            lvl = tower.level(j)
            lhs = compose(materialize_level(tower, j - 1), tent(lvl.n))
            rhs = compose(tent(lvl.m), materialize_level(tower, j))
            assert lhs == rhs


def test_commutes_pointwise_deep():
    tower = build_tower(c2, c2, F(1, 2), 9)
    rng = random.Random(5)
    for j in (8, 9):
        for _ in range(25):
            assert commutes_pointwise(tower, j, F(rng.randint(0, 1009), 1009))


@pytest.mark.parametrize("t", T_GRID)
def test_level_conditions(t):
    tower = build_tower(c2, c2, t, 7)
    for j in range(1, 8):
        rep = check_level_conditions(tower, j)
        assert rep.all_ok, (t, j, rep.as_dict())


def test_level_range_matches_materialized():
    tower = build_tower(c2, c2, F(1, 3), 3)
    rng = random.Random(9)
    for j in range(1, 4):
        f = materialize_level(tower, j)
        for _ in range(40):
            a = F(rng.randint(0, 500), 500)
            b = F(rng.randint(0, 500), 500)
            if a > b:
                a, b = b, a
            assert level_range(tower, j, a, b) == range_on(f, a, b)


RANGE_PAIRS = (("const:2", "const:2"), ("const:3", "const:2"), ("const:2", "const:3"),
               ("periodic:3|2,5", "periodic:2|2,3"))


@lru_cache(maxsize=None)
def small_tower(pair, t):
    """A depth-3 tower with its levels materialized (shared across examples)."""
    tower = build_tower(parse_seq(pair[0]), parse_seq(pair[1]), t, 3)
    return tower, [materialize_level(tower, j) for j in range(4)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RANGE_PAIRS),
       st.fractions(min_value=0, max_value=1, max_denominator=12),
       st.integers(min_value=0, max_value=3),
       st.data())
def test_level_range_differential(pair, t, j, data):
    tower, maps = small_tower(pair, t)
    # endpoints: arbitrary rationals, 0 and 1, fold points t_lam and tent folds k/n_j
    special = [F(0), F(1)]
    if j:
        lvl = tower.level(j)
        b_prev = b_of(tower.level(j - 1)) if j > 1 else F(1)
        special += list(ref_tower.fold_points(lvl.n, lvl.k, lvl.m, F(0), b_prev))
        special += [F(k, lvl.n) for k in range(lvl.n + 1)]
    point = st.one_of(st.fractions(min_value=0, max_value=1, max_denominator=1000),
                      st.sampled_from(special))
    a = data.draw(point)
    b = data.draw(st.one_of(st.just(a), point))  # lo == hi included
    a, b = min(a, b), max(a, b)
    assert level_range(tower, j, a, b) == range_on(maps[j], a, b)


@lru_cache(maxsize=None)
def deep_tower(target, t):
    """A depth-60 tower, built once and shared across examples."""
    return build_tower(c2, parse_seq(target), t, 60)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("const:2", "const:3", "const:5")),
       st.fractions(min_value=0, max_value=1, max_denominator=12),
       st.integers(min_value=1, max_value=60),
       st.data())
def test_level_range_deep_differential(target, t, j, data):
    # the two single-extremum descents against the all-branch walk-up, far
    # past the levels that can be materialized
    tower = deep_tower(target, t)
    lvl = tower.level(j)
    b_prev = b_of(tower.level(j - 1)) if j > 1 else F(1)
    special = [F(0), F(1), F(lvl.slot, j), F(lvl.slot + 1, j),
               *ref_tower.fold_points(lvl.n, lvl.k, lvl.m, F(0), b_prev)]
    point = st.one_of(st.sampled_from(special),
                      st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6))
    a = data.draw(point)
    # [a, a + 10**-9] widens n_j-fold a level, so both integer ends descend
    # several levels (about 4.5 on average) before a whole tent leg lies inside
    b = data.draw(st.one_of(st.just(a), point, st.just(min(a + F(1, 10 ** 9), F(1)))))
    a, b = min(a, b), max(a, b)
    assert level_range(tower, j, a, b) == ref_range.level_range(tower, j, a, b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("const:2", "const:3", "periodic:2|3,2")),
       st.fractions(min_value=0, max_value=1, max_denominator=12))
def test_tracked_preimages_differential(target, t):
    # the three targets give both parities of m, of k and of c = k + m - 1
    # within levels 1-3, so every leg choice in build_tower runs
    tower, maps = small_tower(("const:2", target), t)
    for j in range(1, 4):
        lvl = tower.level(j)
        assert ref_plmap.leftmost_preimage(maps[j], 1) == b_of(lvl)


def test_level_range_deep_no_recursion_error():
    tower = build_tower(c2, c2, F(1, 3), 1200)
    lvl = tower.level(1200)
    win_lo = F(lvl.slot, 1200)
    assert level_range(tower, 1200, F(0), F(1, 2)) == (F(0), F(1))
    assert level_range(tower, 1200, F(0), win_lo)[1] <= F(1, lvl.m)
    x = F(2, 7)
    v = eval_level(tower, 1200, x)
    assert level_range(tower, 1200, x, x) == (v, v)


def test_level_range_point_descends_once(monkeypatch):
    tower = build_tower(c2, c2, F(1, 3), 6)
    extreme, calls = knaster.tower._extreme, []

    def counted(*args):
        calls.append(args)
        return extreme(*args)

    monkeypatch.setattr(knaster.tower, "_extreme", counted)
    for j, x in ((6, F(2, 7)), (5, F(0)), (6, F(1)), (3, F(1, 3))):
        v = eval_level(tower, j, x)
        calls.clear()
        assert level_range(tower, j, x, x) == (v, v)
        assert len(calls) == 1, (j, x)
    calls.clear()
    assert level_range(tower, 6, F(1, 5), F(2, 5)) == ref_range.level_range(
        tower, 6, F(1, 5), F(2, 5))
    assert len(calls) == 2
    # slot 0 = j - 1 at level 1: [0, 0] and [1, 1] are points, [0, 1] is not,
    # and f_1(0) is one more descent
    calls.clear()
    assert check_level_conditions(build_tower(c2, c2, F(0), 1), 1).all_ok
    assert len(calls) == 5


def test_level_conditions_every_level_depth_1000():
    # about 0.5-0.6 s on a 2-vCPU host (0.6-0.65 s with ranges descending on
    # Fractions), 3.8 s when eval_level reduced a Fraction per level; a query
    # that recursed over every tent fold needed 2.9 s for one range at depth 100
    tower = build_tower(c2, c2, F(1, 3), 1000)
    t0 = time.perf_counter()
    for j in range(1, 1001):
        assert check_level_conditions(tower, j).all_ok, j
    assert time.perf_counter() - t0 < 15.0


# targets with m in {2, 3, 5}, so switch points t_lam of both parities of lam
# lie on even and on odd tent legs (checked below)
LEG_PAIRS = (("const:2", "const:2"), ("const:2", "const:3"), ("const:3", "const:5"),
             ("periodic:3|2,5", "periodic:2|2,3"), ("const:2", "periodic:5|3,2"))


@pytest.mark.parametrize("pair", LEG_PAIRS)
@pytest.mark.parametrize("t", (F(0), F(1, 3), F(1, 2), F(5, 8), F(1)))
def test_leg_arithmetic_matches_stored_folds(pair, t):
    tower = build_tower(parse_seq(pair[0]), parse_seq(pair[1]), t, 5)
    rng = random.Random(f"{pair} {t}")
    eps = F(1, 10 ** 9)
    b_prev, below = F(1), None
    for lvl in tower.levels:
        n = lvl.n
        folds = ref_range.fold_points(lvl, b_prev)
        bounds = folds[1:lvl.m]
        points = [*folds, *(F(c, n) for c in range(n + 1)),
                  *(F(rng.randint(0, 10 ** 6), 10 ** 6) for _ in range(40))]
        points += [x + d for x in folds for d in (-eps, eps) if 0 <= x + d <= 1]
        for x in points:
            lam = _branch(lvl, below, math.floor(n * x), x.numerator, x.denominator)
            assert lam == bisect_right(bounds, x), (lvl.j, x)
        pairs = [(x, x) for x in points] + [sorted(rng.sample(points, 2)) for _ in range(300)]
        pairs += [(lo, hi) for lo in folds for hi in folds if lo <= hi]
        for lo, hi in pairs:
            assert level_range(tower, lvl.j, lo, hi) == \
                ref_range.level_range(tower, lvl.j, lo, hi), (lvl.j, lo, hi)
        b_prev, below = b_of(lvl), lvl


def test_leg_pairs_cover_targets_and_parities():
    seen = set()
    for pair in LEG_PAIRS:
        for t in (F(0), F(1, 3), F(1, 2), F(5, 8), F(1)):
            for lvl in build_tower(parse_seq(pair[0]), parse_seq(pair[1]), t, 5).levels:
                seen |= {(lvl.m, (lvl.k + lam) % 2, lam % 2) for lam in range(1, lvl.m)}
    assert {m for m, _, _ in seen} == {2, 3, 5}
    assert {(leg, lam) for _, leg, lam in seen} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_wide_target_build_is_linear():
    # m_j = 1000 at every level: a build that stored all m_j + 1 fold points
    # per level took about 14 s and 236 MiB at depth 400 on a 2-vCPU host.
    # A fresh interpreter times one build and traces the allocations of another.
    code = (
        "import time, tracemalloc\n"
        "from knaster import SeqSpec, build_tower\n"
        "build = lambda: build_tower(SeqSpec.constant(2), SeqSpec.constant(1000), '1/3', 400)\n"
        "t0 = time.perf_counter()\n"
        "build()\n"
        "elapsed = time.perf_counter() - t0\n"
        "tracemalloc.start()\n"
        "build()\n"
        "print(elapsed, tracemalloc.get_traced_memory()[1] / 2 ** 20)\n"
    )
    src = os.path.dirname(os.path.dirname(knaster.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120).stdout
    elapsed, peak_mib = map(float, out.split())
    assert elapsed < 1.0, f"depth-400 build took {elapsed:.2f} s"
    assert peak_mib < 50, f"depth-400 build allocated up to {peak_mib:.0f} MiB"


def test_wide_target_level_conditions():
    # m_j = 1000 at every level: a range walk that split each interval at
    # every switch point took about 18 s for level 400 on a 2-vCPU host
    tower = build_tower(c2, SeqSpec.constant(1000), F(1, 3), 400)
    t0 = time.perf_counter()
    assert check_level_conditions(tower, 400).all_ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"level-400 conditions took {elapsed:.2f} s"


def test_tower_is_onto_at_every_level():
    tower = build_tower(c2, c2, F(5, 8), 7)
    for j in range(1, 8):
        assert level_range(tower, j, F(0), F(1)) == (F(0), F(1))


def test_materialize_budget():
    tower = build_tower(c2, c2, F(0), 40)
    with pytest.raises(LapBudgetError):
        materialize_level(tower, 40, 10 ** 6)
    # j = 4 estimate is 8*16*16*32 = 65536
    f4 = materialize_level(tower, 4, 10 ** 5)
    assert lap(f4) <= 65536


def test_materialize_level_keeps_nothing():
    tower = build_tower(c2, c2, F(1, 3), 4)

    def attrs():  # containers copied, so that growth in place shows
        return {k: copy.copy(v) if isinstance(v, (dict, list, set)) else v
                for k, v in vars(tower).items()}

    before = attrs()
    maps = [materialize_level(tower, j) for j in (4, 3, 4)]
    assert attrs() == before
    fresh = {j: materialize_level(build_tower(c2, c2, F(1, 3), 4), j) for j in (3, 4)}
    assert maps == [fresh[4], fresh[3], fresh[4]]


def test_materialize_level_holds_one_map():
    # each lift reads f_3 tiled n_4 = 32 times, so no f_3∘tent(32) of the
    # size of f_4 (56,800 breakpoints) is built beside it
    tower = build_tower(c2, c2, F(1, 3), 4)
    tracemalloc.start()
    try:
        f4 = materialize_level(tower, 4)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(f4.points) == 56800
    assert peak < 1.5 * size, f"peak {peak} bytes for a map of {size} bytes"


def test_materialize_desk_j2():
    tower = build_tower(c2, c2, F(0), 2)
    f2 = materialize_level(tower, 2, 10 ** 4)
    assert lap(f2) <= 128
    lvl = tower.level(2)
    lhs = compose(materialize_level(tower, 1), tent(lvl.n))
    assert lhs == compose(tent(lvl.m), f2)


def test_build_tower_validations():
    with pytest.raises(ValueError):
        build_tower(c2, c2, F(3, 2), 3)
    with pytest.raises(ValueError):
        build_tower(c2, c2, F(1, 2), -1)
    tower = build_tower(c2, c2, F(1, 2), 2)
    with pytest.raises(ValueError):
        eval_level(tower, 3, F(1, 2))
    with pytest.raises(ValueError):
        eval_level(tower, 1, F(7, 2))


def test_level_index_errors():
    # f_j exists for 0 <= j <= depth; f_0 is the identity, so only queries
    # that need a lift's n, m or slot refuse level 0
    tower = build_tower(c2, c2, F(1, 2), 2)
    for j in (-1, 3):
        for query in (lambda: eval_level(tower, j, F(1, 2)),
                      lambda: level_range(tower, j, F(0), F(1)),
                      lambda: materialize_level(tower, j),
                      lambda: tower.level(j),
                      lambda: commutes_pointwise(tower, j, F(1, 2)),
                      lambda: check_level_conditions(tower, j)):
            with pytest.raises(ValueError, match=rf"level {j} not built \(depth 2\)"):
                query()
    for query in (lambda: tower.level(0),
                  lambda: commutes_pointwise(tower, 0, F(1, 2)),
                  lambda: check_level_conditions(tower, 0)):
        with pytest.raises(ValueError, match="level 0 is the identity, not a lift"):
            query()


def test_nonbinary_sequences():
    # towers over mixed sequences, conditions still exact
    raw = SeqSpec.periodic([3], [2, 5])
    target = SeqSpec.periodic([2], [3])
    tower = build_tower(raw, target, F(2, 7), 5)
    for j in range(1, 6):
        assert check_level_conditions(tower, j).all_ok
    for j in range(1, 4):
        f = materialize_level(tower, j, 10 ** 5)
        rng = random.Random(31)
        for _ in range(40):
            x = F(rng.randint(0, 419), 420)
            assert eval_level(tower, j, x) == f(x)
        lvl = tower.level(j)
        assert ref_plmap.leftmost_preimage(f, 1) == b_of(lvl)


# ------------------------------------------------------------ integer steps vs the Fraction oracle

ORACLE_PAIRS = (("const:2", "const:2"), ("const:2", "const:1000"),
                ("periodic:3|2,5", "periodic:2|2,3"), ("const:3", "const:2"))
ORACLE_DEPTH = 300


@lru_cache(maxsize=None)
def oracle_towers(pair, t):
    """The same depth-300 tower from build_tower and from the oracle, their
    levels compared once."""
    raw, target = parse_seq(pair[0]), parse_seq(pair[1])
    tower = build_tower(raw, target, t, ORACLE_DEPTH)
    ref = ref_tower.build_tower(raw, target, t, ORACLE_DEPTH)
    fields = ("j", "n", "m", "slot", "k")
    assert [(*(getattr(lvl, f) for f in fields), b_of(lvl)) for lvl in tower.levels] == \
        [(*(getattr(lvl, f) for f in fields), b_of(lvl)) for lvl in ref.levels]
    # the tracked preimage is kept unreduced over n_1*...*n_j
    for lvl in tower.levels:
        assert lvl.b_den == tower.grouped.prefix_product(lvl.j), lvl.j
    return tower, ref


prime_t = st.builds(lambda p, a: F(a % (p + 1), p),
                    st.sampled_from((2, 3, 5, 7, 11, 13, 101, 997, 10007)),
                    st.integers(min_value=0, max_value=10 ** 6))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_PAIRS), prime_t,
       st.integers(min_value=0, max_value=ORACLE_DEPTH), st.data())
def test_tower_matches_fraction_oracle(pair, t, j, data):
    tower, ref = oracle_towers(pair, t)
    # points: 0 and 1, tent folds c/n_j, switch points t_lam, random rationals
    special = [F(0), F(1)]
    if j:
        lvl = tower.level(j)
        below = tower.level(j - 1) if j > 1 else None
        special += [F(data.draw(st.integers(0, lvl.n)), lvl.n),
                    *(F(*_switch(lvl, below, lam)) for lam in range(min(lvl.m, 4)))]
        special.append(F(*_switch(lvl, below, lvl.m - 1)))
    point = st.one_of(st.sampled_from(special),
                      st.fractions(min_value=0, max_value=1, max_denominator=10 ** 9))
    for x in data.draw(st.lists(point, min_size=1, max_size=4)):
        assert eval_level(tower, j, x) == ref_tower.eval_level(ref, j, x), (j, x)


@pytest.mark.parametrize("pair", ORACLE_PAIRS)
@pytest.mark.parametrize("t", (F(1, 3), F(31, 97)))
def test_branch_matches_switch_points_deep(pair, t):
    # test_leg_arithmetic_matches_stored_folds stops at depth 5; here the
    # level below's b_den, which a switch point's denominator carries, runs
    # to thousands of bits
    tower, _ = oracle_towers(pair, t)
    assert tower.level(ORACLE_DEPTH).b_den.bit_length() > 1000
    rng = random.Random(f"{pair} {t}")
    eps = F(1, 10 ** 12)
    for j in (1, 2, 50, 150, ORACLE_DEPTH):
        lvl = tower.level(j)
        below = tower.level(j - 1) if j > 1 else None
        n, k, m = lvl.n, lvl.k, lvl.m
        bounds = ref_range.fold_points(lvl, b_of(below) if below else F(1))[1:m]
        points = [x + d for x in bounds for d in (-eps, 0, eps)]
        points += [F(c, n) for c in range(k, k + m + 1)]
        # random points on the turning legs k+1 .. k+m-1
        points += [F(c * 10 ** 6 + rng.randint(0, 10 ** 6), n * 10 ** 6)
                   for c in (rng.randint(k + 1, k + m - 1) for _ in range(200))]
        for x in points:
            lam = _branch(lvl, below, math.floor(n * x), x.numerator, x.denominator)
            assert lam == bisect_right(bounds, x), (j, x)


FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__")


@pytest.mark.parametrize("pair", (("const:2", "const:2"), ("periodic:3|2,5", "periodic:2|2,3")))
def test_tower_does_no_fraction_arithmetic(pair, monkeypatch):
    # building level by level through Fraction steps made about 4 operator
    # calls a level; the integer build and descent make none
    raw, target = parse_seq(pair[0]), parse_seq(pair[1])
    tower = build_tower(raw, target, F(1, 3), 200)
    eps = F(1, 10 ** 12)
    queries = []  # switch points, and intervals around, ending and starting on them
    for j in (1, 2, 3, 50, 200):
        lvl = tower.level(j)
        below = tower.level(j - 1) if j > 1 else None
        for lam in range(1, lvl.m):
            x = F(*_switch(lvl, below, lam))
            queries += [(j, x, x), (j, x - eps, x + eps), (j, F(0), x), (j, x, F(1))]
    calls, switches = [], []
    for name in FRACTION_OPS:
        monkeypatch.setattr(F, name, lambda *args, _op=getattr(F, name), _name=name:
                            calls.append(_name) or _op(*args))
    switch = knaster.tower._switch
    monkeypatch.setattr(knaster.tower, "_switch",
                        lambda *args: switches.append(args) or switch(*args))
    built = build_tower(raw, target, F(1, 3), 200)
    ranges = [level_range(tower, j, lo, hi) for j, lo, hi in queries]
    monkeypatch.undo()
    assert calls == []
    assert switches, "no interval was cut at a switch point"
    assert built.levels == tower.levels
    assert ranges == [ref_range.level_range(tower, j, lo, hi) for j, lo, hi in queries]


def test_construct_lift_does_no_fraction_arithmetic(f1_star, monkeypatch):
    # a lift turns from branch to branch at the index of f0's first zero or
    # first one; the Fraction fold points that located the turns cost an
    # addition and a division each
    starts_at_one = PLMap([(0, 1), (F(1, 3), F(1, 4)), (F(2, 3), F(3, 4)), (1, 0)])
    specs = [LiftSpec(m=m, n=n, q=q, i=i, f0=f0)
             for f0 in (identity(), tent(2), f1_star, starts_at_one)
             for m in range(1, 7) for q in range(1, 4) for i in range(q)
             for n in ((m + 2) * q, (m + 2) * q + 5)]
    tower = build_tower(c2, c2, F(13, 37), 3)
    calls = []
    for name in FRACTION_OPS:
        monkeypatch.setattr(F, name, lambda *args, _op=getattr(F, name), _name=name:
                            calls.append(_name) or _op(*args))
    lifts = [construct_lift(spec) for spec in specs]
    f3 = materialize_level(tower, 3)
    monkeypatch.undo()
    assert calls == []
    assert all(check_conditions(f1, spec).all_ok for f1, spec in zip(lifts, specs))
    lvl = tower.level(3)
    assert compose(materialize_level(tower, 2), tent(lvl.n)) == compose(tent(lvl.m), f3)


def _float_from_fresh_interpreter(code: str) -> float:
    """The number that code prints, run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(knaster.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=300).stdout
    return float(out)


def test_deep_build_has_no_big_gcd():
    # a step that reduces one Fraction from two integers as long as the
    # tracked preimages pays their gcd: about 7.7 s at depth 4000 on a 2-vCPU
    # host, 0.25 s with every gcd on a small operand
    elapsed = _float_from_fresh_interpreter(
        "import time\n"
        "from knaster import SeqSpec, build_tower\n"
        "t0 = time.perf_counter()\n"
        "build_tower(SeqSpec.constant(2), SeqSpec.constant(2), '1/3', 4000)\n"
        "print(time.perf_counter() - t0)\n")
    assert elapsed < 2.0, f"depth-4000 build took {elapsed:.2f} s"


def test_deep_eval_has_no_big_gcd():
    # f_1500 on a const:1000 target: 0.37 s a point with a reduced Fraction
    # per level, about 3 ms with the integer descent and climb
    elapsed = _float_from_fresh_interpreter(
        "import time\n"
        "from knaster import SeqSpec, build_tower, eval_level\n"
        "tower = build_tower(SeqSpec.constant(2), SeqSpec.constant(1000), '1/3', 1500)\n"
        "points = ['0', '1', '2/7', '1/3', '999/1000', '123456/1000003']\n"
        "t0 = time.perf_counter()\n"
        "for x in points:\n"
        "    eval_level(tower, 1500, x)\n"
        "print((time.perf_counter() - t0) / len(points))\n")
    assert elapsed < 0.05, f"f_1500 took {elapsed:.3f} s a point"


def test_deep_range_climbs_once():
    # ranges at level 3000 on a const:1000 target: about 10 ms each on a
    # 2-vCPU host with a reduced Fraction per level on the way up, about
    # 0.2 ms with one unreduced climb, about 0.1 ms with integer ends
    elapsed = _float_from_fresh_interpreter(
        "import time\n"
        "from fractions import Fraction as F\n"
        "from knaster import SeqSpec, build_tower, level_range\n"
        "tower = build_tower(SeqSpec.constant(2), SeqSpec.constant(1000), '1/3', 3000)\n"
        "lvl = tower.level(3000)\n"
        "lo, hi = F(lvl.slot, 3000), F(lvl.slot + 1, 3000)\n"
        "ranges = [(F(0), lo), (lo, hi), (hi, F(1)), (F(1, 3), F(1, 3) + F(1, 10 ** 6)),\n"
        "          (F(1, 3) - F(1, 10 ** 9), F(1, 3))]\n"
        "t0 = time.perf_counter()\n"
        "for a, b in ranges:\n"
        "    level_range(tower, 3000, a, b)\n"
        "print((time.perf_counter() - t0) / len(ranges))\n")
    assert elapsed < 0.002, f"a level-3000 range took {elapsed * 1000:.2f} ms"


def test_deep_point_range_takes_one_step_a_level():
    # a point never holds a whole tent leg, so it descends all 3000 levels:
    # 0.31-0.34 s on a 2-vCPU host with Fraction ends and a switch point per
    # level, about 0.03 s as the integer one-point case shared with eval_level
    out = _float_from_fresh_interpreter(
        "import time\n"
        "from fractions import Fraction as F\n"
        "from knaster import SeqSpec, build_tower, eval_level, level_range\n"
        "tower = build_tower(SeqSpec.constant(2), SeqSpec.constant(1000), '1/3', 3000)\n"
        "x = F(2, 7)\n"
        "t0 = time.perf_counter()\n"
        "r = level_range(tower, 3000, x, x)\n"
        "elapsed = time.perf_counter() - t0\n"
        "v = eval_level(tower, 3000, x)\n"
        "print(elapsed if r == (v, v) else -1)\n")
    assert out >= 0, "level_range(x, x) differs from (f(x), f(x))"
    assert out < 0.1, f"a level-3000 point range took {out:.2f} s"


def test_tower_levels_keep_one_rational():
    # traced size of a depth-1001 const:2 tower: 3.19 MiB when each level
    # also kept its rightmost 0-preimage, 1.76 MiB with a reduced Fraction
    # 1-preimage alone, 1.72 MiB with its numerator over n_1*...*n_j
    mib = _float_from_fresh_interpreter(
        "import tracemalloc\n"
        "from knaster import SeqSpec, build_tower\n"
        "tracemalloc.start()\n"
        "tower = build_tower(SeqSpec.constant(2), SeqSpec.constant(2), '1/3', 1001)\n"
        "print(tracemalloc.get_traced_memory()[0] / 2 ** 20)\n")
    assert mib < 2.5, f"a depth-1001 tower holds {mib:.2f} MiB"
