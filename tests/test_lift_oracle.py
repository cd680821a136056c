"""Differential tests: `construct_lift`, whose lift step runs on integer
triples, against the Fraction lift loop kept in `ref_lift.py`.

The maps f0 are onto, with flat runs at 0 and at 1 (also at x = 0, which
puts switch points inside flat segments of f0∘tent(n) rather than on its
breakpoints), and m runs from 1 to 6. Whether a switch point t_lam counts
at t_lam itself is not observable: branches lam-1 and lam both give lam/m
there, which is why the lift step needs no breakpoint of its own at t_lam.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import ref_lift
import ref_plmap as ref
import ref_tower
from knaster import LiftSpec, PLMap, compose, construct_lift, tent

F = Fraction

DENOMINATORS = [1, 2, 3, 4, 5, 6, 7, 8, 12, 30, 97, 9973]


@st.composite
def unit_rationals(draw):
    den = draw(st.sampled_from(DENOMINATORS))
    return F(draw(st.integers(min_value=0, max_value=den)), den)


@st.composite
def onto_points(draw):
    """Breakpoints of a map onto [0, 1], often with flat runs at 0 and 1."""
    xs = sorted(draw(st.sets(unit_rationals().filter(lambda x: 0 < x < 1),
                             min_size=1, max_size=6)))
    xs = [F(0)] + xs + [F(1)]
    ys = []
    for _ in xs:
        kind = draw(st.sampled_from(["fresh", "repeat", "zero", "one"]))
        if kind == "zero":
            ys.append(F(0))
        elif kind == "one":
            ys.append(F(1))
        else:
            ys.append(ys[-1] if kind == "repeat" and ys else draw(unit_rationals()))
    lo, hi = draw(st.lists(st.integers(0, len(xs) - 1), min_size=2, max_size=2, unique=True))
    ys[lo], ys[hi] = F(0), F(1)
    return list(zip(xs, ys))


def _both(pts, m, n, q, i):
    got = construct_lift(LiftSpec(m=m, n=n, q=q, i=i, f0=PLMap(pts)))
    return got, ref_lift.construct_lift(m, n, q, i, ref.PLMap(pts))


@settings(max_examples=400, deadline=None)
@given(onto_points(), st.integers(1, 6), st.integers(1, 3), st.data())
def test_lift_matches_reference(pts, m, q, data):
    i = data.draw(st.integers(0, q - 1))
    n = (m + 2) * q + data.draw(st.integers(0, 40))  # (m+2)q <= n: the folds fit
    got, want = _both(pts, m, n, q, i)
    assert got.points == want.points
    assert repr(got) == repr(want)
    assert got == PLMap(want.points) and hash(got) == hash(PLMap(want.points))
    assert compose(tent(m), got) == compose(PLMap(pts), tent(n))


def test_switch_points_on_and_off_breakpoints():
    # f0 is flat at 0 on [0, 1/3]: g = f0∘tent(5) peaks at 1 on t_1 = 1/5 and
    # is flat at 0 around t_2 = 2/5, so only t_1 is a breakpoint of g
    pts = [(F(0), F(0)), (F(1, 3), F(0)), (F(1), F(1))]
    switches = ref_tower.fold_points(5, 0, 3, F(0), F(1))[1:3]
    g_xs = {x for x, _ in compose(PLMap(pts), tent(5)).points}
    assert [t in g_xs for t in switches] == [True, False]
    got, want = _both(pts, 3, 5, 1, 0)
    assert got.points == want.points
    assert (F(2, 5), F(2, 3)) not in got.points  # merged: both branches give 2/3
    assert got(F(2, 5)) == F(2, 3)


EDGE_F0 = (
    # first one at index 0, first zero at the last index: every turning leg
    # splits its walk at the walk's first or last triple
    [(F(0), F(1)), (F(1, 3), F(1, 4)), (F(2, 3), F(3, 4)), (F(1), F(0))],
    # flat runs at 0 and at 1, one of them starting at index 0
    [(F(0), F(0)), (F(1, 5), F(0)), (F(2, 5), F(1)), (F(3, 5), F(1)), (F(4, 5), F(1, 3)),
     (F(1), F(0))],
    [(F(0), F(1)), (F(1, 4), F(1)), (F(1, 2), F(0)), (F(3, 4), F(0)), (F(1), F(1, 2))],
)


def test_lift_matches_reference_at_edge_turns():
    # m = 1..6 with k = ceil(n*i/q) of both parities, so turns of both kinds
    # fall on even and on odd legs
    for pts in EDGE_F0:
        for m in range(1, 7):
            parities = set()
            for q in (1, 2, 3):
                for i in range(q):
                    for n in range((m + 2) * q, (m + 2) * q + 4):
                        parities.add(-(-n * i // q) % 2)
                        got, want = _both(pts, m, n, q, i)
                        assert got.points == want.points, (pts, m, n, q, i)
            assert parities == {0, 1}
