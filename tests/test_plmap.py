import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knaster import (
    PLMap,
    compose,
    identity,
    lap,
    range_on,
    tent,
    tent_preimages,
    wave_eval,
)
from knaster import plmap
from knaster.plmap import tent_branch

F = Fraction


def rationals(rng, den_max=1000):
    den = rng.randint(1, den_max)
    return F(rng.randint(-3 * den, 3 * den), den)


@st.composite
def plmaps(draw):
    n_interior = draw(st.integers(min_value=0, max_value=6))
    xs = sorted(draw(st.sets(st.fractions(min_value=F(1, 40), max_value=F(39, 40),
                                          max_denominator=40),
                             min_size=n_interior, max_size=n_interior)))
    ys = [draw(st.fractions(min_value=0, max_value=1, max_denominator=24))
          for _ in range(n_interior + 2)]
    return PLMap(list(zip([F(0)] + xs + [F(1)], ys)))


# ----------------------------------------------------------------- wave

def test_wave_examples():
    assert wave_eval(0) == 0
    assert wave_eval(F(3, 2)) == F(1, 2)
    assert wave_eval(7) == 1


def test_wave_periodicity_and_symmetry():
    rng = random.Random(20240901)
    for _ in range(100):
        t = rationals(rng)
        assert wave_eval(t + 2) == wave_eval(t)
        assert wave_eval(-t) == wave_eval(t)
        assert 0 <= wave_eval(t) <= 1


# ----------------------------------------------------------------- tent

def test_tent_identity():
    assert tent(1).points == ((F(0), F(0)), (F(1), F(1)))
    assert tent(1) == identity()


def test_tent_rooftop():
    assert tent(2).points == ((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0)))


def test_tent_seven():
    assert tent(7)(F(3, 7)) == 1
    assert lap(tent(7)) == 7


def test_tent_rejects_zero():
    for n in (0, -1, 2.0):
        with pytest.raises(ValueError):
            tent(n)


def test_tent_equals_fraction_built_map():
    # tent(n) is built from integer triples; the map through the Fraction
    # points (k/n, k % 2) is the same map
    for n in list(range(1, 301)) + [99_991]:
        assert tent(n) == PLMap([(F(k, n), k % 2) for k in range(n + 1)]), n


def test_tent_cache_is_bounded():
    # tent(k) holds k + 1 breakpoints, so the cache must not keep every
    # degree a long-running process ever asked for
    for k in range(1, 601):
        tent(k)
    assert tent.cache_info().currsize <= plmap.TENT_CACHE_SIZE
    assert tent(7) == PLMap([(F(k, 7), k % 2) for k in range(8)])


def test_tent_matches_wave():
    rng = random.Random(3)
    for n in range(1, 10):
        g = tent(n)
        for _ in range(20):
            x = F(rng.randint(0, 720), 720)
            assert g(x) == wave_eval(n * x)


# ----------------------------------------------------------------- eval

def test_eval_examples(f1_star):
    assert tent(2)(F(1, 4)) == F(1, 2)
    assert tent(3)(F(1, 2)) == F(1, 2)
    assert f1_star(F(6, 7)) == F(2, 3)


def test_eval_rejects_outside_domain():
    with pytest.raises(ValueError):
        tent(2)(F(3, 2))
    with pytest.raises(ValueError):
        tent(2)(F(-1, 2))


def test_eval_rejects_floats():
    with pytest.raises(TypeError):
        tent(2)(0.25)
    with pytest.raises(TypeError):
        PLMap([(0, 0), (0.5, 0.5), (1, 1)])


def test_rational_like_inputs():
    assert wave_eval("7/2") == F(1, 2)
    assert wave_eval(-3) == 1
    assert tent(2)("1/4") == F(1, 2)


def test_rational_strings_share_the_wire_grammar():
    assert plmap.as_rat("1/3") == F(1, 3)
    assert plmap.as_rat("-7") == -7
    big = "1/" + "7" * 5000  # past the default int-from-str digit limit
    assert plmap.as_rat(big) == F(1, (10 ** 5000 - 1) // 9 * 7)
    # the spellings Fraction(str) also takes are rejected, as in the JSON files
    for text in ("0.5", "2/4", "1e-1000000", " 1/3", "1/1", "-0", "+1", "1_000", "3/0",
                 "1/3\n", "2\n"):
        with pytest.raises(ValueError):
            plmap.as_rat(text)


# -------------------------------------------------------------- compose

def test_compose_semigroup_small():
    assert compose(tent(2), tent(3)) == tent(6)
    assert compose(tent(3), tent(2)) == tent(6)
    assert compose(tent(4), tent(5)) == tent(20)


def test_compose_identity(f1_star):
    for f in (tent(5), f1_star):
        assert compose(tent(1), f) == f
        assert compose(f, tent(1)) == f


def test_compose_condition_two(f1_star):
    assert compose(tent(3), f1_star) == tent(7)


def test_eval_compose_coherence_tents():
    rng = random.Random(99)
    for _ in range(100):
        f = tent(rng.randint(2, 9))
        g = tent(rng.randint(2, 9))
        x = F(rng.randint(0, 5039), 5040)
        assert compose(f, g)(x) == f(g(x))


@settings(max_examples=60, deadline=None)
@given(plmaps(), plmaps(), st.fractions(min_value=0, max_value=1, max_denominator=97))
def test_eval_compose_coherence_random(f, g, x):
    assert compose(f, g)(x) == f(g(x))


# ------------------------------------------------------------------ lap

def test_lap_tents():
    for n in range(1, 13):
        assert lap(tent(n)) == n


def test_lap_identity_and_example(f1_star):
    assert lap(identity()) == 1
    assert lap(f1_star) == 5


def test_lap_constant_pieces():
    stair = PLMap([(0, 0), (F(1, 4), F(1, 2)), (F(1, 2), F(1, 2)), (1, 1)])
    assert lap(stair) == 1
    bump = PLMap([(0, 0), (F(1, 4), F(1, 2)), (F(1, 2), F(1, 2)), (1, 0)])
    assert lap(bump) == 2
    flat = PLMap([(0, F(1, 3)), (1, F(1, 3))])
    assert lap(flat) == 1


def test_lap_submultiplicative_tents_exact():
    for m in range(2, 7):
        for n in range(2, 7):
            assert lap(compose(tent(m), tent(n))) == lap(tent(m)) * lap(tent(n))


@settings(max_examples=60, deadline=None)
@given(plmaps(), plmaps())
def test_lap_submultiplicative_random(f, g):
    assert lap(compose(f, g)) <= lap(f) * lap(g)


# ------------------------------------------------------------- range_on

def test_range_examples(f1_star):
    assert range_on(tent(3), F(1, 3), F(2, 3)) == (F(0), F(1))
    assert range_on(f1_star, F(3, 7), F(1)) == (F(2, 3), F(1))
    c = F(5, 11)
    assert range_on(f1_star, c, c) == (f1_star(c), f1_star(c))


def test_range_rejects_reversed():
    with pytest.raises(ValueError):
        range_on(tent(2), F(2, 3), F(1, 3))


@settings(max_examples=60, deadline=None)
@given(plmaps(),
       st.fractions(min_value=0, max_value=1, max_denominator=30),
       st.fractions(min_value=0, max_value=1, max_denominator=30))
def test_range_on_brute_force(f, a, b):
    if a > b:
        a, b = b, a
    lo, hi = range_on(f, a, b)
    # brute-force oracle: sample the interval endpoints, breakpoints, and a grid
    candidates = [a, b] + [x for x, _ in f.points if a <= x <= b]
    grid = [a + (b - a) * F(k, 17) for k in range(18)]
    values = [f(x) for x in candidates + grid]
    assert lo == min(values)
    assert hi == max(values)
    assert min(values) >= lo and max(values) <= hi


# ------------------------------------------------------- canonical form

def test_normalize_merges_spec_example():
    raw = [(0, 0), (F(1, 7), F(1, 3)), (F(2, 7), F(2, 3)), (F(3, 7), 1),
           (F(4, 7), F(2, 3)), (F(5, 7), 1), (F(6, 7), F(2, 3)), (1, 1)]
    expect = [(F(0), F(0)), (F(3, 7), F(1)), (F(4, 7), F(2, 3)),
              (F(5, 7), F(1)), (F(6, 7), F(2, 3)), (F(1), F(1))]
    assert PLMap(raw).points == tuple(expect)


def test_normalize_identity_unchanged():
    assert PLMap([(0, 0), (1, 1)]).points == ((F(0), F(0)), (F(1), F(1)))


def test_normalize_collinear_midpoint():
    assert PLMap([(0, 0), (F(1, 2), F(1, 2)), (1, 1)]) == identity()


def test_normalize_rejects_bad_lists():
    with pytest.raises(ValueError):
        PLMap([(0, 0), (0, 1), (1, 0)])  # duplicate x
    with pytest.raises(ValueError):
        PLMap([(0, 0), (F(2, 3), 1), (F(1, 3), 0), (1, 1)])  # decreasing x
    with pytest.raises(ValueError):
        PLMap([(0, 0), (1, 2)])  # value out of range
    with pytest.raises(ValueError):
        PLMap([(F(1, 4), 0), (1, 1)])  # does not start at 0


@settings(max_examples=60, deadline=None)
@given(plmaps())
def test_normalize_idempotent(f):
    assert PLMap(f.points) == f
    assert PLMap(PLMap(f.points).points).points == f.points


# ---------------------------------------------------------- preimages

def test_tent_preimages_fan():
    assert tent_preimages(2, F(1, 2)) == [F(1, 4), F(3, 4)]
    assert tent_preimages(2, F(0)) == [F(0), F(1)]
    assert tent_preimages(2, F(1)) == [F(1, 2)]
    for n in (2, 3, 5, 8):
        for y in (F(0), F(1), F(2, 5)):
            pts = tent_preimages(n, y)
            assert pts == sorted(pts)
            assert all(wave_eval(n * x) == y for x in pts)
            if y == 0:
                assert len(pts) == n // 2 + 1
            elif y == 1:
                assert len(pts) == (n + 1) // 2
            else:
                assert len(pts) == n


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.data(),
       st.fractions(min_value=0, max_value=1, max_denominator=1000))
def test_tent_branch_lies_on_its_leg(n, data, y):
    c = data.draw(st.integers(min_value=0, max_value=n - 1))
    x = tent_branch(n, c, y)
    assert F(c, n) <= x <= F(c + 1, n)
    assert tent(n)(x) == y


def _reduced_tent_branch(n, c, y):
    """The inverse branch as one reduced Fraction of two integers."""
    y = F(y)
    if c % 2 == 0:
        return F(c * y.denominator + y.numerator, n * y.denominator)
    return F((c + 1) * y.denominator - y.numerator, n * y.denominator)


def test_tent_branch_matches_reduced_formula():
    rng = random.Random(8128)
    big = [F(rng.getrandbits(9000), rng.getrandbits(9000) | 1) for _ in range(20)]
    ys = [0, 1, F(0), F(1), F(1, 3), F(2, 7), F(999, 1000),
          *(min(y, 1 / y) for y in big)]
    for n in (1, 2, 3, 8, 1000, 2 ** 40 + 1):
        for c in {0, 1, n // 2, n - 1}:
            for y in ys:
                x = tent_branch(n, c, y)
                assert type(x) is Fraction
                assert x == _reduced_tent_branch(n, c, y), (n, c, y)
    with pytest.raises(TypeError):
        tent_branch(3, 1, 0.5)


def test_repr_of_a_coordinate_past_the_digit_limit():
    # str() of an int refuses more than 4,300 digits by default
    f = PLMap([(0, F(1, 10 ** 4400 + 3)), (1, 1)])
    assert repr(f) == "PLMap([(0, 1/1" + "0" * 4399 + "3), (1, 1)])"
