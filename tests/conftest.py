from fractions import Fraction

import pytest

# the raw-order checks assert outside a test module: rewrite them as pytest
# does a test's, so that they still run, and explain, under python -O
pytest.register_assert_rewrite("raw_walks")

from knaster import LiftSpec, PLMap, identity, construct_lift


@pytest.fixture(scope="session")
def f1_star() -> PLMap:
    """The 6-breakpoint lift of the identity through tent(3) over tent(7)."""
    return construct_lift(LiftSpec(m=3, n=7, q=1, i=0, f0=identity()))


@pytest.fixture(scope="session")
def f1_star_expected() -> PLMap:
    """Hand-computed breakpoints of that lift (frozen oracle)."""
    return PLMap([
        (0, 0),
        (Fraction(3, 7), 1),
        (Fraction(4, 7), Fraction(2, 3)),
        (Fraction(5, 7), 1),
        (Fraction(6, 7), Fraction(2, 3)),
        (1, 1),
    ])
