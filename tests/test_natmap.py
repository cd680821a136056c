from fractions import Fraction
from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knaster import (
    NaturalMapSpec,
    SeqSpec,
    enumerate_natural_maps,
    first_incompatible,
    induced_indices,
    prime_obstruction,
)
from knaster import natmap
import ref_natmap
from ref_natmap import tail_prime_support

F = Fraction
c2, c3, c6 = SeqSpec.constant(2), SeqSpec.constant(3), SeqSpec.constant(6)


def oracle_first_incompatible(spec: NaturalMapSpec, depth: int):
    """Cumulative integer products and plain divisibility, no fractions."""
    num, den = spec.i0, 1
    for k in range(1, depth + 1):
        for r in range(spec.jseq[k - 1] + 1, spec.jseq[k] + 1):
            num *= spec.source.nth(r)
        den *= spec.target.nth(k)
        if num % den != 0:
            return k
    return None


def test_identity_indices():
    spec = NaturalMapSpec(1, tuple(range(11)), c2, c2)
    assert induced_indices(spec, 10) == [F(1)] * 10
    assert first_incompatible(spec, 10) is None


def test_shift_indices():
    spec = NaturalMapSpec(1, tuple(range(1, 12)), c2, c2)
    assert induced_indices(spec, 10) == [F(1)] * 10


def test_mixed_indices_frozen():
    spec = NaturalMapSpec(9, (0, 1, 2, 3), c2, c3)
    assert induced_indices(spec, 3) == [F(6), F(4), F(8, 3)]
    assert first_incompatible(spec, 3) == 3


def test_six_over_two_powers_of_three():
    spec = NaturalMapSpec(1, tuple(range(9)), c6, c2)
    assert first_incompatible(spec, 8) is None
    assert induced_indices(spec, 8) == [F(3 ** k) for k in range(1, 9)]


def test_spec_validation():
    with pytest.raises(ValueError):
        NaturalMapSpec(0, (0, 1), c2, c2)
    with pytest.raises(ValueError):
        NaturalMapSpec(1, (1, 1), c2, c2)
    with pytest.raises(ValueError):
        NaturalMapSpec(1, (-1, 0), c2, c2)
    with pytest.raises(ValueError):
        NaturalMapSpec(1, (), c2, c2)


def test_depth_beyond_jseq_errors():
    spec = NaturalMapSpec(1, (0, 1), c2, c2)
    with pytest.raises(ValueError):
        induced_indices(spec, 2)


def test_finite_source_exhaustion_propagates():
    from knaster import SequenceExhausted
    spec = NaturalMapSpec(1, (0, 1, 2, 3), SeqSpec.from_list([2, 2]), c2)
    with pytest.raises(SequenceExhausted):
        induced_indices(spec, 3)


def test_recurrence_invariant():
    # i_k * m_k equals i_{k-1} times the block of source terms it consumes
    for source, target in [(c2, c3), (c6, c2), (c3, c3)]:
        for jseq in [(0, 1, 2, 3, 4), (1, 3, 5, 7, 9), (0, 2, 3, 6, 8)]:
            spec = NaturalMapSpec(12, jseq, source, target)
            vals = [F(12)] + induced_indices(spec, 4)
            for k in range(1, 5):
                block = 1
                for r in range(jseq[k - 1] + 1, jseq[k] + 1):
                    block *= source.nth(r)
                assert vals[k] * target.nth(k) == vals[k - 1] * block


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(2, 60), max_size=6), st.lists(st.integers(2, 60), min_size=1, max_size=6),
       st.sampled_from((c2, c3, c6)), st.integers(1, 40), st.integers(0, 30),
       st.lists(st.integers(1, 300), min_size=1, max_size=4))
def test_block_products_match_sequential(prefix, period, target, i0, j0, gaps):
    # blocks of 1 to 300 terms, either side of the product tree's 16-term leaves
    source = SeqSpec.periodic(prefix, period)
    jseq = tuple(accumulate(gaps, initial=j0))
    want, cur = [], F(i0)
    for k in range(1, len(gaps) + 1):
        block = 1
        for r in range(jseq[k - 1] + 1, jseq[k] + 1):
            block *= source.nth(r)
        cur = cur * block / target.nth(k)
        want.append(cur)
    assert induced_indices(NaturalMapSpec(i0, jseq, source, target), len(gaps)) == want


def test_compatibility_monotone():
    spec = NaturalMapSpec(9, (0, 1, 2, 3, 4, 5), c2, c3)
    assert first_incompatible(spec, 3) == 3
    for depth in (3, 4, 5):
        assert first_incompatible(spec, depth) == 3


def test_agrees_with_divisibility_oracle():
    seqs = [c2, c3, c6]
    for source in seqs:
        for target in seqs:
            for i0 in range(1, 13):
                for jseq in combinations(range(6), 4):
                    spec = NaturalMapSpec(i0, jseq, source, target)
                    assert first_incompatible(spec, 3) == \
                        oracle_first_incompatible(spec, 3)


def test_enumerate_only_identity():
    specs = enumerate_natural_maps(c2, c2, i0max=1, j0max=0, jmax=3, depth=3)
    assert len(specs) == 1
    assert specs[0].i0 == 1 and specs[0].jseq == (0, 1, 2, 3)


def test_enumerate_empty_cases():
    assert enumerate_natural_maps(c2, c3, 26, 2, 8, 3) == []
    assert enumerate_natural_maps(c2, c2, 0, 3, 6, 2) == []


def test_enumerate_dedupes_by_level0_data():
    # jseq (0,1) and (0,2) are both compatible but induce the same map
    specs = enumerate_natural_maps(c2, c2, i0max=1, j0max=0, jmax=4, depth=1)
    assert [s.jseq for s in specs] == [(0, 1)]
    keys = {(s.i0, s.jseq[0]) for s in specs}
    assert len(keys) == len(specs)


def test_enumerate_deterministic_and_superset():
    small = enumerate_natural_maps(c2, c2, 4, 1, 4, 2)
    again = enumerate_natural_maps(c2, c2, 4, 1, 4, 2)
    assert small == again
    big = enumerate_natural_maps(c2, c2, 6, 2, 6, 2)
    assert set((s.i0, s.jseq) for s in small) <= set((s.i0, s.jseq) for s in big)
    ordering = [(s.i0, s.jseq) for s in big]
    assert ordering == sorted(ordering)


@pytest.mark.parametrize("depth", (0, 1, 3))
@settings(max_examples=60, deadline=None)
@given(st.sampled_from((c2, c3, c6, SeqSpec.periodic([3], [2, 6]))),
       st.sampled_from((c2, c3, c6, SeqSpec.periodic([2], [3, 2]))),
       st.integers(0, 4), st.integers(0, 5), st.integers(0, 7))
def test_enumerate_matches_full_walk(depth, source, target, i0max, j0max, jmax):
    assert enumerate_natural_maps(source, target, i0max, j0max, jmax, depth) == \
        ref_natmap.enumerate_natural_maps(source, target, i0max, j0max, jmax, depth)


def test_prime_obstruction():
    assert prime_obstruction(c2, c3) is True
    assert prime_obstruction(c2, c6) is True
    assert prime_obstruction(c6, c2) is False
    assert prime_obstruction(c6, c6) is False
    assert prime_obstruction(SeqSpec.periodic([7], [4, 8]), c2) is False
    assert prime_obstruction(c2, SeqSpec.periodic([2], [10])) is True
    assert tail_prime_support(c6) == frozenset({2, 3})
    with pytest.raises(ValueError):
        tail_prime_support(SeqSpec.from_list([2, 3]))


def _tail_seqs():
    terms = st.lists(st.integers(2, 60), min_size=1, max_size=3)
    return st.one_of(st.integers(2, 360).map(SeqSpec.constant),
                     st.builds(SeqSpec.periodic, st.lists(st.integers(2, 60), max_size=2), terms))


@settings(max_examples=300, deadline=None)
@given(_tail_seqs(), _tail_seqs())
def test_prime_obstruction_matches_factoring(source, target):
    # the definition: some prime of the target's tail is missing from the source's
    want = not tail_prime_support(target) <= tail_prime_support(source)
    assert prime_obstruction(source, target) is want


def test_prime_obstruction_large_prime_terms():
    p = 1_000_000_000_000_000_003  # trial division would run to 10^9
    assert prime_obstruction(SeqSpec.constant(p), c2) is True
    assert prime_obstruction(c2, SeqSpec.constant(p)) is True
    assert prime_obstruction(SeqSpec.constant(2 * p), SeqSpec.periodic([], [p, 4])) is False


def test_invariant_failure_has_a_message(monkeypatch):
    # a spec constructor that loses i0 makes two emitted specs share (i0, j_0)
    monkeypatch.setattr(natmap, "NaturalMapSpec",
                        lambda i0, jseq, s, t: NaturalMapSpec(1, jseq, s, t))
    with pytest.raises(AssertionError, match=r"share \(i0, j_0\)"):
        enumerate_natural_maps(c2, c2, 2, 0, 2, 1)
