import pytest

from knaster import GroupedSeq, SeqSpec, SequenceExhausted, regroup

const2 = SeqSpec.constant(2)


def test_nth_constant():
    assert const2.nth(5) == 2


def test_nth_periodic():
    seq = SeqSpec.periodic([8, 16], [32])
    assert [seq.nth(j) for j in range(1, 6)] == [8, 16, 32, 32, 32]
    assert seq.nth(4) == 32


def test_nth_finite_list_bounds():
    seq = SeqSpec.from_list([2, 3, 5])
    assert seq.nth(3) == 5
    with pytest.raises(SequenceExhausted):
        seq.nth(4)


def test_nth_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        const2.nth(0)


def test_spec_validation():
    with pytest.raises(ValueError):
        SeqSpec.constant(1)
    with pytest.raises(ValueError):
        SeqSpec.from_list([2, 1])
    with pytest.raises(ValueError):
        SeqSpec.periodic([2], [])
    with pytest.raises(ValueError):
        SeqSpec(kind="mystery")


def test_prefix_product():
    assert const2.prefix_product(6) == 64
    assert const2.prefix_product(0) == 1
    assert SeqSpec.periodic([8, 16], [32]).prefix_product(3) == 4096


def smallest_power_of_two_exceeding(bound: int) -> int:
    p = 2
    while p <= bound:
        p *= 2
    return p


def test_regroup_desk_config():
    grouped = regroup(const2, const2, 8)
    got = [grouped.nth(j) for j in range(1, 9)]
    # greedy oracle: smallest power of 2 strictly exceeding (2+2)*j
    assert got == [smallest_power_of_two_exceeding(4 * j) for j in range(1, 9)]
    assert got[:7] == [8, 16, 16, 32, 32, 32, 32]


def test_regroup_const10():
    grouped = regroup(SeqSpec.constant(10), const2, 2)
    assert [grouped.nth(1), grouped.nth(2)] == [10, 10]


def block_bounds(raw, grouped, levels):
    """(start, end, product) of each of the first `levels` blocks, 1-based
    inclusive, found by walking raw.nth until the product equals grouped.nth(j)."""
    out, end = [], 0
    for j in range(1, levels + 1):
        start, product = end + 1, 1
        while product != grouped.nth(j):
            end += 1
            product *= raw.nth(end)
            assert product <= grouped.nth(j), "a block overshoots its grouped term"
        out.append((start, end, product))
    return out


def test_regroup_compliant_input_unchanged():
    raw = SeqSpec.from_list([5, 9, 13, 17])
    grouped = regroup(raw, const2, 4)
    assert block_bounds(raw, grouped, 4) == [(1, 1, 5), (2, 2, 9), (3, 3, 13), (4, 4, 17)]


@pytest.mark.parametrize("raw, partner", [
    (const2, const2),
    (SeqSpec.constant(3), const2),
    (SeqSpec.periodic([2, 5], [2, 3]), SeqSpec.constant(4)),
    (SeqSpec.constant(2), SeqSpec.periodic([2], [3, 5])),
])
def test_regroup_invariants(raw, partner):
    levels = 10
    grouped = regroup(raw, partner, levels)
    blocks = block_bounds(raw, grouped, levels)
    # blocks partition a prefix of the raw sequence
    assert blocks[0][0] == 1
    for (_, end0, _), (start1, _, _) in zip(blocks, blocks[1:]):
        assert start1 == end0 + 1
    total = 1
    for j, (start, end, product) in enumerate(blocks, start=1):
        bound = (partner.nth(j) + 2) * j
        assert product > bound  # strict level bound
        # greedy minimality: dropping the last raw factor breaks the bound
        assert product // raw.nth(end) <= bound
        check = 1
        for r in range(start, end + 1):
            check *= raw.nth(r)
        assert check == product
        total *= product
    # total product preserved
    assert total == raw.prefix_product(blocks[-1][1])
    assert total == grouped.prefix_product(levels)


def test_regroup_finite_exhaustion():
    raw = SeqSpec.from_list([2, 2, 2])
    grouped = GroupedSeq(raw, const2)
    assert grouped.nth(1) == 8
    with pytest.raises(SequenceExhausted):
        grouped.nth(2)
