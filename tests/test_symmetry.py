import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesat.cycleset import Permutation
from cyclesat.errors import InconsistentRefinement, SizeLimitError
from cyclesat.symmetry import (
    Diagonal,
    PartialPermutation,
    centralizer,
    complete_in_centralizer,
    diagonal_from_partition,
    extract_permutation,
    fixes_diagonal,
    integer_partitions,
    partition_count,
    propagate_cycle,
    representative_diagonals,
)


def test_partitions_small():
    assert integer_partitions(1) == [[1]]
    assert integer_partitions(4) == [[4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]
    assert len(integer_partitions(10)) == 42


def test_partition_count_recurrence_agrees():
    for n in range(1, 13):
        assert len(integer_partitions(n)) == partition_count(n)


def test_partitions_size_guard():
    with pytest.raises(SizeLimitError):
        integer_partitions(17)


def test_diagonal_from_partition_labels():
    n = 6
    assert diagonal_from_partition([1] * n).label() == "id"
    assert diagonal_from_partition([2] + [1] * (n - 2)).label() == "(1 2)"
    assert diagonal_from_partition([2, 2] + [1] * (n - 4)).label() == "(1 2)(3 4)"
    d = diagonal_from_partition([2, 2, 1])
    assert d.cycles[:2] == ((1, 2), (3, 4))
    assert d.values() == (2, 1, 4, 3, 5)


def test_diagonal_parse_roundtrip():
    for text in ("id", "(1 2)", "(1 2)(3 4)", "(1 2 3)(4 5)"):
        d = Diagonal.parse(text, 6)
        assert Diagonal.parse(d.label(), 6) == d
    with pytest.raises(ValueError):
        Diagonal.parse("(1 2", 4)
    with pytest.raises(ValueError):
        Diagonal.parse("(1 9)", 4)


def test_representatives_cover_all_classes():
    for n in range(2, 7):
        reps = representative_diagonals(n)
        assert len(reps) == partition_count(n)
        types = {d.cycle_type() for d in reps}
        assert len(types) == len(reps)  # pairwise non-conjugate
        all_types = {
            Diagonal.from_values(p).cycle_type()
            for p in itertools.permutations(range(1, n + 1))
        }
        assert types == all_types  # exhaust the conjugacy classes


def test_centralizer_order_counts_the_centralizer():
    for n in range(2, 7):
        for d in representative_diagonals(n):
            assert d.centralizer_order() == len(list(centralizer(d))), d.label()


def test_fixes_diagonal_examples():
    t = Diagonal(3, [(1,), (2,), (3,)])
    assert fixes_diagonal(Permutation.identity(3), t)
    # the worked 6-element case: diagonal (2 3 1)(5 6 4), pi(1)=6 extended
    t6 = Diagonal(6, [(2, 3, 1), (5, 6, 4)])
    pi = Permutation([6, 4, 5, 3, 1, 2])  # 1->6, 2->4, 3->5 and 4,5,6 back into 1..3
    assert fixes_diagonal(pi, t6)
    t12 = Diagonal.parse("(1 2)", 3)
    assert not fixes_diagonal(Permutation([3, 2, 1]), t12)  # (1 3) does not commute


def test_centralizer_is_group_and_matches_commutation():
    for n in range(2, 6):
        for d in representative_diagonals(n):
            elems = list(centralizer(d))
            byhand = [
                Permutation(p)
                for p in itertools.permutations(range(1, n + 1))
                if fixes_diagonal(Permutation(p), d)
            ]
            assert sorted(e.images for e in elems) == sorted(e.images for e in byhand)
            members = {e.images for e in elems}
            for a in elems:
                assert a.inverse().images in members
            for a in elems[:6]:
                for b in elems[:6]:
                    assert a.compose(b).images in members


def test_propagate_cycle_paper_example():
    t = Diagonal(6, [(2, 3, 1), (5, 6, 4)])
    pp = PartialPermutation.initial(t)
    refined = propagate_cycle(pp, t, 1, 6)
    assert refined.fwd[1] == 6 and refined.fwd[3] == 5 and refined.fwd[2] == 4


def test_propagate_cycle_identity_fixed_point():
    t = Diagonal.identity(4)
    pp = PartialPermutation.initial(t)
    refined = propagate_cycle(pp, t, 1, 1)
    assert refined.fwd == {1: 1}
    for pre, img in refined.blocks:
        if 1 not in pre:
            assert 1 not in img


def test_propagate_cycle_length_mismatch():
    t = Diagonal(5, [(1, 2, 3), (4, 5)])
    pp = PartialPermutation.initial(t)
    with pytest.raises(InconsistentRefinement):
        propagate_cycle(pp, t, 1, 4)


def test_propagate_cycle_preserves_partition():
    t = Diagonal(6, [(1, 2), (3, 4), (5,), (6,)])
    pp = PartialPermutation.initial(t)
    refined = propagate_cycle(pp, t, 1, 3)
    pre_all = sorted(x for pre, _ in refined.blocks for x in pre)
    img_all = sorted(y for _, img in refined.blocks for y in img)
    assert pre_all == list(range(1, 7)) and img_all == list(range(1, 7))


def test_extract_permutation_written_order():
    pp = PartialPermutation.from_image_blocks([(6, 5, 4), (3,), (2, 1)])
    assert extract_permutation(pp).images == (6, 5, 4, 3, 2, 1)
    pp2 = PartialPermutation.from_image_blocks([(2,), (1,)])
    assert extract_permutation(pp2).images == (2, 1)


def test_initial_partition_extract_fixes_diagonal():
    for n in range(2, 6):
        for d in representative_diagonals(n):
            pi = extract_permutation(PartialPermutation.initial(d))
            assert fixes_diagonal(pi, d)
            assert fixes_diagonal(complete_in_centralizer(PartialPermutation.initial(d), d), d)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
def test_random_fix_chains_stay_consistent(n, rnd):
    parts = sorted(rnd.choice(integer_partitions(n)), reverse=True)
    d = diagonal_from_partition(parts)
    pp = PartialPermutation.initial(d)
    for _ in range(3):
        unfixed = [x for x in range(1, n + 1) if x not in pp.fwd]
        if not unfixed:
            break
        x = rnd.choice(unfixed)
        choices = [y for y in pp.candidates(x) if d.cycle_len(y) == d.cycle_len(x)]
        if not choices:
            break
        try:
            pp = propagate_cycle(pp, d, x, rnd.choice(choices))
        except InconsistentRefinement:
            continue
        pre_all = sorted(e for pre, _ in pp.blocks for e in pre)
        assert pre_all == list(range(1, n + 1))
    if pp.is_complete():
        assert fixes_diagonal(extract_permutation(pp), d)
