import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesat.cycleset import (
    CycleSet,
    PartialCycleSet,
    Permutation,
    apply_permutation,
    cell_index,
    extract_partial,
    mask_of,
    satisfies_axioms,
    strictly_below,
)
from cyclesat.encoding import encode_axioms
from cyclesat.errors import EmptyDomainError
from cyclesat.symmetry import Diagonal


def paper_partial():
    # [{2} {1} {3} / {2} {1} {3} / {1,2} {1,2} {3}]
    return PartialCycleSet(3, [
        mask_of([2]), mask_of([1]), mask_of([3]),
        mask_of([2]), mask_of([1]), mask_of([3]),
        mask_of([1, 2]), mask_of([1, 2]), mask_of([3]),
    ])


def test_cell_order_row_major():
    assert cell_index((1, 1), 3) == 0
    assert cell_index((3, 3), 3) == 8
    assert cell_index((1, 3), 3) + 1 == cell_index((2, 1), 3)


def test_domain_orders():
    # the domain in cell (1,1) decides; a lower (1,2) breaks a tie at (1,1)
    def first_strict_cell(s, s2):
        a = PartialCycleSet(3, [s, mask_of([1])] + [mask_of([3])] * 7)
        b = PartialCycleSet(3, [s2, mask_of([2])] + [mask_of([3])] * 7)
        return strictly_below(a, b)

    assert first_strict_cell(mask_of([1]), mask_of([2, 3])) == (1, 1)  # max < min
    assert first_strict_cell(mask_of([1, 2]), mask_of([2, 3])) == (1, 2)  # max == min
    assert first_strict_cell(mask_of([1, 3]), mask_of([2])) is None  # max > min


def test_strictly_below_first_cell():
    a = PartialCycleSet(2, [mask_of([1]), mask_of([1, 2]), mask_of([1, 2]), mask_of([1, 2])])
    b = PartialCycleSet(2, [mask_of([2]), mask_of([1, 2]), mask_of([1, 2]), mask_of([1, 2])])
    assert strictly_below(a, b) == (1, 1)
    assert strictly_below(b, a) is None


def test_below_upto_paper_example():
    p = paper_partial()
    # the singleton prefix up to (2,3) ties; at (3,1) {1,2} is not below {1,2}
    assert strictly_below(p, p) is None
    doms = list(p.domains)
    doms[cell_index((3, 1), 3)] = mask_of([3])
    assert strictly_below(p, PartialCycleSet(3, doms)) == (3, 1)


def test_satisfies_axioms():
    assert satisfies_axioms(CycleSet.from_rows([[1, 2], [1, 2]]))
    assert satisfies_axioms(CycleSet.from_rows([[2, 1], [2, 1]]))
    assert not satisfies_axioms(CycleSet.from_rows([[1, 2], [2, 1]]))  # degenerate diagonal


def test_apply_permutation_identity_and_fixed_point():
    c = CycleSet.from_rows([[2, 1, 3], [2, 1, 3], [1, 2, 3]])
    assert apply_permutation(Permutation.identity(3), c) == c
    assert apply_permutation(Permutation([2, 1, 3]), c) == c  # fixed by (1 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_permutation_composition_law(data):
    n = data.draw(st.integers(min_value=2, max_value=4))
    perms = list(itertools.permutations(range(1, n + 1)))
    pi = Permutation(data.draw(st.sampled_from(perms)))
    sigma = Permutation(data.draw(st.sampled_from(perms)))
    doms = [data.draw(st.integers(min_value=1, max_value=(1 << n) - 1)) for _ in range(n * n)]
    p = PartialCycleSet(n, doms)
    lhs = apply_permutation(sigma, apply_permutation(pi, p))
    rhs = apply_permutation(pi.compose(sigma), p)
    assert lhs == rhs


def test_extract_partial_empty_assignment():
    vm = encode_axioms(3, Diagonal.identity(3)).varmap
    p = extract_partial({}, vm)
    for i in range(1, 4):
        assert p.domain(i, i) == mask_of([i])
        for j in range(1, 4):
            if j != i:
                assert p.domain(i, j) == mask_of(set(range(1, 4)) - {i})


def test_extract_partial_paper_example():
    # the 3x3 example has diagonal (1 2); eliminating everything outside the
    # displayed domains reproduces it
    vm = encode_axioms(3, Diagonal.parse("(1 2)", 3)).varmap
    want = paper_partial()
    assignment = {}
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            for k, var in vm.cell_vars(i, j):
                if not want.domain(i, j) & (1 << (k - 1)):
                    assignment[var] = False
    assert extract_partial(assignment, vm) == want


def test_extract_partial_empty_domain_error():
    vm = encode_axioms(3, Diagonal.identity(3)).varmap
    assignment = {var: False for _, var in vm.cell_vars(1, 2)}
    with pytest.raises(EmptyDomainError):
        extract_partial(assignment, vm)


def test_line_format_roundtrip():
    c = CycleSet.from_rows([[2, 1, 3], [2, 1, 3], [1, 2, 3]])
    assert c.to_line() == "2 1 3 2 1 3 1 2 3"
    assert CycleSet.from_line(c.to_line()) == c
    with pytest.raises(ValueError):
        CycleSet.from_line("1 2 3")
