import itertools

import pytest

from cyclesat.cycleset import CycleSet, PartialCycleSet, Permutation, apply_permutation, mask_of
from cyclesat.errors import DatabaseParseError, SizeLimitError
from cyclesat.oracle import (
    brute_force_all,
    brute_force_diagonal,
    extensions,
    is_lex_min,
    labelled_count,
    lex_min_reps,
    scan_centralizer,
    verify_database,
)
from cyclesat.symmetry import Diagonal, representative_diagonals


def test_brute_force_counts():
    n2 = brute_force_all(2)
    assert n2 == {CycleSet.from_rows([[1, 2], [1, 2]]), CycleSet.from_rows([[2, 1], [2, 1]])}
    assert len(lex_min_reps(brute_force_all(3))) == 5
    assert len(lex_min_reps(brute_force_all(4))) == 23


def test_brute_force_guards():
    with pytest.raises(SizeLimitError):
        brute_force_all(5)
    with pytest.raises(SizeLimitError):
        brute_force_diagonal(6, Diagonal.identity(6))


def test_per_diagonal_totals_n5():
    total = 0
    for d in representative_diagonals(5):
        labelled = brute_force_diagonal(5, d)
        assert labelled_count(5, d) == len(labelled), d.label()
        total += sum(1 for c in labelled if is_lex_min(c, d))
    assert total == 88


@pytest.mark.parametrize("method", ["binary", "commander"])
def test_labelled_count_matches_brute_force_on_every_diagonal(method):
    for n in (2, 3, 4):
        whole = brute_force_all(n)
        diagonals = {c.diagonal_values() for c in whole}
        for values in diagonals:
            want = sum(1 for c in whole if c.diagonal_values() == values)
            assert labelled_count(n, Diagonal.from_values(values), method) == want, (n, values)


def test_scan_centralizer_counts_automorphisms():
    for c in brute_force_all(3):
        d = Diagonal.from_values(c.diagonal_values())
        perms = [Permutation(p) for p in itertools.permutations(range(1, 4))]
        automorphisms = sum(1 for pi in perms if apply_permutation(pi, c) == c)
        assert scan_centralizer(c, d) == (is_lex_min(c, d), automorphisms), c.to_line()


def test_extensions_paper_example():
    # [{2} {1} {3} / {2} {1} {3} / {1,2} {1,2} {3}]
    p = PartialCycleSet(3, [
        mask_of([2]), mask_of([1]), mask_of([3]),
        mask_of([2]), mask_of([1]), mask_of([3]),
        mask_of([1, 2]), mask_of([1, 2]), mask_of([3]),
    ])
    got = sorted(extensions(p))
    want = sorted([
        CycleSet.from_rows([[2, 1, 3], [2, 1, 3], [1, 2, 3]]),
        CycleSet.from_rows([[2, 1, 3], [2, 1, 3], [2, 1, 3]]),
    ])
    assert got == want


def test_extensions_complete_is_singleton():
    c = CycleSet.from_rows([[2, 1, 3], [2, 1, 3], [1, 2, 3]])
    assert extensions(PartialCycleSet.from_cycle_set(c)) == {c}


def test_extensions_full_n2():
    got = extensions(PartialCycleSet.unrestricted(2))
    want = {CycleSet.from_rows([[1, 2], [1, 2]]), CycleSet.from_rows([[2, 1], [2, 1]])}
    assert got == want


def test_extensions_size_guard():
    with pytest.raises(SizeLimitError):
        extensions(PartialCycleSet.unrestricted(6))


def test_lex_min_reps_orbit_properties():
    for n in (2, 3, 4):
        reps = lex_min_reps(brute_force_all(n))
        perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        reps_list = sorted(reps)
        for idx, r in enumerate(reps_list):
            orbit = {apply_permutation(pi, r) for pi in perms}
            assert min(orbit) == r  # lex-min in its own orbit
            for other in reps_list[idx + 1 :]:
                assert other not in orbit  # pairwise non-isomorphic


def test_lex_min_reps_singleton_orbit():
    c = CycleSet.from_rows([[1, 2], [1, 2]])
    assert lex_min_reps({c}) == {c}
    both = brute_force_all(2)
    assert lex_min_reps(both) == both  # two orbits, each its own representative


def write_lines(path, lines):
    path.write_text("".join(s + "\n" for s in lines), encoding="utf-8")


def make_db(tmp_path, n):
    sols = sorted(lex_min_reps(brute_force_all(n)))
    f = tmp_path / f"db{n}.txt"
    write_lines(f, [c.to_line() for c in sols])
    return f, sols


def test_verify_clean_database(tmp_path):
    f, sols = make_db(tmp_path, 4)
    report = verify_database(str(f), 4)
    assert report.clean and report.entry_count == 23
    assert sum(report.per_diagonal_counts.values()) == 23
    assert "clean" in report.to_text()
    assert report.to_json_dict()["clean"] is True


def test_verify_orbit_sums_are_labelled_counts(tmp_path):
    # the lex-min cycle sets on the representative diagonals: their orbits
    # under each diagonal's centralizer cover its labelled cycle sets
    whole = brute_force_all(4)
    labelled, reps = {}, []
    for d in representative_diagonals(4):
        mats = [c for c in whole if c.diagonal_values() == d.values()]
        labelled[d.label()] = len(mats)
        reps.extend(c for c in mats if is_lex_min(c, d))
    f = tmp_path / "reps.txt"
    write_lines(f, [c.to_line() for c in sorted(reps)])
    report = verify_database(str(f), 4)
    assert report.clean
    assert report.orbit_sums == labelled
    assert report.to_json_dict()["orbit_sums"] == labelled
    assert f"    id: {report.per_diagonal_counts['id']} ({labelled['id']})" in report.to_text()


def test_verify_flags_non_lex_min(tmp_path):
    from cyclesat.symmetry import centralizer

    f, sols = make_db(tmp_path, 3)
    lines = [c.to_line() for c in sols]
    image = None
    for idx, victim in enumerate(sols):
        diag = Diagonal.from_values(victim.diagonal_values())
        for pi in centralizer(diag):
            cand = apply_permutation(pi, victim)
            if cand != victim:
                image = cand
                lines[idx] = image.to_line()
                tampered = idx + 1
                break
        if image is not None:
            break
    assert image is not None
    write_lines(f, lines)
    report = verify_database(str(f), 3)
    assert report.non_lex_min == [tampered]
    assert not report.clean


def test_verify_flags_duplicates_and_missing(tmp_path):
    f, sols = make_db(tmp_path, 3)
    lines = [c.to_line() for c in sols]
    lines[1] = lines[0]  # duplicate first entry, drop an orbit entirely
    write_lines(f, lines)
    report = verify_database(str(f), 3)
    assert report.duplicate_lines == [2]
    assert len(report.missing_orbits) == 1
    assert not report.clean


def test_verify_flags_axiom_failure(tmp_path):
    f = tmp_path / "bad.txt"
    write_lines(f, ["1 2 2 1"])  # degenerate diagonal
    report = verify_database(str(f), 2)
    assert report.axiom_failures == [1]


def test_verify_parse_errors(tmp_path):
    f = tmp_path / "short.txt"
    write_lines(f, ["1 2 1"])
    with pytest.raises(DatabaseParseError) as err:
        verify_database(str(f), 2)
    assert err.value.line_number == 1
    f2 = tmp_path / "alpha.txt"
    write_lines(f2, ["1 2 1 x"])
    with pytest.raises(DatabaseParseError):
        verify_database(str(f2), 2)
    f3 = tmp_path / "range.txt"
    write_lines(f3, ["1 2 1 7"])
    with pytest.raises(DatabaseParseError):
        verify_database(str(f3), 2)


def test_verify_per_diagonal_restriction(tmp_path):
    f, sols = make_db(tmp_path, 3)
    report = verify_database(str(f), 3, per_diagonal=Diagonal.identity(3))
    # entries with a different diagonal are their own finding, not axiom failures
    assert report.wrong_diagonal
    assert report.axiom_failures == []
    assert not report.clean
    assert report.to_json_dict()["wrong_diagonal"] == report.wrong_diagonal
    assert f"wrong-diagonal entries at lines: {', '.join(map(str, report.wrong_diagonal))}" in report.to_text()
    only_id = [c for c in sols if c.diagonal_values() == (1, 2, 3)]
    f2 = tmp_path / "id.txt"
    write_lines(f2, [c.to_line() for c in only_id])
    assert verify_database(str(f2), 3, per_diagonal=Diagonal.identity(3)).clean
