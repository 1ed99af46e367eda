"""Ground-truth brute force: full enumeration, orbit reduction, database checks.

Everything here is deliberately simple and independent of the minimality
pipeline, so it can serve as the verification oracle for it.  Orbits are
reduced by materializing all n! images, which caps the usable size.  Above
that size, `labelled_count` counts every cycle set with a given diagonal
with the axiom CNF and the CDCL engine alone, and `verify_database` checks
a file against it through orbit sums: the orbits of a diagonal's
representatives under the centralizer must cover exactly that many.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Optional

from .cycleset import CycleSet, PartialCycleSet, Permutation, apply_permutation, full_mask, satisfies_axioms
from .encoding import encode_axioms
from .errors import DatabaseParseError, SizeLimitError
from .solver import PropagatorHooks, Solver
from .symmetry import Diagonal, centralizer

BRUTE_FORCE_MAX_N = 4
PER_DIAGONAL_MAX_N = 5
EXTENSIONS_MAX_N = 5
LEX_MIN_MAX_N = 5


def _cycloid_ok_prefix(rows: list[tuple[int, ...]], n: int) -> bool:
    """Cycloid triples whose lookups stay inside the already placed rows."""
    r = len(rows)
    for x in range(1, r + 1):
        row_x = rows[x - 1]
        for y in range(1, r + 1):
            row_y = rows[y - 1]
            cxy = row_x[y - 1]
            cyx = row_y[x - 1]
            if cxy > r or cyx > r:
                continue
            row_a = rows[cxy - 1]
            row_b = rows[cyx - 1]
            for z in range(n):
                if row_a[row_x[z] - 1] != row_b[row_y[z] - 1]:
                    return False
    return True


def _search_rows(n: int, row_candidates) -> list[CycleSet]:
    out = []
    rows: list[tuple[int, ...]] = []

    def rec(i: int):
        if i > n:
            c = CycleSet.from_rows(rows)
            if satisfies_axioms(c):
                out.append(c)
            return
        for row in row_candidates(i, rows):
            rows.append(row)
            if _cycloid_ok_prefix(rows, n):
                rec(i + 1)
            rows.pop()

    rec(1)
    return out


def brute_force_all(n: int) -> set[CycleSet]:
    """Every cycle set of size n, by exhausting row permutations."""
    if n > BRUTE_FORCE_MAX_N:
        raise SizeLimitError(
            f"brute_force_all is limited to n <= {BRUTE_FORCE_MAX_N}; "
            "use brute_force_diagonal for n = 5"
        )
    perms = list(itertools.permutations(range(1, n + 1)))

    def candidates(i: int, rows):
        taken = {rows[r][r] for r in range(len(rows))}
        return [p for p in perms if p[i - 1] not in taken]

    return set(_search_rows(n, candidates))


def extensions(p: PartialCycleSet) -> set[CycleSet]:
    """All complete cycle sets extending p, each row a permutation inside
    p's domains.  Test oracle, n <= 5."""
    n = p.n
    if n > EXTENSIONS_MAX_N:
        raise SizeLimitError(f"extensions() is limited to n <= {EXTENSIONS_MAX_N}")
    perms = list(itertools.permutations(range(1, n + 1)))
    by_row = {}
    for i in range(1, n + 1):
        doms = p.domains[(i - 1) * n : i * n]
        by_row[i] = [row for row in perms if all(d >> (v - 1) & 1 for d, v in zip(doms, row))]

    def candidates(i: int, rows):
        return by_row[i]

    return set(_search_rows(n, candidates))


def brute_force_diagonal(n: int, diagonal: Diagonal) -> set[CycleSet]:
    """Every cycle set of size n whose diagonal equals the given one."""
    if n > PER_DIAGONAL_MAX_N:
        raise SizeLimitError(f"brute_force_diagonal is limited to n <= {PER_DIAGONAL_MAX_N}")
    if diagonal.n != n:
        raise ValueError("diagonal size mismatch")
    diag = diagonal.values()
    full = full_mask(n)
    return extensions(PartialCycleSet(n, [1 << (diag[i] - 1) if i == j else full for i in range(n) for j in range(n)]))


def labelled_count(n: int, diagonal: Diagonal, method: str = "binary") -> int:
    """Number of cycle sets of size n whose diagonal equals the given one.

    Every model of the axiom CNF is counted and blocked on its matrix
    variables, which determine the rest of the model.  No symmetry breaking
    and no minimality check takes part, so nothing that could over-prune
    does.
    """
    cnf = encode_axioms(n, diagonal, method)
    matrix_vars = range(1, cnf.varmap.num_matrix_vars + 1)
    solver = Solver(cnf.num_vars, num_static=cnf.varmap.num_matrix_vars)
    solver.add_cnf(cnf.clauses)
    count = 0

    def count_and_block(model) -> list[int]:
        nonlocal count
        count += 1
        return [-v for v in matrix_vars if model[v]]

    solver.solve(hooks=PropagatorHooks(on_complete=count_and_block))
    return count


def lex_min_reps(sets) -> set[CycleSet]:
    """Lex-min representative of each orbit of the input under relabelling.

    The input is partitioned by the action pi(C)[i,j] = pi^-1(C[pi(i), pi(j)]);
    the smallest element of each class is returned.
    """
    items = sorted(sets)
    if not items:
        return set()
    n = items[0].n
    if n > LEX_MIN_MAX_N:
        raise SizeLimitError(f"lex_min_reps materializes all n! images; n <= {LEX_MIN_MAX_N}")
    if any(c.n != n for c in items):
        raise ValueError("mixed sizes")
    perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
    in_input = set(items)
    claimed: set[CycleSet] = set()
    reps: set[CycleSet] = set()
    for c in items:
        if c in claimed:
            continue
        reps.add(c)
        for pi in perms:
            img = apply_permutation(pi, c)
            if img in in_input:
                claimed.add(img)
    return reps


def is_lex_min(c: CycleSet, diagonal: Optional[Diagonal] = None) -> bool:
    """No centralizer permutation of the diagonal lowers the matrix."""
    if diagonal is None:
        diagonal = Diagonal.from_values(c.diagonal_values())
    for pi in centralizer(diagonal):
        if apply_permutation(pi, c).entries < c.entries:
            return False
    return True


def scan_centralizer(c: CycleSet, diagonal: Diagonal) -> tuple[bool, int]:
    """One pass over the centralizer of c's diagonal: whether no element
    lowers c, and how many fix it.  The second is |Aut(c)|, since every
    automorphism of c fixes its diagonal."""
    lex_min = True
    automorphisms = 0
    for pi in centralizer(diagonal):
        image = apply_permutation(pi, c).entries
        if image < c.entries:
            lex_min = False
        elif image == c.entries:
            automorphisms += 1
    return lex_min, automorphisms


@dataclass
class Report:
    """Findings from checking a solution database file."""

    n: int
    entry_count: int = 0
    axiom_failures: list[int] = field(default_factory=list)  # line numbers
    non_lex_min: list[int] = field(default_factory=list)
    duplicate_lines: list[int] = field(default_factory=list)
    missing_orbits: list[str] = field(default_factory=list)  # canonical lines
    per_diagonal_counts: dict[str, int] = field(default_factory=dict)
    # sum of |C(diagonal)| / |Aut(C)| over the entries: the labelled cycle
    # sets their orbits cover
    orbit_sums: dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not (
            self.axiom_failures
            or self.non_lex_min
            or self.duplicate_lines
            or self.missing_orbits
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "entries": self.entry_count,
            "clean": self.clean,
            "axiom_failures": self.axiom_failures,
            "non_lex_min": self.non_lex_min,
            "duplicate_lines": self.duplicate_lines,
            "missing_orbits": self.missing_orbits,
            "per_diagonal_counts": self.per_diagonal_counts,
            "orbit_sums": self.orbit_sums,
        }

    def to_text(self) -> str:
        lines = [f"database check: n={self.n}, {self.entry_count} entries"]
        for label, items in (
            ("axiom failures", self.axiom_failures),
            ("non-lex-min entries", self.non_lex_min),
            ("duplicate lines", self.duplicate_lines),
        ):
            if items:
                lines.append(f"  {label} at lines: {', '.join(map(str, items))}")
        if self.missing_orbits:
            lines.append(f"  missing orbits: {len(self.missing_orbits)}")
            lines.extend(f"    {s}" for s in self.missing_orbits)
        lines.append("  per-diagonal counts (orbit sum):")
        for key in sorted(self.per_diagonal_counts):
            lines.append(f"    {key}: {self.per_diagonal_counts[key]} ({self.orbit_sums[key]})")
        lines.append("  verdict: " + ("clean" if self.clean else "FINDINGS"))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def verify_database(path: str, n: int, per_diagonal: Optional[Diagonal] = None) -> Report:
    """Check a canonical-format solution file.

    Flags axiom violations, entries lowered by some centralizer permutation
    of their own diagonal, duplicate lines, and (n <= 4) orbits of the
    brute-force reference missing from the file.  Reports per-diagonal
    counts and orbit sums, which `labelled_count` can check at any size.
    When `per_diagonal` is given, every entry must carry exactly that
    diagonal.
    """
    report = Report(n=n)
    entries: list[CycleSet] = []
    seen_lines: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != n * n:
                raise DatabaseParseError(
                    f"expected {n * n} integers, found {len(parts)}", lineno
                )
            try:
                values = [int(p) for p in parts]
            except ValueError:
                raise DatabaseParseError("non-integer token", lineno) from None
            if any(v < 1 or v > n for v in values):
                raise DatabaseParseError("value out of range", lineno)
            c = CycleSet(n, values)
            key = c.to_line()
            if key in seen_lines:
                report.duplicate_lines.append(lineno)
            else:
                seen_lines[key] = lineno
            entries.append(c)
            report.entry_count += 1
            if not satisfies_axioms(c):
                report.axiom_failures.append(lineno)
                continue
            diag = Diagonal.from_values(c.diagonal_values())
            if per_diagonal is not None and diag != per_diagonal:
                report.axiom_failures.append(lineno)
                continue
            label = diag.label()
            report.per_diagonal_counts[label] = report.per_diagonal_counts.get(label, 0) + 1
            lex_min, automorphisms = scan_centralizer(c, diag)
            orbit = diag.centralizer_order() // automorphisms
            report.orbit_sums[label] = report.orbit_sums.get(label, 0) + orbit
            if not lex_min:
                report.non_lex_min.append(lineno)
    if n <= BRUTE_FORCE_MAX_N and per_diagonal is None:
        have = set(entries)
        perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        for rep in sorted(lex_min_reps(brute_force_all(n))):
            orbit_covered = any(apply_permutation(pi, rep) in have for pi in perms)
            if not orbit_covered:
                report.missing_orbits.append(rep.to_line())
    return report
