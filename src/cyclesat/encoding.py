"""CNF encoding of the cycle-set axioms for a fixed diagonal.

One-hot matrix variables v(i,j,k) say cell (i,j) holds value k.  With the
diagonal fixed, v(i,j,k) exists only for j != i and k != diag(i); clauses
touching fixed diagonal values are simplified during generation (satisfied
clauses dropped, false literals removed), keeping the numbering dense and
reproducible.  The cycloid equation is channelled through head variables
y(i,j,k,b), generated for i < j and k not in {i, j}, that hold exactly when
both sides of the equation evaluate to b.  For k in {i, j} one side falls
on the fixed diagonal, and the equation is written as direct clauses over
matrix variables alone.

Variable layout, in order: matrix variables (cells row-major, values
ascending, numbered by `VarMap`), then the y variables `encode_axioms`
allocates, then auxiliaries from the ExactlyOne encodings.  With the
default "binary" method only groups of 8 or more literals get auxiliaries,
so up to n = 7 there are none; at n = 8 only the head groups y(i,j,k,.)
have them.  "commander" adds them for groups of more than three.  Matrix
variables coming first is what the solver's branching order relies on; the
incremental minimality check numbers its copy of the matrix by the same
`VarMap`, and `matrix_literals` pins either instance to a cycle set.

`VarMap` is the one place that knows the matrix's structure: its `cells`
(the off-diagonal cells, row-major), its `groups` (the ExactlyOne families
over the matrix, one value per cell and one occurrence per row value, in
the order `encode_axioms` writes them) and `groups_of(var)`, a variable's
two groups, which clause shortening reads.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .cycleset import CycleSet
from .errors import MalformedModelError
from .symmetry import Diagonal

Clause = list[int]


class VarAllocator:
    """Hands out fresh 1-based variable indices."""

    def __init__(self, start_from: int = 1):
        self.next_var = start_from

    def fresh(self) -> int:
        v = self.next_var
        self.next_var += 1
        return v


# Largest group the "binary" method encodes pairwise: for every m up to it,
# pairwise at-most-one needs no more clauses than the bits,
# m(m-1)/2 <= m*ceil(log2 m); at m = 8 it needs 28 against 24.  (m = 9 ties
# again, 36 against 36, but stays on bits with every larger group.)
PAIRWISE_MAX = 7


def exactly_one(lits: list[int], method: str, alloc: VarAllocator) -> list[Clause]:
    """Clauses satisfied exactly when one of `lits` is true.

    binary: for m <= PAIRWISE_MAX = 7 inputs, pairwise at-most-one, with
    no auxiliary variable; larger groups get ceil(log2 m) auxiliary bits,
    each input implying its bit pattern.
    commander: groups of three with commander variables [KK07].
    """
    if not lits:
        raise ValueError("exactly_one over an empty set")
    if len(set(lits)) != len(lits):
        raise ValueError("exactly_one inputs must be distinct")
    if method == "binary":
        return _exactly_one_binary(lits, alloc)
    if method == "commander":
        return _exactly_one_commander(lits, alloc)
    raise ValueError(f"unknown ExactlyOne method {method!r}")


def _exactly_one_binary(lits: list[int], alloc: VarAllocator) -> list[Clause]:
    m = len(lits)
    if m <= PAIRWISE_MAX:
        return [list(lits)] + _at_most_one_pairwise(lits)
    nbits = (m - 1).bit_length()  # ceil(log2 m)
    bits = [alloc.fresh() for _ in range(nbits)]
    clauses: list[Clause] = [list(lits)]
    for idx, lit in enumerate(lits):
        for p in range(nbits):
            clauses.append([-lit, bits[p] if (idx >> p) & 1 else -bits[p]])
    return clauses


def _at_most_one_pairwise(lits: list[int]) -> list[Clause]:
    return [[-a, -b] for i, a in enumerate(lits) for b in lits[i + 1 :]]


def _exactly_one_commander(lits: list[int], alloc: VarAllocator, group: int = 3) -> list[Clause]:
    if len(lits) == 1:
        return [[lits[0]]]
    if len(lits) <= group:
        return [list(lits)] + _at_most_one_pairwise(lits)
    clauses: list[Clause] = []
    commanders = []
    for start in range(0, len(lits), group):
        chunk = lits[start : start + group]
        cmd = alloc.fresh()
        clauses.extend(_at_most_one_pairwise(chunk))
        clauses.append([-cmd] + chunk)
        clauses.extend([-x, cmd] for x in chunk)
        commanders.append(cmd)
    clauses.extend(_exactly_one_commander(commanders, alloc, group))
    return clauses


class VarMap:
    """Numbering and structure of the matrix variables v(i,j,k) of one
    (n, diagonal): variables 1..num_matrix_vars, off-diagonal cells
    row-major, values ascending, skipping each row's diagonal value.

    `cells` lists the off-diagonal cells in that order.  `groups` are the
    ExactlyOne families over the matrix, in the order the axiom CNF writes
    them: each cell's variables, then per row i and value k != diag(i) the
    variables of k over the columns j != i.  `groups_of(var)` gives a
    variable's cell group and its row-value group."""

    def __init__(self, n: int, diagonal: Diagonal):
        self.n = n
        self.diagonal = diagonal
        self.diagonal_values = diag = diagonal.values()
        self.cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        self._matrix: dict[tuple[int, int, int], int] = {}
        self._cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i, j in self.cells:
            pairs = []
            for k in range(1, n + 1):
                if k != diag[i - 1]:
                    var = len(self._matrix) + 1
                    self._matrix[(i, j, k)] = var
                    pairs.append((k, var))
            self._cells[(i, j)] = pairs
        self.num_matrix_vars = len(self._matrix)
        self._triple = {var: t for t, var in self._matrix.items()}
        by_cell = {c: [var for _, var in pairs] for c, pairs in self._cells.items()}
        by_row_value = {(i, k): [self._matrix[(i, j, k)] for j in range(1, n + 1) if j != i]
                        for i in range(1, n + 1) for k in range(1, n + 1) if k != diag[i - 1]}
        self.groups = [*by_cell.values(), *by_row_value.values()]
        self._groups_of = {var: (by_cell[(i, j)], by_row_value[(i, k)])
                           for (i, j, k), var in self._matrix.items()}

    def matrix_var(self, i: int, j: int, k: int) -> Optional[int]:
        return self._matrix.get((i, j, k))

    def cell_vars(self, i: int, j: int) -> list[tuple[int, int]]:
        """(value, variable) pairs for an off-diagonal cell."""
        return self._cells[(i, j)]

    def groups_of(self, var: int) -> tuple[list[int], list[int]]:
        """The cell group and the row-value group of a matrix variable."""
        return self._groups_of[var]

    def triple_of(self, var: int) -> Optional[tuple[int, int, int]]:
        return self._triple.get(var)

    def sidecar_text(self) -> str:
        lines = [f"v {i} {j} {k} {var}" for (i, j, k), var in sorted(self._matrix.items())]
        return "\n".join(lines) + "\n"


def matrix_literals(c: CycleSet, varmap: VarMap) -> list[int]:
    """Literals pinning every matrix variable of `varmap` to the cycle set
    `c`, in variable order: positive for the value c holds, negative for
    the others."""
    return [var if c.entry(i, j) == k else -var
            for i, j in varmap.cells for k, var in varmap.cell_vars(i, j)]


class Cnf:
    """A clause list with its variable count and variable map."""

    def __init__(self, clauses: list[Clause], num_vars: int, varmap: VarMap):
        self.clauses = clauses
        self.num_vars = num_vars
        self.varmap = varmap

    def to_dimacs(self) -> str:
        out = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        out.extend(" ".join(str(l) for l in cl) + " 0" for cl in self.clauses)
        return "\n".join(out) + "\n"


def _cycloid_links(vm: VarMap, row: int, col_a: int, col_b: int, heads: list[int]) -> Iterable[Clause]:
    """Clauses forcing heads[b - 1] true when C[C[row,col_a], C[row,col_b]] = b,
    for a column col_b other than row and col_a.

    Then x = C[row,col_a] and y = C[row,col_b] differ, so the inner cell
    (x, y) is off the diagonal and cannot hold diag(x).  Combinations
    impossible under row bijectivity or the fixed diagonal are skipped, and
    so is every link holding both literals of a binary clause of the CNF:
    - x = row puts the inner cell (row, y) in the link's row.  For y in
      {col_a, col_b} it is the cell of var_a or var_b, whose ExactlyOne
      excludes every value but that literal's own; that one link repeats
      the literal and is written with it once.  Otherwise b = x repeats
      var_a's row value and b = y var_b's.
    - y = row with x = col_a and b = x, or with x = col_b and b = y, sets
      C[row, x] = C[x, row] = b, the binary clause `_diagonal_instances`
      writes when both cells hold one value.
    """
    n, diag = vm.n, vm.diagonal_values
    for x, var_a in vm.cell_vars(row, col_a):
        t_x = diag[x - 1]
        for y, var_b in vm.cell_vars(row, col_b):
            if y == x:
                continue
            lits = [-var_a, -var_b]
            if x == row:
                if y == col_a or y == col_b:
                    yield lits + [heads[(x if y == col_a else y) - 1]]
                    continue
                skip = (x, y)
            elif y == row:
                skip = (x,) if x == col_a else (y,) if x == col_b else ()
            else:
                skip = ()
            for b in range(1, n + 1):
                if b != t_x and b not in skip:
                    yield lits + [-vm.matrix_var(x, y, b), heads[b - 1]]


def _diagonal_instances(vm: VarMap, i: int, j: int) -> Iterable[Clause]:
    """The cycloid equation for the pair (i, j) with k = i and with k = j.

    With x = C[i,j] and y = C[j,i], k = i reads C[x, t_i] = C[y, y] = t_y
    and k = j reads C[x, x] = t_x = C[y, t_j], where t is the diagonal.
    Rows are permutations, so x != t_i and y != t_j, and both cells are
    off the diagonal.  Neither can hold t_x when y = x: then the two
    instances are one binary clause.  A clause whose third literal is the
    negation of one of the first two holds on every matrix and is skipped.
    """
    diag = vm.diagonal_values
    ti, tj = diag[i - 1], diag[j - 1]
    for x, vx in vm.cell_vars(i, j):
        for y, vy in vm.cell_vars(j, i):
            if y == x:
                yield [-vx, -vy]
                continue
            for third in (vm.matrix_var(x, ti, diag[y - 1]), vm.matrix_var(y, tj, diag[x - 1])):
                if third != vx and third != vy:
                    yield [-vx, -vy, third]


def encode_axioms(n: int, diagonal: Diagonal, method: str = "binary") -> Cnf:
    """CNF whose models, projected to matrix variables, are exactly the
    cycle sets of size n with the given diagonal.

    Clauses, in order: ExactlyOne per cell, ExactlyOne per row value, then
    per pair i < j the direct clauses of the instances k = i and k = j,
    followed by the head links and head ExactlyOne of every k not in
    {i, j}.  The heads y(i,j,k,b) are numbered right after the matrix, in
    that order of (i, j, k), then b ascending."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if diagonal.n != n:
        raise ValueError("diagonal size mismatch")
    vm = VarMap(n, diagonal)
    alloc = VarAllocator(vm.num_matrix_vars + 1)
    heads = {
        (i, j, k): [alloc.fresh() for _ in range(n)]
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for k in range(1, n + 1)
        if k != i and k != j
    }
    # each cell takes exactly one value, each value occurs exactly once per
    # row (diagonal occurrences excluded)
    clauses = [cl for group in vm.groups for cl in exactly_one(group, method, alloc)]
    # cycloid equation per pair i < j: direct clauses where one side lies on
    # the diagonal, shared head variables for both sides everywhere else
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            clauses.extend(_diagonal_instances(vm, i, j))
            for k in range(1, n + 1):
                if k == i or k == j:
                    continue
                head = heads[(i, j, k)]
                clauses.extend(_cycloid_links(vm, i, j, k, head))
                clauses.extend(_cycloid_links(vm, j, i, k, head))
                clauses.extend(exactly_one(head, method, alloc))
    return Cnf(clauses, alloc.next_var - 1, vm)


def lex_leader_family(diagonal: Diagonal) -> list[list[int]]:
    """The centralizer elements the static clauses break, as image lists
    (tau[x] is the image of x, tau[0] unused).

    Each cycle is written from its least element, cycles ordered by it.
    First the aligned swaps a_t <-> b_t of every two cycles of equal
    length, which on two fixed points are their transposition; then, for
    every cycle of length >= 2, its rotation by one step (x -> diag(x) on
    that cycle, identity elsewhere), the half-turn on a 2-cycle.
    """
    n = diagonal.n
    cycles = []
    for cyc in diagonal.cycles:
        start = cyc.index(min(cyc))
        cycles.append(cyc[start:] + cyc[:start])
    cycles.sort()
    family = []
    for ca, cb in itertools.combinations(cycles, 2):
        if len(ca) == len(cb):
            tau = list(range(n + 1))
            for a, b in zip(ca, cb):
                tau[a], tau[b] = b, a
            family.append(tau)
    for cyc in cycles:
        if len(cyc) >= 2:
            tau = list(range(n + 1))
            for x in cyc:
                tau[x] = diagonal.value(x)
            family.append(tau)
    return family


def lex_leader_clauses(vm: VarMap, first_var: int) -> tuple[list[Clause], int]:
    """Static symmetry breaking: M <= tau(M) for every tau of
    `lex_leader_family(diagonal)`.

    These are the lex-leader predicates of Crawford, Ginsberg, Luks and Roy
    (KR 1996), in the linear chain form.  Each tau commutes with the
    diagonal, so a lexicographically minimal cycle set satisfies all of
    them: they remove no representative, only assignments the minimality
    check would reject.  The comparison walks the off-diagonal cells in the
    row-major order of the check (diagonal cells are equal under tau),
    following tau(M)[c] = tau^-1(M[tau c]):
    - on a cell tau fixes, tau(M) is below M where tau^-1(M[c]) < M[c],
      and equal where tau^-1 fixes M[c];
    - on any other cell, tau(M)[c] = k' exactly when M[tau c] = tau(k').
    When tau is an involution, a cell whose image tau(c) comes earlier is
    skipped: equality at tau(c) gives M[c] = tau(M[tau c]), which is
    tau(M)[c] when tau = tau^-1.  For a rotation of length >= 3 that
    fails, and its chain compares every off-diagonal cell.  A chain
    variable e_t per compared cell means "all earlier cells are equal"; it
    is defined in both directions, so a full matrix assignment fixes every
    chain variable and the solver never branches on one.

    Chain variables are numbered from `first_var`.  Returns the clauses and
    the variable count including the chain variables.
    """
    n = vm.n
    alloc = VarAllocator(first_var)
    clauses: list[Clause] = []
    cells = vm.cells
    for tau in lex_leader_family(vm.diagonal):
        inv = [0] * (n + 1)
        for x in range(1, n + 1):
            inv[tau[x]] = x
        if inv == tau:
            compared = [(i, j) for i, j in cells if (tau[i], tau[j]) >= (i, j)]
        else:
            compared = cells
        prefix: list[int] = []  # [-e_t], or nothing before the first cell
        for i, j in compared:
            pairs = vm.cell_vars(i, j)
            if (tau[i], tau[j]) == (i, j):
                clauses.extend(prefix + [-var] for k, var in pairs if inv[k] < k)
                if (i, j) == compared[-1]:
                    break
                nxt = alloc.fresh()
                for k, var in pairs:
                    if inv[k] == k:
                        clauses.append(prefix + [-var, nxt])
                    else:
                        clauses.append([-nxt, -var])
            else:
                # tau maps the row's missing value diag(i) to diag(tau i),
                # so every image variable exists
                image = {k: vm.matrix_var(tau[i], tau[j], tau[k]) for k, _ in pairs}
                for k, var in pairs:
                    for k2, _ in pairs:
                        if k2 < k:
                            clauses.append(prefix + [-var, -image[k2]])
                if (i, j) == compared[-1]:
                    break
                nxt = alloc.fresh()
                for k, var in pairs:
                    clauses.append(prefix + [-var, -image[k], nxt])
                    clauses.append([-nxt, -var, image[k]])
            if prefix:
                clauses.append([-nxt, -prefix[0]])
            prefix = [-nxt]
    return clauses, alloc.next_var - 1


def decode_model(model, varmap: VarMap) -> CycleSet:
    """Matrix from the unique true indicator per cell plus the fixed diagonal."""
    n = varmap.n
    diag = varmap.diagonal_values
    entries = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                entries.append(diag[i - 1])
                continue
            hits = [k for k, var in varmap.cell_vars(i, j) if model[var]]
            if len(hits) != 1:
                raise MalformedModelError(f"cell {(i, j)} has {len(hits)} true indicators")
            entries.append(hits[0])
    return CycleSet(n, entries)
