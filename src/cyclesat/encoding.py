"""CNF encoding of the cycle-set axioms for a fixed diagonal.

One-hot matrix variables v(i,j,k) say cell (i,j) holds value k.  With the
diagonal fixed, v(i,j,k) exists only for j != i and k != diag(i); clauses
touching fixed diagonal values are simplified during generation (satisfied
clauses dropped, false literals removed), keeping the numbering dense and
reproducible.  The cycloid equation is channelled through head variables
y(i,j,k,b), generated for i < j, that hold exactly when both sides of the
equation evaluate to b.

Variable layout, in order: matrix variables (cells row-major, values
ascending), then y variables, then auxiliaries from the ExactlyOne
encodings.  Matrix variables coming first is what the solver's branching
order relies on.
"""

from __future__ import annotations

import itertools
import math
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


def exactly_one(lits: list[int], method: str, alloc: VarAllocator) -> list[Clause]:
    """Clauses satisfied exactly when one of `lits` is true.

    binary: ceil(log2 m) auxiliary bits, each input implies its bit
    pattern.  commander: groups of three with commander variables [KK07].
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
    if m == 1:
        return [[lits[0]]]
    nbits = max(1, math.ceil(math.log2(m)))
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
    """Variable numbering for one (n, diagonal) instance."""

    def __init__(self, n: int, diagonal: Diagonal, method: str):
        self.n = n
        self.diagonal = diagonal
        self.method = method
        self.diagonal_values = diagonal.values()
        alloc = VarAllocator()
        self._matrix: dict[tuple[int, int, int], int] = {}
        self._cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i in range(1, n + 1):
            ti = self.diagonal_values[i - 1]
            for j in range(1, n + 1):
                if j == i:
                    continue
                pairs = []
                for k in range(1, n + 1):
                    if k == ti:
                        continue
                    var = alloc.fresh()
                    self._matrix[(i, j, k)] = var
                    pairs.append((k, var))
                self._cells[(i, j)] = pairs
        self.num_matrix_vars = alloc.next_var - 1
        self._y: dict[tuple[int, int, int, int], int] = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(1, n + 1):
                    for b in range(1, n + 1):
                        self._y[(i, j, k, b)] = alloc.fresh()
        self.alloc = alloc
        self._triple = {var: t for t, var in self._matrix.items()}

    def matrix_var(self, i: int, j: int, k: int) -> Optional[int]:
        return self._matrix.get((i, j, k))

    def cell_vars(self, i: int, j: int) -> list[tuple[int, int]]:
        """(value, variable) pairs for an off-diagonal cell."""
        return self._cells[(i, j)]

    def row_value_vars(self, i: int, k: int) -> list[tuple[int, int]]:
        """(column, variable) pairs for value k in row i."""
        return [(j, self._matrix[(i, j, k)]) for j in range(1, self.n + 1) if j != i]

    def y_var(self, i: int, j: int, k: int, b: int) -> int:
        return self._y[(i, j, k, b)]

    def triple_of(self, var: int) -> Optional[tuple[int, int, int]]:
        return self._triple.get(var)

    @property
    def num_vars(self) -> int:
        return self.alloc.next_var - 1

    def sidecar_text(self) -> str:
        lines = [f"v {i} {j} {k} {var}" for (i, j, k), var in sorted(self._matrix.items())]
        return "\n".join(lines) + "\n"


class Cnf:
    """A clause list with its variable count and variable map."""

    def __init__(self, clauses: list[Clause], num_vars: int, varmap: Optional[VarMap] = None):
        self.clauses = clauses
        self.num_vars = num_vars
        self.varmap = varmap

    def to_dimacs(self) -> str:
        out = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        out.extend(" ".join(str(l) for l in cl) + " 0" for cl in self.clauses)
        return "\n".join(out) + "\n"


def _cycloid_links(n: int, diag: tuple[int, ...], vm: VarMap, row: int, col_a: int, col_b: int, head_key: tuple[int, int, int]) -> Iterable[Clause]:
    """Clauses forcing y(head_key, b) true when C[C[row,col_a], C[row,col_b]] = b.

    Combinations impossible under row bijectivity or the fixed diagonal are
    skipped; literals on fixed cells are dropped, and so are repeats, which
    arise when the inner cell (x, y) lies in `row`.
    """
    t_row = diag[row - 1]
    i0, j0, k0 = head_key
    for x in range(1, n + 1):
        if x == t_row:
            continue
        lit_a = -vm.matrix_var(row, col_a, x)
        if col_b == row:
            y_vals = [diag[row - 1]]
        elif col_b == col_a:
            y_vals = [x]
        else:
            y_vals = [y for y in range(1, n + 1) if y != t_row and y != x]
        for y in y_vals:
            lits = [lit_a]
            if col_b != row and col_b != col_a:
                lits.append(-vm.matrix_var(row, col_b, y))
            if y == x:
                yield lits + [vm.y_var(i0, j0, k0, diag[x - 1])]
                continue
            t_x = diag[x - 1]
            for b in range(1, n + 1):
                if b == t_x:
                    continue
                inner = -vm.matrix_var(x, y, b)
                if inner in lits:
                    yield lits + [vm.y_var(i0, j0, k0, b)]
                else:
                    yield lits + [inner, vm.y_var(i0, j0, k0, b)]


def encode_axioms(n: int, diagonal: Diagonal, method: str = "binary") -> Cnf:
    """CNF whose models, projected to matrix variables, are exactly the
    cycle sets of size n with the given diagonal."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if diagonal.n != n:
        raise ValueError("diagonal size mismatch")
    vm = VarMap(n, diagonal, method)
    diag = vm.diagonal_values
    clauses: list[Clause] = []

    # each cell takes exactly one value
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j != i:
                clauses.extend(exactly_one([v for _, v in vm.cell_vars(i, j)], method, vm.alloc))
    # each value occurs exactly once per row (diagonal occurrences excluded)
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            if k == diag[i - 1]:
                continue
            clauses.extend(exactly_one([v for _, v in vm.row_value_vars(i, k)], method, vm.alloc))
    # cycloid equation through shared head variables, both sides per pair i < j
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                key = (i, j, k)
                clauses.extend(_cycloid_links(n, diag, vm, i, j, k, key))
                clauses.extend(_cycloid_links(n, diag, vm, j, i, k, key))
                clauses.extend(
                    exactly_one([vm.y_var(i, j, k, b) for b in range(1, n + 1)], method, vm.alloc)
                )
    return Cnf(clauses, vm.num_vars, vm)


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
                tau[x] = diagonal.successor(x)
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
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
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
