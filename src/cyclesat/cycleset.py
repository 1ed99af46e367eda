"""Cycle-set matrices, partial cycle sets, and the cell-wise comparison orders.

A cycle set of size n is an n x n matrix over {1..n} whose rows are
permutations, whose diagonal entries are pairwise distinct, and which
satisfies C[C[x,y], C[x,z]] == C[C[y,x], C[y,z]] for all x, y, z.

Cells are (row, col) pairs, 1-based, totally ordered row-major:
(1,1) < (1,2) < ... < (1,n) < (2,1) < ... < (n,n).  Values 1..n carry the
natural integer order.  Domains of partial cycle sets are bitmasks: bit
(v-1) set means value v is still possible.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import EmptyDomainError

Cell = tuple[int, int]


def cell_index(cell: Cell, n: int) -> int:
    i, j = cell
    return (i - 1) * n + (j - 1)


def mask_of(values: Iterable[int]) -> int:
    m = 0
    for v in values:
        m |= 1 << (v - 1)
    return m


def mask_min(mask: int) -> int:
    return (mask & -mask).bit_length()


def mask_values(mask: int) -> list[int]:
    vals = []
    v = 1
    while mask:
        if mask & 1:
            vals.append(v)
        mask >>= 1
        v += 1
    return vals


def full_mask(n: int) -> int:
    return (1 << n) - 1


class Permutation:
    """A permutation of {1..n}; images[x-1] is the image of x."""

    __slots__ = ("n", "images")

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        self.n = n
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        return Permutation(self.images[y - 1] for y in other.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


class CycleSet:
    """A complete n x n matrix over {1..n}, stored flat in row-major order.

    Construction validates only shape and value range; use
    satisfies_axioms() to test the cycle-set axioms themselves.
    """

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: Iterable[int]):
        entries = tuple(entries)
        if len(entries) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(entries)}")
        if any(v < 1 or v > n for v in entries):
            raise ValueError("entries must lie in 1..n")
        self.n = n
        self.entries = entries

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "CycleSet":
        rows = [tuple(r) for r in rows]
        return cls(len(rows), [v for row in rows for v in row])

    def entry(self, i: int, j: int) -> int:
        return self.entries[(i - 1) * self.n + (j - 1)]

    def rows(self) -> list[tuple[int, ...]]:
        n = self.n
        return [self.entries[r * n : (r + 1) * n] for r in range(n)]

    def diagonal_values(self) -> tuple[int, ...]:
        n = self.n
        return tuple(self.entries[k * n + k] for k in range(n))

    def to_line(self) -> str:
        return " ".join(str(v) for v in self.entries)

    @classmethod
    def from_line(cls, line: str) -> "CycleSet":
        parts = line.split()
        n = int(round(len(parts) ** 0.5))
        if n * n != len(parts):
            raise ValueError(f"{len(parts)} entries do not form a square matrix")
        return cls(n, [int(p) for p in parts])

    def __eq__(self, other) -> bool:
        return isinstance(other, CycleSet) and self.entries == other.entries

    def __lt__(self, other: "CycleSet") -> bool:
        return self.entries < other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"CycleSet.from_rows({[list(r) for r in self.rows()]})"


class PartialCycleSet:
    """An n x n matrix of non-empty candidate-value domains (bitmasks).

    A cell is defined iff its domain is a singleton.  When every cell is
    defined and the axioms hold the object corresponds to a CycleSet.
    """

    __slots__ = ("n", "domains")

    def __init__(self, n: int, domains: Iterable[int]):
        domains = tuple(domains)
        if len(domains) != n * n:
            raise ValueError(f"expected {n * n} domains, got {len(domains)}")
        full = full_mask(n)
        for idx, m in enumerate(domains):
            if m == 0:
                raise EmptyDomainError(f"empty domain at cell {divmod(idx, n)}")
            if m & ~full:
                raise ValueError("domain contains values outside 1..n")
        self.n = n
        self.domains = domains

    @classmethod
    def from_cycle_set(cls, c: CycleSet) -> "PartialCycleSet":
        return cls(c.n, [1 << (v - 1) for v in c.entries])

    @classmethod
    def unrestricted(cls, n: int) -> "PartialCycleSet":
        return cls(n, [full_mask(n)] * (n * n))

    def domain(self, i: int, j: int) -> int:
        return self.domains[(i - 1) * self.n + (j - 1)]

    def with_domain(self, cell: Cell, mask: int) -> "PartialCycleSet":
        if mask == 0:
            raise EmptyDomainError(f"empty domain at cell {cell}")
        idx = cell_index(cell, self.n)
        doms = list(self.domains)
        doms[idx] = mask
        return PartialCycleSet(self.n, doms)

    def is_complete(self) -> bool:
        return all(m & (m - 1) == 0 for m in self.domains)

    def __eq__(self, other) -> bool:
        return isinstance(other, PartialCycleSet) and self.domains == other.domains

    def __hash__(self) -> int:
        return hash(self.domains)

    def __repr__(self) -> str:
        n = self.n
        rows = [
            [mask_values(self.domains[r * n + c]) for c in range(n)]
            for r in range(n)
        ]
        return f"PartialCycleSet({n}, {rows})"


def satisfies_axioms(c: CycleSet) -> bool:
    """Row bijectivity, distinct diagonal, and the cycloid equation."""
    n = c.n
    e = c.entries
    for r in range(n):
        if len(set(e[r * n : (r + 1) * n])) != n:
            return False
    if len(set(e[k * n + k] for k in range(n))) != n:
        return False
    for x in range(n):
        for y in range(n):
            exy = e[x * n + y]
            eyx = e[y * n + x]
            for z in range(n):
                if e[(exy - 1) * n + e[x * n + z] - 1] != e[(eyx - 1) * n + e[y * n + z] - 1]:
                    return False
    return True


def apply_permutation(pi: Permutation, p):
    """Relabel a (partial) cycle set: result[i,j] = pi^-1(p[pi(i), pi(j)]).

    Accepts a CycleSet or a PartialCycleSet and returns the same type.
    """
    n = pi.n
    if p.n != n:
        raise ValueError(f"size mismatch: permutation of {n}, matrix of {p.n}")
    img = pi.images
    inv = [0] * (n + 1)
    for x, y in enumerate(img, start=1):
        inv[y] = x
    if isinstance(p, CycleSet):
        e = p.entries
        return CycleSet(
            n,
            [
                inv[e[(img[i - 1] - 1) * n + (img[j - 1] - 1)]]
                for i in range(1, n + 1)
                for j in range(1, n + 1)
            ],
        )
    doms = p.domains
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            src = doms[(img[i - 1] - 1) * n + (img[j - 1] - 1)]
            m = 0
            for v in mask_values(src):
                m |= 1 << (inv[v] - 1)
            out.append(m)
    return PartialCycleSet(n, out)


def strictly_below(p: PartialCycleSet, p2: PartialCycleSet) -> Optional[Cell]:
    """First cell where p is strictly below p2 with all earlier cells at-most.

    Returns the cell witnessing p <| p2, or None when no such cell exists.
    """
    if p.n != p2.n:
        raise ValueError("size mismatch")
    n = p.n
    da, db = p.domains, p2.domains
    for idx in range(n * n):
        hi = da[idx].bit_length()
        lo = (db[idx] & -db[idx]).bit_length()
        if hi < lo:
            return (idx // n + 1, idx % n + 1)
        if hi > lo:
            return None
    return None


def extract_partial(value, varmap) -> PartialCycleSet:
    """Read the partial cycle set out of a partial truth assignment.

    `value(var)` gives True, False or None (unassigned) for the matrix
    variables of `varmap`: `Solver.value` inside `solve`'s on_partial, or
    a dict's `get`.  A cell keeps every value whose indicator is not
    assigned false; diagonal cells are fixed by the varmap's diagonal.
    """
    n = varmap.n
    diag = varmap.diagonal_values
    doms = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                doms.append(1 << (diag[i - 1] - 1))
                continue
            m = 0
            for k, var in varmap.cell_vars(i, j):
                if value(var) is not False:
                    m |= 1 << (k - 1)
            if m == 0:
                raise EmptyDomainError(f"assignment empties cell {(i, j)}")
            doms.append(m)
    return PartialCycleSet(n, doms)

