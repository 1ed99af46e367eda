"""Diagonals as permutations, conjugacy-class representatives, and
centralizers.

Only the symmetric group machinery this enumeration needs lives here: the
diagonal of a cycle set viewed as a permutation in cycle form, one
representative diagonal per integer partition of n, and membership tests
for and enumeration of the centralizer of a diagonal.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, Iterator

from .cycleset import Permutation
from .errors import SizeLimitError

PARTITIONS_MAX_N = 16


def integer_partitions(n: int) -> list[list[int]]:
    """All partitions of n as weakly decreasing part lists, reverse-lex order."""
    if not 1 <= n <= PARTITIONS_MAX_N:
        raise SizeLimitError(f"integer_partitions supports 1 <= n <= {PARTITIONS_MAX_N}")
    out: list[list[int]] = []

    def rec(remaining: int, max_part: int, acc: list[int]):
        if remaining == 0:
            out.append(acc.copy())
            return
        for part in range(min(remaining, max_part), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence, for cross-checks."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                p[m] += sign * p[m - g1]
            if g2 <= m:
                p[m] += sign * p[m - g2]
            k += 1
    return p[n]


class Diagonal:
    """A permutation of {1..n} in cycle form, fixing the matrix diagonal.

    `cycles` are disjoint, cover 1..n, and each is cyclically ordered;
    `value(x)` is the next element of x's cycle, i.e. the value the
    permutation assigns to x.
    """

    __slots__ = ("n", "cycles", "_succ", "_cycle_len")

    def __init__(self, n: int, cycles: Iterable[Iterable[int]]):
        cycles = tuple(tuple(c) for c in cycles)
        succ = [0] * (n + 1)
        cycle_len = [0] * (n + 1)
        seen: set[int] = set()
        for cyc in cycles:
            if not cyc:
                raise ValueError("empty cycle")
            for idx, x in enumerate(cyc):
                if x in seen or not 1 <= x <= n:
                    raise ValueError(f"bad cycle element {x}")
                seen.add(x)
                succ[x] = cyc[(idx + 1) % len(cyc)]
                cycle_len[x] = len(cyc)
        if len(seen) != n:
            raise ValueError("cycles do not cover 1..n")
        self.n = n
        self.cycles = cycles
        self._succ = tuple(succ)
        self._cycle_len = tuple(cycle_len)

    @classmethod
    def identity(cls, n: int) -> "Diagonal":
        return cls(n, [(x,) for x in range(1, n + 1)])

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "Diagonal":
        """Build from the list of images (values[x-1] is the image of x)."""
        values = tuple(values)
        n = len(values)
        if sorted(values) != list(range(1, n + 1)):
            raise ValueError("diagonal values must form a permutation")
        seen = [False] * (n + 1)
        cycles = []
        for s in range(1, n + 1):
            if seen[s]:
                continue
            cyc = []
            x = s
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = values[x - 1]
            cycles.append(tuple(cyc))
        return cls(n, cycles)

    def value(self, x: int) -> int:
        """Image of x, i.e. the matrix entry at cell (x, x)."""
        return self._succ[x]

    def values(self) -> tuple[int, ...]:
        return self._succ[1:]

    def cycle_len(self, x: int) -> int:
        return self._cycle_len[x]

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles), reverse=True))

    def centralizer_order(self) -> int:
        """Size of the centralizer: the product over cycle lengths l of
        l**m * m!, where m is the number of cycles of length l."""
        order = 1
        for length, m in Counter(len(c) for c in self.cycles).items():
            order *= length**m * math.factorial(m)
        return order

    def label(self) -> str:
        """Cycle notation with fixed points omitted; 'id' for the identity."""
        parts = [c for c in self.cycles if len(c) > 1]
        if not parts:
            return "id"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in parts)

    @classmethod
    def parse(cls, text: str, n: int) -> "Diagonal":
        """Parse cycle notation like '(1 2)(3 4)'; fixed points may be omitted."""
        text = text.strip()
        if text in ("id", "()", ""):
            return cls.identity(n)
        if text.count("(") != text.count(")") or not text.startswith("("):
            raise ValueError(f"malformed cycle notation: {text!r}")
        cycles = []
        used: set[int] = set()
        for chunk in text.replace(")", ")\x00").split("\x00"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if not (chunk.startswith("(") and chunk.endswith(")")):
                raise ValueError(f"malformed cycle notation: {text!r}")
            body = chunk[1:-1].replace(",", " ")
            elems = tuple(int(t) for t in body.split())
            if not elems:
                raise ValueError(f"empty cycle in {text!r}")
            cycles.append(elems)
            used.update(elems)
        if len(used) != sum(len(c) for c in cycles):
            raise ValueError(f"repeated element in {text!r}")
        if any(x < 1 or x > n for x in used):
            raise ValueError(f"cycle element out of range 1..{n} in {text!r}")
        for x in range(1, n + 1):
            if x not in used:
                cycles.append((x,))
        return cls(n, cycles)

    def __eq__(self, other) -> bool:
        return isinstance(other, Diagonal) and self._succ == other._succ

    def __hash__(self) -> int:
        return hash(self._succ)

    def __repr__(self) -> str:
        return f"Diagonal.parse({self.label()!r}, {self.n})"


def diagonal_from_partition(partition: Iterable[int]) -> Diagonal:
    """Canonical conjugacy-class representative for a partition of n.

    Parts are consumed in the given weakly decreasing order, each on the
    next run of consecutive elements: [2, 2, 1] -> (1 2)(3 4)(5).
    """
    partition = list(partition)
    if any(p < 1 for p in partition):
        raise ValueError("partition parts must be positive")
    if sorted(partition, reverse=True) != partition:
        raise ValueError("partition must be weakly decreasing")
    n = sum(partition)
    cycles = []
    start = 1
    for part in partition:
        cycles.append(tuple(range(start, start + part)))
        start += part
    return Diagonal(n, cycles)


def representative_diagonals(n: int) -> list[Diagonal]:
    """One diagonal per conjugacy class of S_n, in partition order."""
    return [diagonal_from_partition(p) for p in integer_partitions(n)]


def fixes_diagonal(pi: Permutation, diag: Diagonal) -> bool:
    """True iff pi commutes with the diagonal permutation."""
    if pi.n != diag.n:
        raise ValueError("size mismatch")
    succ = diag._succ
    return all(pi(succ[x]) == succ[pi(x)] for x in range(1, diag.n + 1))


def centralizer(diag: Diagonal) -> Iterator[Permutation]:
    """All permutations commuting with the diagonal.

    Enumerated structurally: a bijection between same-length cycles plus a
    rotation offset per cycle.  Deterministic order.
    """
    n = diag.n
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for cyc in diag.cycles:
        by_len.setdefault(len(cyc), []).append(cyc)
    lengths = sorted(by_len)
    groups = [by_len[ln] for ln in lengths]

    def assemble(choice_per_len: list[tuple[tuple[int, ...], ...]], offsets: list[tuple[int, ...]]) -> Permutation:
        images = [0] * (n + 1)
        for grp, perm_cycles, offs in zip(groups, choice_per_len, offsets):
            for src, dst, off in zip(grp, perm_cycles, offs):
                ln = len(src)
                for idx, x in enumerate(src):
                    images[x] = dst[(idx + off) % ln]
        return Permutation(images[1:])

    choice_spaces = [list(itertools.permutations(grp)) for grp in groups]
    offset_spaces = [
        list(itertools.product(range(ln), repeat=len(by_len[ln]))) for ln in lengths
    ]
    for choices in itertools.product(*choice_spaces):
        for offs in itertools.product(*offset_spaces):
            yield assemble(list(choices), list(offs))

