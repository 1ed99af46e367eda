"""Diagonals as permutations, conjugacy-class representatives, centralizers,
and the ordered-partition representation of sets of permutations.

Only the symmetric group machinery this enumeration needs lives here: the
diagonal of a cycle set viewed as a permutation in cycle form, one
representative diagonal per integer partition of n, membership tests for
the centralizer of a diagonal, and partial permutations refined during the
witness search.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, Iterator, Optional

from .cycleset import Permutation
from .errors import InconsistentRefinement, SizeLimitError

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
    `successor(x)` is the next element of x's cycle, i.e. the value the
    permutation assigns to x.
    """

    __slots__ = ("n", "cycles", "_succ", "_cycle_of", "_cycle_len")

    def __init__(self, n: int, cycles: Iterable[Iterable[int]]):
        cycles = tuple(tuple(c) for c in cycles)
        succ = [0] * (n + 1)
        cycle_of: list[Optional[tuple[int, ...]]] = [None] * (n + 1)
        seen: set[int] = set()
        for cyc in cycles:
            if not cyc:
                raise ValueError("empty cycle")
            for idx, x in enumerate(cyc):
                if x in seen or not 1 <= x <= n:
                    raise ValueError(f"bad cycle element {x}")
                seen.add(x)
                succ[x] = cyc[(idx + 1) % len(cyc)]
                cycle_of[x] = cyc
        if len(seen) != n:
            raise ValueError("cycles do not cover 1..n")
        self.n = n
        self.cycles = cycles
        self._succ = tuple(succ)
        self._cycle_of = tuple(cycle_of)
        self._cycle_len = tuple(0 if c is None else len(c) for c in cycle_of)

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

    def successor(self, x: int) -> int:
        return self._succ[x]

    def value(self, x: int) -> int:
        """Image of x, i.e. the matrix entry at cell (x, x)."""
        return self._succ[x]

    def values(self) -> tuple[int, ...]:
        return self._succ[1:]

    def cycle_of(self, x: int) -> tuple[int, ...]:
        return self._cycle_of[x]

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

    def to_permutation(self) -> Permutation:
        return Permutation(self.values())

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


class PartialPermutation:
    """A set of candidate permutations as an ordered list of blocks.

    Each block pairs a group of preimages with the group of their candidate
    images (equal sizes, image order as written).  For the initial
    partitions built here the preimage groups are consecutive runs, giving
    the ordered-partition reading: earlier blocks hold the images of
    earlier elements.  extract_permutation() zips each block's preimages
    with its images in written order.
    """

    __slots__ = ("n", "blocks", "fwd", "inv")

    def __init__(self, n: int, blocks: Iterable[tuple[tuple[int, ...], tuple[int, ...]]]):
        blocks = tuple((tuple(pre), tuple(img)) for pre, img in blocks)
        pre_all = [x for pre, _ in blocks for x in pre]
        img_all = [y for _, img in blocks for y in img]
        if sorted(pre_all) != list(range(1, n + 1)) or sorted(img_all) != list(range(1, n + 1)):
            raise ValueError("blocks must partition 1..n on both sides")
        if any(len(pre) != len(img) for pre, img in blocks):
            raise ValueError("preimage and image groups must have equal sizes")
        self.n = n
        self.blocks = blocks
        fwd = {}
        inv = {}
        for pre, img in blocks:
            if len(pre) == 1:
                fwd[pre[0]] = img[0]
                inv[img[0]] = pre[0]
        self.fwd = fwd
        self.inv = inv

    @classmethod
    def from_image_blocks(cls, blocks: Iterable[Iterable[int]]) -> "PartialPermutation":
        """Ordered partition of the image space; preimages are consecutive runs."""
        blocks = [tuple(b) for b in blocks]
        n = sum(len(b) for b in blocks)
        out = []
        pos = 1
        for img in blocks:
            out.append((tuple(range(pos, pos + len(img))), img))
            pos += len(img)
        return cls(n, out)

    @classmethod
    def initial(cls, diag: Diagonal) -> "PartialPermutation":
        """Group elements by the cycle length they have in `diag`.

        Only same-length cycles can map onto each other, so each class is a
        block mapping onto itself.  Blocks are ordered by smallest element.
        """
        by_len: dict[int, list[int]] = {}
        for x in range(1, diag.n + 1):
            by_len.setdefault(diag.cycle_len(x), []).append(x)
        classes = sorted(by_len.values(), key=min)
        return cls(diag.n, [(tuple(c), tuple(c)) for c in classes])

    def candidates(self, x: int) -> tuple[int, ...]:
        """Possible images of x."""
        for pre, img in self.blocks:
            if x in pre:
                return img
        raise ValueError(f"element {x} not covered")

    def candidate_preimages(self, y: int) -> tuple[int, ...]:
        """Possible preimages of the value y."""
        for pre, img in self.blocks:
            if y in img:
                return pre
        raise ValueError(f"value {y} not covered")

    def is_complete(self) -> bool:
        return len(self.fwd) == self.n

    def fix(self, x: int, image: int) -> "PartialPermutation":
        """Fix x -> image (single element, no cycle propagation)."""
        if self.fwd.get(x) == image:
            return self
        new_blocks = []
        hit = False
        for pre, img in self.blocks:
            if x in pre:
                if image not in img:
                    raise InconsistentRefinement(f"{image} not a candidate image of {x}")
                rest_pre = tuple(e for e in pre if e != x)
                rest_img = tuple(v for v in img if v != image)
                new_blocks.append(((x,), (image,)))
                if rest_pre:
                    new_blocks.append((rest_pre, rest_img))
                hit = True
            else:
                if image in img:
                    raise InconsistentRefinement(f"{image} already reserved for another block")
                new_blocks.append((pre, img))
        if not hit:
            raise InconsistentRefinement(f"element {x} not covered")
        new_blocks.sort(key=lambda b: min(b[0]))
        return PartialPermutation(self.n, new_blocks)


def propagate_cycle(pp: PartialPermutation, diag: Diagonal, x: int, image: int) -> PartialPermutation:
    """Fix pi(x) = image and everything the diagonal then forces.

    Every element of x's cycle is fixed to the corresponding element of
    image's cycle; bijectivity is re-enforced by the block splits.
    """
    if diag.cycle_len(x) != diag.cycle_len(image):
        raise InconsistentRefinement(
            f"cycle length mismatch: |cycle({x})| = {diag.cycle_len(x)}, |cycle({image})| = {diag.cycle_len(image)}"
        )
    cur = pp
    a, b = x, image
    for _ in range(diag.cycle_len(x)):
        prev = cur.fwd.get(a)
        if prev is not None:
            if prev != b:
                raise InconsistentRefinement(f"{a} already mapped to {prev}, wanted {b}")
        else:
            cur = cur.fix(a, b)
        a = diag.successor(a)
        b = diag.successor(b)
    return cur


def extract_permutation(pp: PartialPermutation) -> Permutation:
    """Complete the partial permutation by zipping each block as written."""
    images = [0] * (pp.n + 1)
    for pre, img in pp.blocks:
        for x, y in zip(pre, img):
            images[x] = y
    return Permutation(images[1:])


def complete_in_centralizer(pp: PartialPermutation, diag: Diagonal) -> Permutation:
    """Greedy diagonal-respecting completion: smallest element, smallest image."""
    cur = pp
    while not cur.is_complete():
        x = min(e for e in range(1, cur.n + 1) if e not in cur.fwd)
        for y in cur.candidates(x):
            try:
                cur = propagate_cycle(cur, diag, x, y)
                break
            except InconsistentRefinement:
                continue
        else:
            raise InconsistentRefinement(f"no consistent image left for {x}")
    return extract_permutation(cur)
