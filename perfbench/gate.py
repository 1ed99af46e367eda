"""Output gate: is a written solution file the right enumeration?

The gate reads only the file, never the program's own statistics.  Every
run must produce the known number of isomorphism classes.  On the
canonical labelling (labelling 0) the sorted file must hash to the
reference recorded in `reference.json`; on another labelling the files
differ, so each line is checked to be a cycle set and the count per
diagonal cycle type must match the reference instead.
"""

from __future__ import annotations

import hashlib
import json
import os

# Number of isomorphism classes of non-degenerate cycle sets of size n.
KNOWN_COUNTS = {2: 2, 3: 5, 4: 23, 5: 88, 6: 595, 7: 3456}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cycle_type_key(values) -> str:
    """Cycle type of the permutation x -> values[x-1], as '3-2-1'."""
    n = len(values)
    seen = [False] * n
    lengths = []
    for start in range(n):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = values[x] - 1
            length += 1
        if length:
            lengths.append(length)
    return "-".join(str(k) for k in sorted(lengths, reverse=True))


def _is_cycle_set(m: list[list[int]], n: int) -> bool:
    """Rows and diagonal are permutations; C[C[x,y],C[x,z]] = C[C[y,x],C[y,z]]."""
    full = list(range(1, n + 1))
    if any(sorted(row) != full for row in m):
        return False
    if sorted(m[x][x] for x in range(n)) != full:
        return False
    for x in range(n):
        for y in range(n):
            a, b = m[x], m[y]
            for z in range(n):
                if m[a[y] - 1][a[z] - 1] != m[b[x] - 1][b[z] - 1]:
                    return False
    return True


def check_file(path: str, n: int, labelling: int, reference: dict) -> list[str]:
    """Return the gate's findings for one solution file; empty means pass."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.decode("utf-8").splitlines()
    ref = reference[str(n)]
    problems = []
    if len(lines) != KNOWN_COUNTS[n]:
        problems.append(f"{len(lines)} solutions, expected {KNOWN_COUNTS[n]}")
    if labelling == 0:
        digest = hashlib.sha256(data).hexdigest()
        if digest != ref["sha256"]:
            problems.append(f"sha256 {digest} differs from the canonical reference")
        return problems
    if lines != sorted(set(lines)):
        problems.append("lines are not sorted and distinct")
    per_type: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        try:
            values = [int(v) for v in line.split()]
        except ValueError:
            problems.append(f"line {lineno}: non-integer entry")
            continue
        if len(values) != n * n or any(not 1 <= v <= n for v in values):
            problems.append(f"line {lineno}: not {n * n} entries in 1..{n}")
            continue
        m = [values[r * n:(r + 1) * n] for r in range(n)]
        if not _is_cycle_set(m, n):
            problems.append(f"line {lineno}: not a cycle set")
            continue
        key = cycle_type_key([m[x][x] for x in range(n)])
        per_type[key] = per_type.get(key, 0) + 1
    if per_type != ref["per_cycle_type"]:
        problems.append(f"per-cycle-type counts {per_type} differ from {ref['per_cycle_type']}")
    return problems
