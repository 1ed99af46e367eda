"""Record the output gate's reference: python3 perfbench/record_reference.py

For every size the workloads use, enumerates at seed 0 with both
backends, requires `cyclesat.oracle.verify_database` to find the file
clean and both backends to write byte-identical files, then stores the
file's sha256 and its count per diagonal cycle type in reference.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import gate
from run import OUT_DIR, SRC, WORKLOADS


def main() -> int:
    sys.path.insert(0, SRC)
    from cyclesat import oracle, run

    os.makedirs(OUT_DIR, exist_ok=True)
    reference = {}
    for n in sorted({w.n for w in WORKLOADS.values()}):
        digests = {}
        for backend in ("backtrack", "incremental"):
            path = os.path.join(OUT_DIR, f"reference-n{n}-{backend}.txt")
            solutions, _ = run.run_enumerate(run.RunConfig(n=n, backend=backend))
            run.write_solutions(solutions, path)
            report = oracle.verify_database(path, n)
            if not report.clean or report.entry_count != gate.KNOWN_COUNTS[n]:
                print(report.to_text(), file=sys.stderr)
                return 1
            with open(path, "rb") as fh:
                digests[backend] = hashlib.sha256(fh.read()).hexdigest()
        if len(set(digests.values())) != 1:
            print(f"n={n}: backends disagree: {digests}", file=sys.stderr)
            return 1
        per_type: dict[str, int] = {}
        for c in solutions:
            key = gate.cycle_type_key(c.diagonal_values())
            per_type[key] = per_type.get(key, 0) + 1
        reference[str(n)] = {"sha256": digests["backtrack"], "per_cycle_type": per_type}
        print(f"n={n}: {len(solutions)} solutions, sha256 {digests['backtrack']}")
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
