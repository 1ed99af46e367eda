"""Command-line front end: enumerate, verify, stats."""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .errors import DatabaseParseError, PropagatorContractViolation
from .oracle import verify_database
from .run import BACKENDS, RunConfig, render_stats_table, run_enumerate, write_solutions, write_stats
from .symmetry import Diagonal


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclesat",
        description="Exhaustive isomorph-free enumeration of non-degenerate cycle sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enumerate", help="enumerate lexicographically minimal cycle sets")
    enum.add_argument("--size", "-n", type=int, required=True, help="size of the cycle sets")
    enum.add_argument("--diagonal", default="all", help="cycle notation, e.g. '(1 2)(3 4)', or 'all'")
    enum.add_argument("--backend", choices=BACKENDS, default=RunConfig.backend)
    enum.add_argument("--freq", type=int, default=RunConfig.freq,
                      help="run the partial minimality check every FREQ-th decision")
    enum.add_argument("--node-limit", type=int, default=RunConfig.node_limit,
                      help="node budget of a partial backtracking check")
    enum.add_argument("--eo", choices=["binary", "commander"], default=RunConfig.eo_method, help="ExactlyOne encoding")
    enum.add_argument("--workers", type=int, default=RunConfig.workers,
                      help="processes over diagonals, dispatched largest centralizer first")
    enum.add_argument("--out", default="-", help="solutions file ('-' for stdout)")
    enum.add_argument("--stats-out", help="write per-diagonal statistics JSON here")
    enum.add_argument("--seed", type=int, default=RunConfig.seed,
                      help="accepted for compatibility; has no effect, since branching is static")
    enum.add_argument("--dimacs-dump", metavar="DIR",
                      help="dump the axiom CNFs and variable maps here (axioms only, without the "
                           "symmetry-breaking clauses the search adds)")
    enum.add_argument("--trace", metavar="PATH", help="append a conflict/restart log here")
    enum.add_argument("--raw-order", action="store_true", help="emit solutions in solver order instead of sorting")

    ver = sub.add_parser("verify", help="check a solution database file")
    ver.add_argument("path")
    ver.add_argument("--size", "-n", type=int, required=True)
    ver.add_argument("--diagonal", help="require every entry to carry exactly this diagonal")
    ver.add_argument("--json", action="store_true", help="print the machine-readable report")

    st = sub.add_parser("stats", help="render a statistics JSON file as a table")
    st.add_argument("path")
    return parser


def _check_writable(path: str):
    """Open `path` for appending, as writing it later would need, and remove
    it again if this created it; raises OSError when it cannot be written."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _check_dir_writable(path: str):
    """Create the directory `path` if missing, as the run would, and write a
    scratch file in it; raises OSError when it is not a writable directory."""
    os.makedirs(path, exist_ok=True)
    with tempfile.TemporaryFile(dir=path):
        pass


def _cmd_enumerate(args) -> int:
    try:
        config = RunConfig(
            n=args.size,
            diagonal=args.diagonal,
            backend=args.backend,
            freq=args.freq,
            node_limit=args.node_limit,
            eo_method=args.eo,
            workers=args.workers,
            out_path=args.out,
            stats_path=args.stats_out,
            seed=args.seed,
            dimacs_dir=args.dimacs_dump,
            trace_path=args.trace,
            sorted_output=not args.raw_order,
        )
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    # fail before a possibly hours-long enumeration, not after it
    outputs = [(path, _check_writable) for path in (config.out_path, config.stats_path, config.trace_path)
               if path not in (None, "-")]
    if config.dimacs_dir:
        outputs.append((config.dimacs_dir, _check_dir_writable))
    for path, check in outputs:
        try:
            check(path)
        except OSError as exc:
            print(f"cannot write {path}: {exc}", file=sys.stderr)
            return 2
    try:
        solutions, stats = run_enumerate(config)
    except PropagatorContractViolation as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return 3
    write_solutions(solutions, config.out_path)
    if config.stats_path:
        write_stats(stats, config.stats_path)
    return 0


def _cmd_verify(args) -> int:
    want_diag = None
    if args.diagonal:
        try:
            want_diag = Diagonal.parse(args.diagonal, args.size)
        except ValueError as exc:
            print(f"invalid diagonal: {exc}", file=sys.stderr)
            return 2
    try:
        report = verify_database(args.path, args.size, per_diagonal=want_diag)
    except DatabaseParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json(), end="")
    else:
        print(report.to_text(), end="")
    return 0 if report.clean else 1


def _cmd_stats(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            stats = json.load(fh)
        if not isinstance(stats, dict):
            raise ValueError("top level must be an object keyed by diagonal")
        print(render_stats_table(stats), end="")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"malformed stats input: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "enumerate":
        return _cmd_enumerate(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_stats(args)


if __name__ == "__main__":
    sys.exit(main())
