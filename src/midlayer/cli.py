"""Command-line front end.

Subcommands: build one 2-factor, reproduce the one-/two-cycle sequence
counts, run a parameter-space search, run a verification suite, or print
the tree counting functions.  Exit codes: 0 success, 1 verification
failure, 2 parse error, 3 internal invariant violation, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, suites, trees
from .bitcube import parse_sequence
from .construct import ConstructionError, build
from .search import TABLE1_EXPECTED, SearchJob, run_search, table1_counts

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_IO = 4


def _at_least_one(**values: int) -> bool:
    """True if every value is >= 1; otherwise report the first that is not."""
    for name, value in values.items():
        if value < 1:
            print(f"error: --{name} must be at least 1, got {value}", file=sys.stderr)
            return False
    return True


def cmd_build(args) -> int:
    try:
        seq = parse_sequence(args.alpha)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        tf = build(seq)
    except ConstructionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    report = analysis.verify_two_factor(tf)
    if not report.ok:
        for failure in report.failures:
            print(f"internal error: {failure}", file=sys.stderr)
        return EXIT_INVARIANT
    doc = analysis.two_factor_json(tf) if args.full else analysis.spectrum_json(tf)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
                fh.write("\n")
        else:
            json.dump(doc, sys.stdout)
            print()
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_table1(args) -> int:
    n_max = args.n
    try:
        SearchJob(n=n_max, workers=args.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if n_max == 7 and not args.include_7:
        print(
            "error: the n=7 sweep evaluates 2097152 sequences; pass --include-7",
            file=sys.stderr,
        )
        return EXIT_PARSE
    code = EXIT_OK
    print("n  one-cycle  two-cycle")
    for n in range(1, n_max + 1):
        # the levels below n_max hold a small share of the sequences
        ones, twos = table1_counts(n, workers=args.workers if n == n_max else 1)
        marker = ""
        if (ones, twos) != TABLE1_EXPECTED[n]:
            marker = f"  MISMATCH expected {TABLE1_EXPECTED[n]}"
            code = EXIT_VERIFY
        print(f"{n}  {ones:9d}  {twos:9d}{marker}")
    return code


def cmd_search(args) -> int:
    targets = None
    if args.target:
        try:
            targets = frozenset(int(t) for t in args.target.split(","))
        except ValueError:
            print(f"error: bad target list {args.target!r}", file=sys.stderr)
            return EXIT_PARSE
    try:
        job = SearchJob(
            n=args.n,
            mode=args.mode,
            target_counts=targets,
            limit=args.limit,
            seed=args.seed,
            workers=args.workers,
            checkpoint=args.checkpoint,
            budget=args.budget,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        summary = run_search(job, out_path=args.out)
    except ConstructionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(
        f"evaluated {summary.evaluated} sequences, "
        f"{summary.hits} hits, {summary.written} records, "
        f"last index {summary.last_index}"
    )
    return EXIT_OK


SUITES = {
    "lemmas": lambda n, budget: [
        suites.suite_lattice(
            max_len=min(16, 2 * n + 4),
            max_alpha_len=min(12, 2 * n),
            max_card=min(10, n + 4),
        ),
        suites.suite_paths(n_max=n),
    ],
    "trees": lambda n, budget: [suites.suite_trees(n_max=min(n, 8))],
    "parity": lambda n, budget: [suites.suite_parity(n, samples=budget)],
    "tau": lambda n, budget: [suites.suite_tau(n_max=n)],
    "distinct": lambda n, budget: [
        suites.suite_distinct(n_max=min(n, 4), random_pairs=budget if n > 4 else 0)
    ],
}

# the largest n a suite finishes at within minutes; trees and distinct clamp n
_CEILINGS = {"lemmas": 9, "parity": 10, "tau": 6}


def _tree_counts_exact(n: int) -> bool:
    """True if the tree counts cover n edges; otherwise report it."""
    if n > 30:
        print("error: counts are exact only through n=30", file=sys.stderr)
        return False
    return True


def cmd_verify(args) -> int:
    if not _at_least_one(n=args.n, budget=args.budget):
        return EXIT_PARSE
    if args.mode == "trees" and not _tree_counts_exact(args.n):
        return EXIT_PARSE
    ceiling = _CEILINGS.get(args.mode)
    if ceiling is not None and args.n > ceiling:
        print(
            f"error: --mode {args.mode} runs only through n={ceiling}, got {args.n}",
            file=sys.stderr,
        )
        return EXIT_PARSE
    results = SUITES[args.mode](args.n, args.budget)
    code = EXIT_OK
    for res in results:
        for name, passed, detail in res.checks:
            if not passed:
                print(f"FAIL {res.name}: {name} {detail}".rstrip())
                code = EXIT_VERIFY
        status = "ok" if res.ok else "FAILED"
        print(f"suite {res.name}: {len(res.checks)} checks, {status}")
        if args.mode == "trees" and res.name == "trees":
            print(f"plane trees with {args.n} edges: {trees.count_plane_trees(args.n)}")
    return code


def cmd_trees(args) -> int:
    n = args.n
    if not _at_least_one(n=n):
        return EXIT_PARSE
    if not _tree_counts_exact(n):
        return EXIT_PARSE
    cn = trees.catalan(n)
    plane = trees.count_plane_trees(n)
    asym = trees.count_asymmetric(n)
    print(f"ordered rooted trees with {n} edges: {cn}")
    print(f"plane trees: {plane}")
    print(f"asymmetric plane trees: {asym}")
    if n <= 8:
        _, classes = suites.rotation_classes(n)
        full = sum(1 for size in classes.values() if size == 2 * n)
        if len(classes) != plane or full != asym:
            print(
                f"MISMATCH: brute force found {len(classes)} classes, {full} asymmetric"
            )
            return EXIT_VERIFY
        print("cross-check against brute-force class enumeration: ok")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="midlayer",
        description="2-factors in the middle layer of the odd-dimensional cube",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build one 2-factor and print it as JSON")
    p.add_argument("--alpha", required=True, help='parameter sequence, e.g. ",0,10"')
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.add_argument("--full", action="store_true", help="emit cycles, not just the spectrum")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("table1", help="count one- and two-cycle sequences per level")
    p.add_argument("--n", type=int, required=True, help="largest level to sweep")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--include-7", action="store_true", help="allow the long n=7 sweep")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("search", help="search the parameter space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "random", "targeted"), default="exhaustive")
    p.add_argument("--target", help="comma-separated cycle counts to hunt, e.g. 1,2")
    p.add_argument("--limit", type=int, help="stop after this many logged records")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", type=int, default=0, help="resume from this index")
    p.add_argument("--budget", type=int, default=100_000, help="evaluation cap")
    p.add_argument("--out", help="append JSONL records here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--n", type=int, required=True,
        help="level; at most 9 for lemmas, 10 for parity, 6 for tau, 30 for trees",
    )
    p.add_argument("--mode", choices=sorted(SUITES), required=True)
    p.add_argument("--budget", type=int, default=1000, help="sample count for sampled suites")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("trees", help="print the tree counting functions")
    p.add_argument("--n", type=int, required=True, help="number of edges")
    p.set_defaults(func=cmd_trees)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
