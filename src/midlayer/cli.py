"""Command-line front end.

Subcommands: build one 2-factor, reproduce the one-/two-cycle sequence
counts, run a parameter-space search, run a verification suite, or print
the tree counting functions.  Exit codes: 0 success, 1 verification
failure, 2 parse error, 3 internal invariant violation, 4 I/O failure.

Each subcommand is a check, which validates the input and returns what
the run needs, and a run, which does the work.  Only ``main`` maps an
exception to an exit code: a ValueError from a check is a parse error,
raised before any work; a ConstructionError or an OSError from a run is
an invariant violation or an I/O failure, whatever the command.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, suites, trees
from .bitcube import parse_sequence
from .construct import ConstructionError, build
from .search import (
    EXHAUSTIVE_BOUND,
    SAMPLED_BOUND,
    TABLE1_EXPECTED,
    SearchJob,
    run_search,
    table1_counts,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_IO = 4


def _at_least_one(**values: int) -> None:
    """Raise ValueError naming the first value below 1."""
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"--{name} must be at least 1, got {value}")


# the largest n a build + verify holds in memory: 2.5 to 3.1 s and 383 MB
# peak RSS at n=11 in a fresh process, about 4x that per level above
_BUILD_CEILING = 11


def _check_build(args):
    seq = parse_sequence(args.alpha)
    if len(seq) > _BUILD_CEILING:
        raise ValueError(f"build runs only through n={_BUILD_CEILING}, got {len(seq)}")
    return seq


def _run_build(args, seq) -> int:
    tf = build(seq)
    report = analysis.verify_two_factor(tf)
    if not report.ok:
        raise ConstructionError("; ".join(report.failures))
    doc = analysis.two_factor_json(tf) if args.full else analysis.spectrum_json(tf)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
    else:
        json.dump(doc, sys.stdout)
        print()
    return EXIT_OK


def _check_table1(args) -> None:
    SearchJob(n=args.n, workers=args.workers)
    if args.n == 7 and not args.include_7:
        raise ValueError("the n=7 sweep evaluates 2097152 sequences; pass --include-7")


def _run_table1(args, _) -> int:
    code = EXIT_OK
    print("n  one-cycle  two-cycle")
    for n in range(1, args.n + 1):
        # the levels below args.n hold a small share of the sequences
        ones, twos = table1_counts(n, workers=args.workers if n == args.n else 1)
        marker = ""
        if (ones, twos) != TABLE1_EXPECTED[n]:
            marker = f"  MISMATCH expected {TABLE1_EXPECTED[n]}"
            code = EXIT_VERIFY
        print(f"{n}  {ones:9d}  {twos:9d}{marker}")
    return code


def _check_search(args) -> SearchJob:
    targets = None
    if args.target:
        try:
            targets = frozenset(int(t) for t in args.target.split(","))
        except ValueError:
            raise ValueError(f"bad target list {args.target!r}") from None
    return SearchJob(
        n=args.n,
        mode=args.mode,
        target_counts=targets,
        limit=args.limit,
        seed=args.seed,
        workers=args.workers,
        checkpoint=args.checkpoint,
        budget=args.budget,
    )


def _run_search(args, job) -> int:
    summary = run_search(job, out_path=args.out)
    print(
        f"evaluated {summary.evaluated} sequences, "
        f"{summary.hits} hits, {summary.written} records, "
        f"last index {summary.last_index}"
    )
    return EXIT_OK


# mode -> (ceiling, runner).  The ceiling is the largest n a suite
# finishes at within minutes, and for trees the largest number of edges
# the tree counts are exact for; distinct has none.  Each suite sizes
# itself from n; the trees and distinct suites clamp it.
SUITES = {
    "lemmas": (9, lambda n, budget: [suites.suite_lattice(n), suites.suite_paths(n)]),
    "parity": (10, lambda n, budget: [suites.suite_parity(n, budget)]),
    "tau": (6, lambda n, budget: [suites.suite_tau(n)]),
    "trees": (30, lambda n, budget: [suites.suite_trees(n)]),
    "distinct": (None, lambda n, budget: [suites.suite_distinct(n, budget)]),
}


def _check_verify(args) -> None:
    _at_least_one(n=args.n, budget=args.budget)
    ceiling = SUITES[args.mode][0]
    if ceiling is not None and args.n > ceiling:
        raise ValueError(f"--mode {args.mode} runs only through n={ceiling}, got {args.n}")


def _run_verify(args, _) -> int:
    code = EXIT_OK
    for res in SUITES[args.mode][1](args.n, args.budget):
        for name, passed, detail in res.checks:
            if not passed:
                print(f"FAIL {res.name}: {name} {detail}".rstrip())
                code = EXIT_VERIFY
        status = "ok" if res.ok else "FAILED"
        print(f"suite {res.name}: {len(res.checks)} checks, {status}")
        if args.mode == "trees" and res.name == "trees":
            print(f"plane trees with {args.n} edges: {trees.count_plane_trees(args.n)}")
    return code


def _check_trees(args) -> None:
    _at_least_one(n=args.n)
    ceiling = SUITES["trees"][0]
    if args.n > ceiling:
        raise ValueError(f"counts are exact only through n={ceiling}")


def _run_trees(args, _) -> int:
    n = args.n
    plane = trees.count_plane_trees(n)
    asym = trees.count_asymmetric(n)
    print(f"ordered rooted trees with {n} edges: {trees.catalan(n)}")
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
    p.add_argument(
        "--alpha", required=True,
        help=f'parameter sequence of at most {_BUILD_CEILING} vectors, e.g. ",0,10"',
    )
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.add_argument("--full", action="store_true", help="emit cycles, not just the spectrum")
    p.set_defaults(check=_check_build, run=_run_build)

    p = sub.add_parser("table1", help="count one- and two-cycle sequences per level")
    p.add_argument("--n", type=int, required=True, help="largest level to sweep")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--include-7", action="store_true", help="allow the long n=7 sweep")
    p.set_defaults(check=_check_table1, run=_run_table1)

    p = sub.add_parser("search", help="search the parameter space")
    p.add_argument(
        "--n", type=int, required=True,
        help=f"level; at most {EXHAUSTIVE_BOUND} for exhaustive, {SAMPLED_BOUND} otherwise",
    )
    p.add_argument("--mode", choices=("exhaustive", "random", "targeted"), default="exhaustive")
    p.add_argument("--target", help="comma-separated cycle counts to hunt, e.g. 1,2")
    p.add_argument("--limit", type=int, help="stop after this many logged records")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", type=int, default=0, help="resume from this index")
    p.add_argument("--budget", type=int, default=100_000, help="evaluation cap")
    p.add_argument("--out", help="append JSONL records here")
    p.set_defaults(check=_check_search, run=_run_search)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--n", type=int, required=True,
        help="level; at most " + ", ".join(
            f"{ceiling} for {mode}"
            for mode, (ceiling, _) in SUITES.items()
            if ceiling is not None
        ),
    )
    p.add_argument("--mode", choices=sorted(SUITES), required=True)
    p.add_argument("--budget", type=int, default=1000, help="sample count for sampled suites")
    p.set_defaults(check=_check_verify, run=_run_verify)

    p = sub.add_parser("trees", help="print the tree counting functions")
    p.add_argument("--n", type=int, required=True, help="number of edges")
    p.set_defaults(check=_check_trees, run=_run_trees)

    args = parser.parse_args(argv)
    try:
        checked = args.check(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.run(args, checked)
    except ConstructionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
