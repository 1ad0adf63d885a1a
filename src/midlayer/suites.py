"""Named verification suites over the other modules.

Each suite runs a bundle of related invariant checks, sized by the level
alone (the sampled suites also take their sample count), and returns a
SuiteResult listing every check with its outcome.
The suites use public predicates and the brute-force oracles, so a
passing run is an end-to-end cross-check of the construction engine
rather than a tautology.  One exception: the paths suite reads first and
second vertices from construct._frame and last vertices from
construct._family (_fsl_sets), as the level step reads them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import islice, product
from random import Random

from . import analysis, construct, lattice, trees
from .bitcube import f_alpha, weight
from .construct import state_for_prefix
from .lattice import D_EQ0, D_GT0, D_MINUS, DOWN, UP, enumerate_class
from .search import all_sequences, alpha_vectors, iter_exhaustive, iter_random, random_sequence


@dataclass
class SuiteResult:
    name: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    @property
    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, passed, detail in self.checks if not passed]

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, passed, detail))


def suite_lattice(level: int) -> SuiteResult:
    """Oracle checks on the path classes: the five step-append recursions
    and decomposability through length min(16, 2*level + 4),
    map-invariance of the two balanced classes and the mirrored pivot
    through length min(12, 2*level), and class cardinalities through
    min(10, level + 4) upsteps."""
    res = SuiteResult("lattice")
    max_len, max_alpha_len, max_card = min(16, 2 * level + 4), min(12, 2 * level), min(10, level + 4)
    U, D = UP, DOWN

    # the step-append recursions, one row each: whether k runs over the
    # upper range n+2 .. 2n+1 (else k = n, the middle-range equations),
    # the class and upstep count of the whole at length m+2, and per part
    # its classes, its upstep count at length m and the two steps
    # appended, upstep counts relative to k.  Each is checked as exact set
    # equality with pairwise-disjoint parts; length 2 is skipped because
    # the single-point path fits neither side of the middle equations
    # cleanly
    four = ((0, D, D), (-1, U, D), (-1, D, U), (-2, U, U))
    recursions = [
        (True, tag, dk, [((tag,), dk + d, a, b) for d, a, b in four])
        for tag, dk in ((D_EQ0, 0), (D_MINUS, 0), (D_GT0, 1))
    ] + [
        (False, D_EQ0, 1, [((D_EQ0, D_GT0), 1, D, D), ((D_EQ0,), 0, U, D)]),
        (False, D_GT0, 2, [((D_GT0,), 2, D, D), ((D_GT0,), 1, U, D), ((D_GT0,), 1, D, U)]),
        (False, D_MINUS, 1, [((D_MINUS,), 1, D, D), ((D_MINUS,), 0, U, D), ((D_EQ0,), 0, D, U)]),
    ]
    for n in range(1, (max_len - 2) // 2 + 1):
        m = 2 * n
        for upper, tag, dk, parts in recursions:
            for k in range(n + 2, 2 * n + 2) if upper else (n,):
                sets = [
                    {p + (a, b) for t in tags for p in enumerate_class(m, k + d, t)}
                    for tags, d, a, b in parts
                ]
                _check_partition(
                    res, f"recursion {tag}({k + dk}) at length {m + 2}",
                    sets, enumerate_class(m + 2, k + dk, tag),
                )

    # invariance of the two balanced classes under every swap/mirror map,
    # plus the mirrored pivot abscissa on the once-below class
    for n in range(1, max_alpha_len // 2 + 1):
        m = 2 * n
        eq0 = enumerate_class(m, n, D_EQ0)
        dminus = enumerate_class(m, n, D_MINUS)
        bad = []
        for alpha in product((0, 1), repeat=n - 1):
            if {lattice.f_alpha_path(alpha, p) for p in eq0} != eq0:
                bad.append(f"eq0 alpha={alpha}")
            images = {}
            for p in dminus:
                images[p] = lattice.f_alpha_path(alpha, p)
            if set(images.values()) != dminus:
                bad.append(f"dminus alpha={alpha}")
            for p, q in images.items():
                if lattice.decompose(q).pivot != m - lattice.decompose(p).pivot:
                    bad.append(f"pivot alpha={alpha} p={lattice.format_path(p)}")
        res.add(f"class invariance at length {m}", not bad, "; ".join(bad[:3]))

    for n in range(1, max_card + 1):
        got = len(enumerate_class(2 * n, n, D_EQ0))
        res.add(
            f"balanced class size at length {2 * n}",
            got == trees.catalan(n),
            f"{got} != catalan({n})",
        )

    # recompose every split here rather than trust decompose's own
    # asserts, which python -O strips
    glue = {
        D_EQ0: lambda d: (U,) + d.ell + (D,) + d.r,
        D_GT0: lambda d: (U,) + d.ell + (U,) + d.r,
        D_MINUS: lambda d: d.ell + (D, U) + d.r,
    }
    bad = 0
    for m in range(max_len + 1):
        for k in range(m + 1):
            for tag, codes in lattice._sweep(m, k).items():
                if tag == lattice.NONE:
                    continue
                end = 2 * k - m
                in_domain = tag == D_EQ0 or end >= (2 if tag == D_GT0 else 0)
                for code in codes:
                    p = lattice.phi(code, m)
                    try:
                        d = lattice.decompose(p)
                    except ValueError:
                        bad += in_domain
                    except AssertionError:
                        bad += 1
                    else:
                        bad += glue[tag](d) != p
    res.add("decompose recomposition", bad == 0, f"{bad} failures")
    return res


def _check_partition(res: SuiteResult, name: str, parts: list[set], whole: set) -> None:
    total = sum(len(p) for p in parts)
    union = set().union(*parts)
    ok = total == len(union) and union == whole
    res.add(name, ok, f"|parts|={total} |union|={len(union)} |whole|={len(whole)}")


def rotation_classes(n: int) -> tuple[set[trees.Tree], dict[str, int]]:
    """Brute force over the n-edge trees: the psi images of the Dyck paths
    of length 2n, and the size of each rotation class among them, keyed by
    canonical plane tree."""
    ts = {trees.psi(p)[0] for p in enumerate_class(2 * n, n, D_EQ0)}
    classes: dict[str, int] = {}
    for t in ts:
        code = trees.canonical_plane_tree(t)
        if code not in classes:
            classes[code] = len(trees.rotation_class(t))
    return ts, classes


@cache
def _psi_round_trip_failures() -> tuple[str, ...]:
    """The nonnegative paths through length 16 whose psi image has the wrong
    active depth or does not map back; run once per process."""
    bad = []
    paths = [((), 0)]  # the nonnegative paths of length m, with their end heights
    for m in range(17):
        if m:
            paths = [(p + (s,), h + s) for p, h in paths for s in (UP, DOWN) if h + s >= 0]
        for p, h in paths:
            t, depth = trees.psi(p)
            if depth != h:
                bad.append(f"depth of {lattice.format_path(p)}")
            elif trees.psi_inv(t, depth) != p:
                bad.append(f"round trip of {lattice.format_path(p)}")
    return tuple(bad)


def suite_trees(edges: int) -> SuiteResult:
    """Tree bijection and counting checks: round trips and active depth
    for every nonnegative path through length 16, rotation classes
    partitioning the trees and their brute-force counts through
    min(edges, 8) edges, and closed-form counts against known values."""
    res = SuiteResult("trees")
    bad = _psi_round_trip_failures()
    res.add("psi round trip through length 16", not bad, "; ".join(bad[:3]))

    for n in range(1, min(edges, 8) + 1):
        ts, classes = rotation_classes(n)
        res.add(
            f"psi injective on {n}-edge trees",
            len(ts) == trees.catalan(n),
            f"{len(ts)} != {trees.catalan(n)}",
        )
        covered = sum(classes.values())
        sizes_ok = all((2 * n) % size == 0 for size in classes.values())
        res.add(
            f"rotation classes partition {n}-edge trees",
            covered == trees.catalan(n) and sizes_ok,
            f"covered {covered}, sizes divide 2n: {sizes_ok}",
        )
        res.add(
            f"plane-tree count at {n} edges",
            len(classes) == trees.count_plane_trees(n),
            f"{len(classes)} != {trees.count_plane_trees(n)}",
        )
        full = sum(1 for s in classes.values() if s == 2 * n)
        res.add(
            f"asymmetric count at {n} edges",
            full == trees.count_asymmetric(n),
            f"{full} != {trees.count_asymmetric(n)}",
        )

    known_catalan = (1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)
    known_plane = (1, 1, 2, 3, 6, 14, 34, 95, 280, 854)
    known_asym = (0, 0, 0, 1, 3, 9, 28, 85, 262, 827)
    res.add(
        "catalan sequence",
        tuple(trees.catalan(i) for i in range(1, 11)) == known_catalan,
    )
    res.add(
        "plane-tree sequence",
        tuple(trees.count_plane_trees(i) for i in range(1, 11)) == known_plane,
    )
    res.add(
        "asymmetric sequence",
        tuple(trees.count_asymmetric(i) for i in range(1, 11)) == known_asym,
    )
    return res


def _all_zero(n: int):
    """The sequence of n all-zero alpha vectors."""
    return tuple((0,) * (i - 1) for i in range(1, n + 1))


def _state_sample(level: int):
    """A few states at the level: every one through level 3, else the
    all-zero prefix plus four seeded random ones."""
    if level <= 3:
        prefixes = set(all_sequences(level - 1))
    else:
        rng = Random(2024 + level)
        prefixes = {tuple(random_sequence(rng, level - 1)) for _ in range(4)}
        prefixes.add(_all_zero(level - 1))
    return [state_for_prefix(p) for p in sorted(prefixes)]


def _fsl_sets(state, k: int) -> tuple[set[int], set[int], set[int]]:
    """First, second and last vertex sets of family k, read as the level
    step reads them: the first two from the level's frame, the last from
    the state."""
    firsts, seconds = construct._frame(state.n, k)
    return set(firsts), set(seconds), set(construct._family(state, k, False))


def suite_paths(level: int) -> SuiteResult:
    """Structure of the stored path families at every level through the
    given one: endpoint classes, coverage, the length formula, the
    endpoint decomposition relations, and the alpha-independence of the
    length multisets."""
    res = SuiteResult("paths")
    for n in range(1, level + 1):
        m = 2 * n
        length_multisets: dict[int, Counter] = {}
        for si, state in enumerate(_state_sample(n)):
            label = f"n={n} state {si}"
            for k, fam in state.families.items():
                F, S, L = _fsl_sets(state, k)
                img = lambda vs: {lattice.phi(v, m) for v in vs}
                res.add(
                    f"{label} endpoint classes k={k}",
                    img(F) == enumerate_class(m, k, D_EQ0)
                    and img(S) == enumerate_class(m, k + 1, D_GT0)
                    and img(L) == enumerate_class(m, k, D_MINUS),
                )
                bad = []
                for p in fam:
                    d = lattice.decompose(lattice.phi(p[0], m))
                    ds = lattice.decompose(lattice.phi(p[1], m))
                    dl = lattice.decompose(lattice.phi(p[-1], m))
                    if len(p) - 1 != 2 * len(d.ell) + 2:
                        bad.append(f"length of path at {p[0]:#x}")
                    if (d.ell, d.r) != (ds.ell, ds.r):
                        bad.append(f"first/second split at {p[0]:#x}")
                    if (len(d.ell), len(d.r)) != (len(dl.ell), len(dl.r)):
                        bad.append(f"last split lengths at {p[0]:#x}")
                res.add(f"{label} length and split relations k={k}", not bad, "; ".join(bad[:3]))
                mset = Counter(len(p) for p in fam)
                prev = length_multisets.setdefault(k, mset)
                res.add(f"{label} alpha-independent lengths k={k}", mset == prev)

            # coverage: the middle family spans both its levels; every
            # higher family misses below exactly the second vertices one
            # family down
            vs = {v for p in state.families[n] for v in p}
            expect = {x for x in range(1 << m) if weight(x) in (n, n + 1)}
            res.add(f"{label} middle coverage", vs == expect)
            for k in sorted(state.families):
                if k == n:
                    continue
                fam = state.families[k]
                upper = {v for p in fam for v in p if weight(v) == k + 1}
                lower = {v for p in fam for v in p if weight(v) == k}
                missing = {x for x in range(1 << m) if weight(x) == k} - lower
                _, S_below, _ = _fsl_sets(state, k - 1)
                res.add(
                    f"{label} upper coverage k={k}",
                    upper == {x for x in range(1 << m) if weight(x) == k + 1}
                    and missing == S_below,
                )

        # the map built from each final alpha keeps the endpoint sets fixed
        state = state_for_prefix(_all_zero(n - 1))
        F, _, L = _fsl_sets(state, n)
        bad = []
        for alpha in alpha_vectors(n):
            if {f_alpha(alpha, v) for v in F} != F:
                bad.append(f"F alpha={alpha}")
            if {f_alpha(alpha, v) for v in L} != L:
                bad.append(f"L alpha={alpha}")
        res.add(f"n={n} endpoint sets invariant", not bad, "; ".join(bad[:3]))

    # with the all-zero prefix the second/last decompositions agree exactly
    for n in range(1, min(level + 2, 9)):
        state = state_for_prefix(_all_zero(n - 1))
        m = 2 * n
        bad = []
        for p in state.families[n]:
            ds = lattice.decompose(lattice.phi(p[1], m))
            dl = lattice.decompose(lattice.phi(p[-1], m))
            if (ds.ell, ds.r) != (dl.ell, dl.r):
                bad.append(f"{p[0]:#x}")
        res.add(f"n={n} all-zero second/last split", not bad, "; ".join(bad[:3]))
    return res


def suite_parity(level: int, samples: int) -> SuiteResult:
    """Observed cycle-count parity against the closed-form prediction;
    exhaustive through level 6, seeded samples beyond."""
    res = SuiteResult("parity")
    if level <= 6:
        stream = iter_exhaustive(level)
        label = f"n={level} exhaustive"
    else:
        stream = islice(iter_random(level, 7), samples)
        label = f"n={level} {samples} samples"
    bad = []
    for _, seq, sp in stream:
        if sum(sp.values()) % 2 != analysis.predicted_parity(seq[-1], level):
            bad.append(str(seq))
    res.add(label, not bad, "; ".join(bad[:3]))
    return res


def suite_tau(level: int) -> SuiteResult:
    """Every pair of sequences through the level differing by reversal of
    the final vector maps onto each other under the permute-and-invert
    automorphism."""
    res = SuiteResult("tau")
    for n in range(1, level + 1):
        bad = []
        for prefix in all_sequences(n - 1):
            state = state_for_prefix(prefix)
            for alpha in alpha_vectors(n):
                tf = construct.assemble_two_factor(state, alpha)
                other = construct.assemble_two_factor(state, alpha[::-1])
                image = analysis.tau_image(tf, alpha[::-1])
                if analysis.edge_set(image) != analysis.edge_set(other):
                    bad.append(f"{prefix}+{alpha}")
        res.add(f"n={n} reversed-pair automorphism", not bad, "; ".join(bad[:3]))
    return res


def suite_distinct(level: int, pairs: int) -> SuiteResult:
    """Pairwise distinctness of the produced edge sets: exhaustive through
    min(level, 4), plus seeded random pairs at n=5 and n=6 when the level
    is above 4."""
    res = SuiteResult("distinct")
    for n in range(1, min(level, 4) + 1):
        seqs = all_sequences(n)
        res.add(
            f"n={n} all {len(seqs)} sequences distinct",
            analysis.distinct_check(n, seqs),
        )
    rng = Random(11)
    for n in (5, 6) if level > 4 else ():
        bad = 0
        for _ in range(pairs):
            a = tuple(random_sequence(rng, n))
            b = tuple(random_sequence(rng, n))
            while b == a:
                b = tuple(random_sequence(rng, n))
            bad += not analysis.distinct_check(n, (a, b))
        res.add(f"n={n} {pairs} random pairs distinct", bad == 0, f"{bad} collisions")
    return res


def suite_all_zero(level: int) -> SuiteResult:
    """Cycle structure of the all-zero sequences through the level against
    the closed-form tree counts and the extreme cycle lengths."""
    res = SuiteResult("all_zero")
    expected_cycles = {n: trees.count_plane_trees(n) for n in range(1, level + 1)}
    for n in range(1, level + 1):
        seq = _all_zero(n)
        sp = construct.cycle_spectrum(state_for_prefix(seq[:-1]), seq[-1])
        ncyc = sum(sp.values())
        res.add(
            f"n={n} cycle count", ncyc == expected_cycles[n],
            f"{ncyc} != {expected_cycles[n]}",
        )
        if n >= 2:
            res.add(
                f"n={n} shortest cycle",
                min(sp) == 2 * (4 * n + 2),
                f"{min(sp)} != {2 * (4 * n + 2)}",
            )
        if n >= 4:
            res.add(
                f"n={n} longest cycle",
                max(sp) == 2 * n * (4 * n + 2)
                and sp[max(sp)] == trees.count_asymmetric(n),
                f"longest {max(sp)} x{sp.get(max(sp))}",
            )
    return res
