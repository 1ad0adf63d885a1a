"""Structural analysis of the constructed 2-factors.

Everything here treats a TwoFactor as opaque data: verification uses only
the weight/adjacency predicates, Dyck-vertex detection uses the lattice
classification, and the parity prediction is computed from its closed
formula alone, so these checks are genuine cross-checks of the engine.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from operator import xor

from . import lattice, trees
from .bitcube import AlphaVector, format_sequence, tau_alpha
from .construct import TwoFactor, build, canonical_cycle


class AnalysisError(Exception):
    pass


@dataclass(frozen=True)
class CycleSpectrum:
    n: int
    entries: Counter

    @property
    def num_cycles(self) -> int:
        return sum(self.entries.values())


def spectrum(tf: TwoFactor) -> CycleSpectrum:
    return CycleSpectrum(tf.n, Counter(len(c) for c in tf.cycles))


def dyck_vertex_counts(tf: TwoFactor) -> list[int]:
    """Per cycle: number of vertices x.0 whose 2n-prefix maps to a Dyck path.

    Detection goes through the lattice classification of the prefix, not
    through any family bookkeeping of the construction.
    """
    n = tf.n
    dyck = lattice.dyck_bitstrings(2 * n)
    limit = 1 << (2 * n)
    return [sum(1 for v in c if v < limit and v in dyck) for c in tf.cycles]


@dataclass
class VerificationReport:
    ok: bool
    failures: list[str]


def verify_two_factor(tf: TwoFactor) -> VerificationReport:
    """Check coverage, disjointness, adjacency, and length divisibility."""
    n = tf.n
    m = 2 * n + 1
    failures: list[str] = []
    seen: set[int] = set()
    total = 0
    for ci, cycle in enumerate(tf.cycles):
        if len(cycle) % (4 * n + 2):
            failures.append(f"cycle {ci}: length {len(cycle)} not divisible by {4 * n + 2}")
        total += len(cycle)
        seen.update(cycle)
        if cycle and max(cycle) >> m:
            failures.extend(f"cycle {ci}: vertex {v:#x} too long" for v in cycle if v >> m)
        # Hamming distance from each vertex to the one before it
        steps = list(map(int.bit_count, map(xor, cycle[-1:] + cycle[:-1], cycle)))
        if steps.count(1) != len(steps):
            failures.extend(
                f"cycle {ci}: vertices at {i - 1},{i} not adjacent"
                for i, d in enumerate(steps)
                if d != 1
            )
    repeats = total - len(seen)
    if repeats:
        failures.append(f"{repeats} repeated vertex visits")
    weights = list(map(int.bit_count, seen))
    bad_weight = len(seen) - weights.count(n) - weights.count(n + 1)
    if bad_weight:
        failures.append(f"{bad_weight} vertices outside the middle levels")
    expected = comb(m, n) + comb(m, n + 1)
    if total != expected:
        failures.append(f"covered {total} vertices, expected {expected}")
    return VerificationReport(not failures, failures)


def _is_pow2(i: int) -> bool:
    return i > 0 and i & (i - 1) == 0


def beta(n: int) -> tuple[int, ...]:
    """Parity-control vector: entry i is 1 iff i and n-i are powers of two."""
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple(
        1 if _is_pow2(i) and _is_pow2(n - i) else 0 for i in range(1, n)
    )


def predicted_parity(alpha_2n: AlphaVector, n: int) -> int:
    """Predicted parity of the number of cycles: 1 = odd, 0 = even."""
    b = beta(n)
    if len(alpha_2n) != len(b):
        raise ValueError(f"alpha has length {len(alpha_2n)}, expected {len(b)}")
    dot = sum(a * x for a, x in zip(alpha_2n, b))
    return (dot + (1 if _is_pow2(n) else 0)) % 2


def cycle_tree_class(cycle: tuple[int, ...], n: int) -> str:
    """Plane-tree code of one cycle of an all-zero-sequence 2-factor.

    Collects the Dyck vertices with suffix 0 on the cycle, maps them to
    ordered rooted trees, and checks they form exactly one rotation class.
    """
    dyck = lattice.dyck_bitstrings(2 * n)
    limit = 1 << (2 * n)
    shapes = [
        trees.psi(lattice.phi(v, 2 * n))[0]
        for v in cycle
        if v < limit and v in dyck
    ]
    if not shapes:
        raise AnalysisError("cycle carries no Dyck vertex")
    cls = trees.rotation_class(shapes[0])
    if len(shapes) != len(cls) or set(shapes) != set(cls):
        raise AnalysisError("Dyck vertices do not form one rotation class")
    if len(cycle) != (4 * n + 2) * len(cls):
        raise AnalysisError("cycle length does not match the class size")
    return min(trees.dyck_word(t) for t in cls)


def edge_set(tf: TwoFactor) -> frozenset[tuple[int, int]]:
    """Undirected edge set; two-factor equality is equality of these."""
    edges = set()
    for cycle in tf.cycles:
        for i, v in enumerate(cycle):
            u = cycle[i - 1]
            edges.add((u, v) if u < v else (v, u))
    return frozenset(edges)


def distinct_check(n: int, seqs) -> bool:
    """True iff all parameter sequences give pairwise distinct edge sets."""
    seen = set()
    for seq in seqs:
        if len(seq) != n:
            raise ValueError(f"sequence {format_sequence(seq)} does not target n={n}")
        es = edge_set(build(seq))
        if es in seen:
            return False
        seen.add(es)
    return True


def tau_image(tf: TwoFactor, alpha_prime: AlphaVector) -> TwoFactor:
    """Vertex-wise image under the permute-and-invert automorphism."""
    if len(alpha_prime) != tf.n - 1:
        raise ValueError(f"alpha has length {len(alpha_prime)}, expected {tf.n - 1}")
    cycles = sorted(
        canonical_cycle([tau_alpha(alpha_prime, v) for v in c])
        for c in tf.cycles
    )
    return TwoFactor(tf.n, tf.alphas, tuple(cycles))


def spectrum_json(tf: TwoFactor) -> dict:
    sp = spectrum(tf)
    return {
        "n": tf.n,
        "alpha": format_sequence(tf.alphas),
        "num_cycles": sp.num_cycles,
        "spectrum": {str(length): count for length, count in sorted(sp.entries.items())},
    }


def two_factor_json(tf: TwoFactor) -> dict:
    from .bitcube import format_bits

    m = 2 * tf.n + 1
    return {
        "n": tf.n,
        "alpha": format_sequence(tf.alphas),
        "cycles": [[format_bits(v, m) for v in c] for c in tf.cycles],
    }
