"""Inductive construction of 2-factors in the odd cube's middle layer.

The construction keeps, per level n, families of disjoint dangling
oriented paths in the upper layers of the 2n-cube: family k lives in the
layer (k, k+1) and every path starts and ends at weight k.  One step
builds the 2-factor of the middle layer of the (2n+1)-cube out of the
middle family and a level-n alpha vector, then splits it back into the
families of the next level.

Vertices are ints (see bitcube) and paths are tuples of vertex ints.
Each cycle of the 2-factor alternates between whole stored paths
suffixed with 0 and reversed f_alpha images suffixed with 1; assembly
therefore reduces to a permutation on the middle family and concatenation
of its blocks, and the cycle lengths to the orbit sizes of that
permutation.

That permutation reads only the first and last vertex of each path, so a
state stores each path as its endpoint triple (first, second, last).  The
first and last vertices of a level-n middle family are the Dyck and the
D_MINUS words of length 2n, each set mapped onto itself by f_alpha, so
both sides of the permutation are per-(n, alpha) tables over word ranks:
sorted by first vertex, path j starts at the j-th smallest Dyck word,
and each state keeps its path indices in the order of their last vertex.
Triples are closed under the level step: a path shifted into a copy of
the cube is its triple OR the shift, and the arc that replaces path i of
the middle family is (p[1], p[1] | s01, first of path succ[i] | s01).  A
level step and a cycle spectrum therefore cost O(#paths), not
O(#vertices).  Full paths are needed only to assemble cycles and to check
path structure.  A family's full paths are built on demand by the same
rule applied to the full paths of the parent families it reads, expanded
in turn on demand with the permutations the parent's level step stored;
every state on the way keeps the families it expanded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterator

from . import lattice
from .bitcube import (
    AlphaVector,
    ParameterSequence,
    _swap_pairs,
    f_alpha,
    pair_mask,
    reverse_invert,
)

Path = tuple[int, ...]
Ends = tuple[int, int, int]  # (first, second, last) vertex of a path


class ConstructionError(Exception):
    """An internal invariant of the construction was violated."""


@dataclass(frozen=True)
class ConstructionState:
    """Path families of one level for one alpha prefix.

    ends maps k to the family in layer (k, k+1) of the 2n-cube, for
    k = n .. min(2n-1, k_cap), each path given by its endpoint triple and
    the family sorted by first vertex; path j of the middle family starts
    at the j-th smallest Dyck word of length 2n.  A k_cap prunes layers
    that a build toward a fixed target level never reads again.  origin
    is the level step that made the state: the parent state, its alpha and
    the permutations succ and phat of the parent's middle family (None at
    level 1).  _paths holds the full paths of the families expanded so
    far.  Make states only through base_state and state_for_prefix: a
    state built by hand from full paths in ends would be read as wrong
    triples.
    """

    n: int
    ends: dict[int, tuple[Ends, ...]]
    alpha_prefix: ParameterSequence
    k_cap: int | None = None
    origin: tuple[ConstructionState, AlphaVector, list[int], list[int]] | None = field(
        default=None, compare=False, repr=False
    )
    _paths: dict[int, tuple[Path, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def families(self) -> dict[int, tuple[Path, ...]]:
        """The full paths of every family, sorted by first vertex."""
        return {k: _paths(self, k) for k in sorted(self.ends)}

    @cached_property
    def _by_last(self) -> list[int]:
        """Middle-family path indices sorted by last vertex, checked to end
        at the D_MINUS words of length 2n: path _by_last[r] ends at the r-th."""
        fam = self.ends.get(self.n, ())
        at = sorted(range(len(fam)), key=lambda i: fam[i][2])
        _, (last_rank, _) = _level_tables(self.n)
        if [fam[i][2] for i in at] != list(last_rank):
            raise ConstructionError(
                f"middle family at level {self.n} does not end at the D_MINUS words"
            )
        return at


@dataclass(frozen=True)
class TwoFactor:
    """Disjoint cycles covering both middle levels of the (2n+1)-cube.

    Cycles are stored canonically: smallest vertex first, second vertex
    the smaller of its two neighbors, cycles sorted by first vertex.
    """

    n: int
    alphas: ParameterSequence
    cycles: tuple[tuple[int, ...], ...] = field(repr=False)


def base_state(k_cap: int | None = None) -> ConstructionState:
    """Level 1: the single oriented path 10 -> 11 -> 01 in the 2-cube."""
    path = (0b01, 0b11, 0b10)
    return ConstructionState(1, {1: (path,)}, (), k_cap, _paths={1: (path,)})


@lru_cache(maxsize=None)
def _level_tables(n: int) -> tuple[tuple[dict[int, int], list[int]], ...]:
    """Per level n, for the Dyck words of length 2n (the first vertices of
    a middle family) and then the D_MINUS words (its last vertices): the
    rank of each word in sorted order, and reverse_invert on the words in
    rank order."""
    m = 2 * n
    words = (lattice.dyck_bitstrings(m), lattice.dminus_bitstrings(m))
    return tuple(
        ({x: r for r, x in enumerate(w)}, [reverse_invert(x, m) for x in w])
        for w in map(sorted, words)
    )


@lru_cache(maxsize=4096)
def _alpha_tables(n: int, alpha: AlphaVector) -> tuple[list[int], ...]:
    """Per (n, alpha): fb[j], the rank of f_alpha of the j-th Dyck word of
    length 2n, and lb[r], the rank of the inverse of f_alpha on the r-th
    D_MINUS word.

    Reversal carries the pair at positions (2i, 2i+1) to the pair n-i, so
    f_alpha(alpha, x) = pi_alpha(alpha[::-1], reverse_invert(x)): with the
    reversals kept per n, only the pair swap depends on alpha.  The
    inverse f_alpha(alpha[::-1], .) swaps the pairs of alpha itself.
    """
    masks = (pair_mask(alpha[::-1]), pair_mask(alpha))
    try:
        return tuple(
            [rank[_swap_pairs(r, mask)] for r in ris]
            for (rank, ris), mask in zip(_level_tables(n), masks)
        )
    except KeyError as exc:  # pragma: no cover - guards a construction bug
        raise ConstructionError(
            f"f_alpha image {exc.args[0]} is not a family endpoint"
        ) from exc


def _successors(
    state: ConstructionState, alpha: AlphaVector
) -> tuple[list[int], list[int]]:
    """For each path index i of the middle family: phat[i], the path whose
    image block follows path i on its cycle, and succ[i], the path after
    that."""
    n = state.n
    if len(alpha) != n - 1:
        raise ConstructionError(
            f"alpha has length {len(alpha)}, expected {n - 1}"
        )
    at = state._by_last
    fb, lb = _alpha_tables(n, alpha)
    phat = [0] * len(at)
    for r, i in enumerate(at):
        phat[i] = at[lb[r]]
    succ = [fb[j] for j in phat]
    return succ, phat


def canonical_cycle(verts: list[int]) -> tuple[int, ...]:
    """Rotate to the minimal vertex and orient toward its smaller neighbor."""
    i = verts.index(min(verts))
    r = verts[i:] + verts[:i]
    if len(r) > 2 and r[-1] < r[1]:
        r = [r[0]] + r[:0:-1]
    return tuple(r)


def _orbits(succ: list[int]) -> Iterator[list[int]]:
    """The orbits of the permutation succ, each in walk order from its
    smallest index."""
    visited = [False] * len(succ)
    for start in range(len(succ)):
        if visited[start]:
            continue
        orbit = []
        j = start
        while not visited[j]:
            visited[j] = True
            orbit.append(j)
            j = succ[j]
        if j != start:
            raise ConstructionError("cycle walk did not close")
        yield orbit


def _block(p: Path, q: Path, alpha: AlphaVector, lo: int, hi: int) -> list[int]:
    """One block of a 2-factor cycle: path p with the suffix bits lo, then
    the f_alpha image of path q with the suffix bits hi, traversed
    backwards."""
    return [v | lo for v in p] + [f_alpha(alpha, v) | hi for v in reversed(q)]


def assemble_two_factor(state: ConstructionState, alpha: AlphaVector) -> TwoFactor:
    """Glue the middle family, its f_alpha image, and the endpoint matching
    into the 2-factor of the middle layer of the (2n+1)-cube."""
    n = state.n
    succ, phat = _successors(state, alpha)
    fam = _paths(state, n)
    top = 1 << (2 * n)
    cycles = []
    for orbit in _orbits(succ):
        verts: list[int] = []
        for j in orbit:
            verts += _block(fam[j], fam[phat[j]], alpha, 0, top)
        cycles.append(canonical_cycle(verts))
    cycles.sort(key=lambda c: c[0])
    return TwoFactor(n, state.alpha_prefix + (alpha,), tuple(cycles))


def cycle_spectrum(state: ConstructionState, alpha: AlphaVector) -> dict[int, int]:
    """Cycle-length multiset of the 2-factor, without materializing it.

    Each orbit of the path permutation contributes one cycle of length
    (4n+2) times the orbit size.
    """
    succ, _ = _successors(state, alpha)
    unit = 4 * state.n + 2
    spectrum: dict[int, int] = {}
    for orbit in _orbits(succ):
        length = unit * len(orbit)
        spectrum[length] = spectrum.get(length, 0) + 1
    return spectrum


def _advance(state: ConstructionState, alpha: AlphaVector) -> ConstructionState:
    """Build the level n+1 families from the level n state and alpha."""
    n = state.n
    fam = state.ends[n]
    succ, phat = _successors(state, alpha)
    s01 = 2 << (2 * n)
    # Each deleted first edge of the 2-factor leaves an arc from the old
    # second vertex to the next first vertex; prepend the matching edge
    # into the 00-copy and push the arc into the 1-copies.
    arcs = lambda: [(p[1], p[1] | s01, fam[j][0] | s01) for p, j in zip(fam, succ)]
    shift = lambda fam, s: [(a | s, b | s, c | s) for a, b, c in fam]
    kmax = 2 * n + 1
    if state.k_cap is not None:
        kmax = min(kmax, state.k_cap)
    ends = {
        k: _next_family(n, k, lambda j: state.ends.get(j, ()), shift, arcs)
        for k in range(n + 1, kmax + 1)
    }
    return ConstructionState(
        n + 1, ends, state.alpha_prefix + (alpha,), state.k_cap,
        origin=(state, alpha, succ, phat),
    )


def _next_family(
    n: int,
    k: int,
    get: Callable[[int], tuple],
    shift: Callable[[tuple, int], list],
    arcs: Callable[[], list],
) -> tuple:
    """Family k of level n+1 from the level-n families get(j): family k,
    family k-1 shifted into the 10-copy, and either the arcs() that replace
    the middle family (k = n+1) or family k-1 in the 01-copy and family
    k-2 in the 11-copy.  The same rule serves triples and full paths."""
    m = 2 * n
    parts = list(get(k)) + shift(get(k - 1), 1 << m)
    if k == n + 1:
        parts += arcs()
    else:
        parts += shift(get(k - 1), 2 << m) + shift(get(k - 2), 3 << m)
    parts.sort()  # first vertices are distinct, so this sorts by them
    return tuple(parts)


def _paths(state: ConstructionState, k: int) -> tuple[Path, ...]:
    """Full paths of family k, kept in the state.

    Expands the parent's families by the rule _advance applies to their
    triples, reusing the parent step's succ and phat: the arc that replaces
    path i of the middle family is p[1], then block i with the suffixes 01
    and 11 and without its first vertex, then the first vertex of path
    succ[i] with the suffix 01.  Each parent family is expanded only when
    it is read.
    """
    paths = state._paths.get(k)
    if paths is not None:
        return paths
    if state.origin is None:
        raise ConstructionError(
            f"state at level {state.n} has no origin and no stored paths "
            f"for family {k}"
        )
    parent, alpha, succ, phat = state.origin
    n = parent.n
    s01 = 2 << (2 * n)
    s11 = 3 << (2 * n)
    get = lambda j: _paths(parent, j) if j in parent.ends else ()

    def arcs():
        mid = get(n)
        return [
            (p[1],)
            + tuple(_block(p[1:], mid[phat[i]], alpha, s01, s11))
            + (mid[succ[i]][0] | s01,)
            for i, p in enumerate(mid)
        ]

    shift = lambda fam, s: [tuple(v | s for v in p) for p in fam]
    paths = state._paths[k] = _next_family(n, k, get, shift, arcs)
    return paths


def state_for_prefix(
    prefix: ParameterSequence, k_cap: int | None = None
) -> ConstructionState:
    """State at level len(prefix)+1 for the given alpha prefix."""
    state = base_state(k_cap)
    for alpha in prefix:
        state = _advance(state, alpha)
    return state


def build(seq: ParameterSequence) -> TwoFactor:
    """The 2-factor of the middle layer of the (2n+1)-cube, n = len(seq)."""
    n = len(seq)
    if n < 1:
        raise ValueError("need at least one alpha vector")
    for i, a in enumerate(seq, start=1):
        if len(a) != i - 1:
            raise ValueError(f"alpha vector {i} has length {len(a)}, expected {i - 1}")
    state = state_for_prefix(seq[:-1], k_cap=n)
    return assemble_two_factor(state, seq[-1])


def fsl_sets(state: ConstructionState, k: int) -> tuple[set[int], set[int], set[int]]:
    """First, second and last vertex sets of family k."""
    fam = state.ends[k]
    return (
        {t[0] for t in fam},
        {t[1] for t in fam},
        {t[2] for t in fam},
    )
