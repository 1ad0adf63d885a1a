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
permutation.  f_alpha is a bit permutation followed by a complement, so it
is affine over GF(2) and splits into one table per half of the word: an
image vertex is two lookups, and f_alpha itself is called only to fill
the tables (_image_tables).

That permutation reads only the first and last vertex of each path, so the
level step and the cycle spectrum read each path as its endpoint triple
(first, second, last).  The first and last vertices of a level-n middle
family are the Dyck and the D_MINUS words of length 2n, each set mapped
onto itself by f_alpha, so both sides of the permutation are
per-(n, alpha) tables over word ranks: sorted by first vertex, path j
starts at the j-th smallest Dyck word, and each state keeps its path
indices in the order of their last vertex.

A state is its level step: the parent state, the alpha and the two
permutations of the parent's middle family.  Its families, as triples or
as full paths, are built from the parent's families by one rule on first
read and kept in the state.  A path shifted into a copy of the cube is the
path OR the shift, and the arc that replaces path i of the middle family
has the triple (p[1], p[1] | s01, first of path succ[i] | s01).  A level
step and a cycle spectrum therefore cost O(#paths), not O(#vertices), and
only the families the middle family of the target level reads are ever
built.  Full paths are needed only to assemble cycles and to check path
structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator

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


@dataclass(frozen=True, eq=False)
class ConstructionState:
    """Path families of one level for one alpha prefix, made by a level step.

    parent is the state one level down (None at level 1), alpha the alpha
    vector of the parent's level, and succ and phat the permutations that
    _successors gives for the parent's middle family and alpha.  Family k
    lives in the layer (k, k+1) of the 2n-cube, k = n .. 2n-1, sorted by
    first vertex; path j of the middle family starts at the j-th smallest
    Dyck word of length 2n.  ends and families list the families up to
    k_cap.
    """

    parent: ConstructionState | None = field(repr=False)
    alpha: AlphaVector
    succ: list[int] = field(repr=False)
    phat: list[int] = field(repr=False)
    k_cap: int | None = None
    _built: dict[tuple[int, bool], tuple] = field(
        default_factory=dict, init=False, repr=False
    )

    @cached_property
    def n(self) -> int:
        return 1 if self.parent is None else self.parent.n + 1

    @cached_property
    def alpha_prefix(self) -> ParameterSequence:
        if self.parent is None:
            return ()
        return self.parent.alpha_prefix + (self.alpha,)

    def _listed(self) -> range:
        top = 2 * self.n if self.k_cap is None else min(2 * self.n, self.k_cap + 1)
        return range(self.n, top)

    @property
    def ends(self) -> dict[int, tuple[Ends, ...]]:
        """The endpoint triple of every path of every listed family."""
        return {k: _family(self, k, False) for k in self._listed()}

    @property
    def families(self) -> dict[int, tuple[Path, ...]]:
        """The full paths of every listed family."""
        return {k: _family(self, k, True) for k in self._listed()}

    @cached_property
    def _by_last(self) -> list[int]:
        """Middle-family path indices sorted by last vertex, checked to end
        at the D_MINUS words of length 2n: path _by_last[r] ends at the r-th."""
        fam = _family(self, self.n, False)
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
    return ConstructionState(None, (), [], [], k_cap)


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


def _image_tables(alpha: AlphaVector, hi: int) -> tuple[int, list[int], list[int]]:
    """(h, low, up) with h = n and f_alpha(alpha, v) | hi equal to
    low[v & (2^h - 1)] ^ up[v >> h] for every 2n-bit v.

    f_alpha permutes bits and then complements them all, so it is affine
    over GF(2): f_alpha(v) = L(v) ^ f_alpha(0) with L linear, and
    L(e_b) = f_alpha(e_b) ^ f_alpha(0) for each unit vector e_b.  Each
    table over h bits is filled by XOR doubling, one bit at a time.
    """
    h = len(alpha) + 1
    zero = f_alpha(alpha, 0)
    low, up = [hi], [zero]
    for t, shift in ((low, 0), (up, h)):
        for b in range(shift, shift + h):
            img = f_alpha(alpha, 1 << b) ^ zero
            t += [x ^ img for x in t]
    return h, low, up


def _block(p: Path, q: Path, tables: tuple, lo: int) -> list[int]:
    """One block of a 2-factor cycle: path p with the suffix bits lo, then
    the image of path q under the tables of _image_tables (f_alpha with
    the suffix bits hi), traversed backwards.  Each image vertex is two
    table lookups, one per half of the word."""
    h, low, up = tables
    mask = (1 << h) - 1
    return [v | lo for v in p] + [low[v & mask] ^ up[v >> h] for v in reversed(q)]


def assemble_two_factor(state: ConstructionState, alpha: AlphaVector) -> TwoFactor:
    """Glue the middle family, its f_alpha image, and the endpoint matching
    into the 2-factor of the middle layer of the (2n+1)-cube."""
    n = state.n
    succ, phat = _successors(state, alpha)
    fam = _family(state, n, True)
    tables = _image_tables(alpha, 1 << (2 * n))
    cycles = []
    for orbit in _orbits(succ):
        verts: list[int] = []
        for j in orbit:
            verts += _block(fam[j], fam[phat[j]], tables, 0)
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
    """The level n+1 state of the level n state and alpha."""
    succ, phat = _successors(state, alpha)
    return ConstructionState(state, alpha, succ, phat, state.k_cap)


def _family(state: ConstructionState, k: int, full: bool) -> tuple:
    """Family k of the state, as endpoint triples or as full paths, built
    on first read and kept in the state.

    Family k of level n+1 is family k of level n, family k-1 shifted into
    the 10-copy, and either the arcs that replace the middle family
    (k = n+1) or family k-1 in the 01-copy and family k-2 in the 11-copy.
    Each deleted first edge of the 2-factor leaves an arc from the old
    second vertex to the next first vertex: the arc that replaces path i is
    p[1], then block i with the suffixes 01 and 11 and without its first
    vertex, then the first vertex of path succ[i] with the suffix 01.
    """
    fam = state._built.get((k, full))
    if fam is not None:
        return fam
    parent = state.parent
    if parent is None:
        # the single path 10 -> 11 -> 01 is its own triple
        fam = ((0b01, 0b11, 0b10),) if k == 1 else ()
    else:
        n, m = parent.n, 2 * parent.n
        get = lambda j: _family(parent, j, full) if n <= j < m else ()
        if full:
            shift = lambda fam, s: [tuple(v | s for v in p) for p in fam]
        else:
            shift = lambda fam, s: [(a | s, b | s, c | s) for a, b, c in fam]
        parts = list(get(k)) + shift(get(k - 1), 1 << m)
        if k == n + 1:
            mid, s01, s11 = get(n), 2 << m, 3 << m
            if full:
                tables = _image_tables(state.alpha, s11)
                parts += [
                    (p[1], *_block(p[1:], mid[h], tables, s01), mid[j][0] | s01)
                    for p, j, h in zip(mid, state.succ, state.phat)
                ]
            else:  # the (first, second, last) of the full arc
                parts += [
                    (p[1], p[1] | s01, mid[j][0] | s01) for p, j in zip(mid, state.succ)
                ]
        else:
            parts += shift(get(k - 1), 2 << m) + shift(get(k - 2), 3 << m)
        parts.sort()  # first vertices are distinct, so this sorts by them
        fam = tuple(parts)
    state._built[k, full] = fam
    return fam


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
    state = state_for_prefix(seq[:-1])
    return assemble_two_factor(state, seq[-1])


def fsl_sets(state: ConstructionState, k: int) -> tuple[set[int], set[int], set[int]]:
    """First, second and last vertex sets of family k."""
    fam = _family(state, k, False)
    return (
        {t[0] for t in fam},
        {t[1] for t in fam},
        {t[2] for t in fam},
    )
