"""Inductive construction of 2-factors in the odd cube's middle layer.

The construction keeps, per level n, families of disjoint dangling
oriented paths in the upper layers of the 2n-cube: family k lives in the
layer (k, k+1) and every path starts and ends at weight k.  One step
builds the 2-factor of the middle layer of the (2n+1)-cube out of the
middle family and a level-n alpha vector, then splits it back into the
families of the next level.

Vertices are ints (see bitcube); a family of full paths is one flat list
of vertices plus its path ends.  Each cycle of the 2-factor alternates
between whole stored paths suffixed with 0 and reversed f_alpha images
suffixed with 1; assembly therefore reduces to a permutation on the
middle family and two slices per block, of the family and of its
reversed image, and the cycle lengths to the orbit sizes of that
permutation.  f_alpha is a bit permutation followed by a complement, so it
is affine over GF(2) and splits into one table per half of the word: an
image vertex is two lookups, and f_alpha itself is called only to fill
the tables (_image_tables).

That permutation reads only the first and last vertex of each path, and
only the last vertices depend on the alphas: first and second vertices are
fixed lattice-path classes, kept once per (level, k) in the order a level
step builds them (_frame).  The first and last vertices of a level-n
middle family are the Dyck and the D_MINUS words of length 2n, each set
mapped onto itself by f_alpha, so both sides of the permutation are
per-(n, alpha) tables read from the same image tables: one over the
family's own positions, one over the ranks of the sorted D_MINUS words, in
whose order each state keeps its path indices.

A state is its level step: the parent state, the alpha and the two
permutations of the parent's middle family.  Its families, as last
vertices or as full paths, are built from the parent's families by one
rule on first read, in the order that rule concatenates them, and kept
in the state.  A path shifted into a copy of the cube is the path OR the
shift, and the arc that replaces path i of the middle family ends at the
first vertex of path succ[i] with the suffix 01, so a level step and a
cycle spectrum cost O(#paths), not O(#vertices).  Only the families the
middle family of the target level reads are ever built.

The permute-and-invert automorphism tau_alpha carries the 2-factor of
(..., alpha) onto the 2-factor of (..., alpha reversed), so the two have
the same cycle spectrum, and leaf_spectra walks once per reversal pair of
final alphas.  suites.suite_tau checks the symmetry itself, as edge sets
of the assembled 2-factors.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, Iterator

from . import lattice
from .bitcube import AlphaVector, ParameterSequence, check_sequence, f_alpha

Path = tuple[int, ...]


class ConstructionError(Exception):
    """An internal invariant of the construction was violated."""


@dataclass(frozen=True, eq=False)
class ConstructionState:
    """Path families of one level for one alpha prefix, made by a level step.

    parent is the state one level down (None at level 1), alpha the alpha
    vector of the parent's level, and succ and phat the permutations that
    _successors gives for the parent's middle family and alpha.  Family k
    lives in the layer (k, k+1) of the 2n-cube, k = n .. 2n-1, in the order
    of _family's level step; path j of family k starts at the j-th vertex
    of _frame(n, k)[0].  families lists the families up to k_cap, as
    tuples of paths.  A state keeps the families it has read, as last
    vertices or as full paths in one flat list each (_family).
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

    @property
    def families(self) -> dict[int, tuple[Path, ...]]:
        """The full paths of every listed family."""
        top = 2 * self.n if self.k_cap is None else min(2 * self.n, self.k_cap + 1)
        paths = lambda flat, ends: tuple(tuple(flat[a:b]) for a, b in zip((0, *ends), ends))
        return {k: paths(*_family(self, k, True)) for k in range(self.n, top)}

    @cached_property
    def _inv_by_last(self) -> list[int]:
        """Path i of the middle family ends at the _inv_by_last[i]-th D_MINUS
        word of length 2n, checked to be a permutation: the family ends at
        exactly those words."""
        _, (rank, _) = _level_tables(self.n)
        try:
            inv = list(map(rank.__getitem__, _family(self, self.n, False)))
            ok = len(inv) == len(set(inv)) == len(rank)
        except KeyError:
            ok = False
        if not ok:
            raise ConstructionError(
                f"middle family at level {self.n} does not end at the D_MINUS words"
            )
        return inv

    @cached_property
    def _by_last(self) -> list[int]:
        """Middle-family path indices sorted by last vertex, the inverse of
        _inv_by_last: path _by_last[r] ends at the r-th D_MINUS word."""
        at = [0] * len(self._inv_by_last)
        for i, r in enumerate(self._inv_by_last):
            at[r] = i
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


@cache
def _level_tables(n: int) -> tuple[tuple[dict[int, int], list[int]], ...]:
    """Per level n, for the first vertices of a middle family (the frame's,
    checked to be the Dyck words of length 2n) and then the sorted D_MINUS
    words (its last vertices): the position of each word, and the words."""
    dyck = lattice.dyck_bitstrings(2 * n)
    word = dict(zip(dyck, dyck))  # the cached word objects, not new ints
    firsts = [word.get(x) for x in _frame(n, n)[0]]
    if len(firsts) != len(dyck) or set(firsts) != dyck:
        raise ConstructionError(
            f"middle family at level {n} does not start at the Dyck words"
        )
    words = (firsts, sorted(lattice.dminus_bitstrings(2 * n)))
    return tuple(({x: r for r, x in enumerate(w)}, w) for w in words)


@cache
def _alpha_tables(n: int, alpha: AlphaVector) -> tuple[list[int], ...]:
    """Per (n, alpha): fb[j], the middle-family path that starts at f_alpha
    of the first vertex of path j, and lb[r], the rank of the inverse of
    f_alpha on the r-th D_MINUS word.  That inverse is
    f_alpha(alpha[::-1], .), and both maps are read from _image_tables."""
    if len(alpha) != n - 1:
        raise ConstructionError(
            f"alpha has length {len(alpha)}, expected {n - 1}"
        )
    mask = (1 << n) - 1
    images = (_image_tables(alpha, 0), _image_tables(alpha[::-1], 0))
    try:
        return tuple(
            [rank[low[x & mask] ^ up[x >> n]] for x in words]
            for (rank, words), (_, low, up) in zip(_level_tables(n), images)
        )
    except KeyError as exc:
        raise ConstructionError(
            f"f_alpha image {exc.args[0]} is not a family endpoint"
        ) from exc


def _successors(
    state: ConstructionState, alpha: AlphaVector
) -> tuple[list[int], list[int]]:
    """For each path index i of the middle family: phat[i], the path whose
    image block follows path i on its cycle, and succ[i], the path after
    that."""
    at = state._by_last
    fb, lb = _alpha_tables(state.n, alpha)
    phat = [at[lb[r]] for r in state._inv_by_last]
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


def _reversed_image(flat: list[int], alpha: AlphaVector, hi: int) -> list[int]:
    """f_alpha(alpha, v) | hi for each v of flat, last first: path
    flat[a:b] of a family of L vertices has its reversed image at
    [L - b : L - a].  Each image vertex is two lookups in the tables of
    _image_tables, one per half of the word."""
    h, low, up = _image_tables(alpha, hi)
    mask = (1 << h) - 1
    return [low[v & mask] ^ up[v >> h] for v in reversed(flat)]


def assemble_two_factor(state: ConstructionState, alpha: AlphaVector) -> TwoFactor:
    """Glue the middle family, its f_alpha image, and the endpoint matching
    into the 2-factor of the middle layer of the (2n+1)-cube."""
    n = state.n
    succ, phat = _successors(state, alpha)
    flat, ends = _family(state, n, True)
    rev = _reversed_image(flat, alpha, 1 << (2 * n))
    size = len(flat)
    starts = [0, *ends[:-1]]
    cycles = []
    for orbit in _orbits(succ):
        verts: list[int] = []
        for j in orbit:
            h = phat[j]
            verts += flat[starts[j] : ends[j]]
            verts += rev[size - ends[h] : size - starts[h]]
        cycles.append(canonical_cycle(verts))
    cycles.sort(key=lambda c: c[0])
    return TwoFactor(n, state.alpha_prefix + (alpha,), tuple(cycles))


def leaf_spectra(
    state: ConstructionState, alphas: Iterable[AlphaVector]
) -> list[dict[int, int]]:
    """The cycle-length multiset of the 2-factor of each final alpha on the
    state, in order, without materializing it, and with one walk per
    reversal pair: alpha reversed gets a copy of alpha's spectrum, since
    tau_alpha maps the one 2-factor onto the other.

    Each orbit of the path permutation contributes one cycle of length
    (4n+2) times the orbit size.  The walk is over w = inv_at . fb . at . lb
    with at = state._by_last and the tables of _alpha_tables: w is the succ
    of _successors conjugated by at, so it has the same cycle type.  Each
    orbit is marked in w itself, with the value len(w): a walk that reads
    a mark other than its start's steps off the end of w, which happens
    exactly when w is not a permutation.
    """
    n = state.n
    at, inv_at = state._by_last, state._inv_by_last
    unit = 4 * n + 2
    walked: dict[AlphaVector, dict[int, int]] = {}
    out = []
    for alpha in alphas:
        twin = walked.get(alpha[::-1])
        if twin is not None:
            out.append(dict(twin))
            continue
        fb, lb = _alpha_tables(n, alpha)
        w = [inv_at[fb[at[r]]] for r in lb]
        mark = len(w)
        spectrum: dict[int, int] = {}
        try:
            for start in range(mark):
                j = w[start]
                if j == mark:
                    continue
                w[start] = mark
                size = 1
                while j != start:
                    w[j], j = mark, w[j]
                    size += 1
                length = unit * size
                spectrum[length] = spectrum.get(length, 0) + 1
        except IndexError:
            raise ConstructionError("cycle walk did not close") from None
        walked[alpha] = spectrum
        out.append(spectrum)
    return out


def cycle_spectrum(state: ConstructionState, alpha: AlphaVector) -> dict[int, int]:
    """Cycle-length multiset of the 2-factor of one final alpha, by the
    walk of leaf_spectra."""
    return leaf_spectra(state, (alpha,))[0]


def _advance(state: ConstructionState, alpha: AlphaVector) -> ConstructionState:
    """The level n+1 state of the level n state and alpha."""
    succ, phat = _successors(state, alpha)
    return ConstructionState(state, alpha, succ, phat, state.k_cap)


@cache
def _frame(n: int, k: int) -> tuple[array, array]:
    """The alpha-free part of family k of level n: the first and second
    vertex of each path, in the order of _family's level step.  By
    _family's rule on those two vertices only: the arc that replaces a
    middle path starts at its second vertex s and goes on to s with the
    suffix 01, so no alpha enters.  32-bit arrays hold any level up to 16.
    """
    if n == 1:  # the single path 10 -> 11 -> 01, which no level step made
        return array("I", [0b01]), array("I", [0b11])
    p, m = n - 1, 2 * (n - 1)
    copies = [(k, 0), (k - 1, 1 << m)]
    if k != n:
        copies += [(k - 1, 2 << m), (k - 2, 3 << m)]
    firsts, seconds = (
        array("I", [x | s for j, s in copies if p <= j < m for x in _frame(p, j)[e]])
        for e in (0, 1)
    )
    if k == n:  # the arcs that replace the middle family of level p
        mid = _frame(p, p)[1]
        firsts.extend(mid)
        seconds.extend([x | 2 << m for x in mid])
    return firsts, seconds


def _family(state: ConstructionState, k: int, full: bool) -> tuple:
    """Family k of the state, as a tuple of last vertices or, full, as
    (flat, ends): the vertices of all paths in one list, path i ending
    before ends[i].  Built on first read and kept in the state.

    Family k of level n+1 is family k of level n, family k-1 shifted into
    the 10-copy, and either the arcs that replace the middle family
    (k = n+1) or family k-1 in the 01-copy and family k-2 in the 11-copy,
    concatenated in that order.  Each deleted first edge of the 2-factor
    leaves an arc from the old second vertex to the next first vertex: the
    arc that replaces path i is p[1], then p[1:] with the suffix 01, then
    the reversed f_alpha image of path phat[i] with the suffix 11, then the
    first vertex of path succ[i] with the suffix 01: four slices.
    """
    fam = state._built.get((k, full))
    if fam is not None:
        return fam
    parent = state.parent
    if parent is None:  # the single path 10 -> 11 -> 01
        flat, ends = ([0b01, 0b11, 0b10] if full else [0b10]), [3]
    else:
        flat, ends = [], []
        n, m = parent.n, 2 * parent.n
        copies = [(k, 0), (k - 1, 1 << m)]
        if k != n + 1:
            copies += [(k - 1, 2 << m), (k - 2, 3 << m)]
        for j, s in copies:
            if n <= j < m:
                part = _family(parent, j, full)
                if full:
                    part, part_ends = part
                    size = len(flat)
                    ends += [e + size for e in part_ends]
                flat += [v | s for v in part] if s else part
        if k == n + 1 and not full:
            firsts = _level_tables(n)[0][1]
            flat += [firsts[j] | 2 << m for j in state.succ]
        elif k == n + 1:  # the arcs that replace the middle family
            mid, mid_ends = _family(parent, n, True)
            mid01 = [v | 2 << m for v in mid]
            rev = _reversed_image(mid, state.alpha, 3 << m)
            size = len(mid)
            starts = [0, *mid_ends[:-1]]
            for a, b, j, h in zip(starts, mid_ends, state.succ, state.phat):
                flat.append(mid[a + 1])
                flat += mid01[a + 1 : b]
                flat += rev[size - mid_ends[h] : size - starts[h]]
                flat.append(mid01[starts[j]])
                ends.append(len(flat))
    fam = (flat, ends) if full else tuple(flat)
    state._built[k, full] = fam
    return fam


def state_for_prefix(
    prefix: ParameterSequence, k_cap: int | None = None
) -> ConstructionState:
    """State at level len(prefix)+1 for the given alpha prefix; level 1 is
    the single oriented path 10 -> 11 -> 01 in the 2-cube."""
    state = ConstructionState(None, (), [], [], k_cap)
    for alpha in prefix:
        state = _advance(state, alpha)
    return state


def build(seq: ParameterSequence) -> TwoFactor:
    """The 2-factor of the middle layer of the (2n+1)-cube, n = len(seq)."""
    n = len(seq)
    if n < 1:
        raise ValueError("need at least one alpha vector")
    check_sequence(seq)
    state = state_for_prefix(seq[:-1])
    return assemble_two_factor(state, seq[-1])
