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
permutation.  One walk (_orbits) gives the orbits, by start and size, to
assembly, which walks the paths in order of their first vertices so that
each cycle comes out canonical, and to the leaf.  f_alpha is a bit
permutation followed by a complement, so it is affine over GF(2) and
splits into one table per half of the word: one evaluator (_images)
gives every image vertex as two lookups, and f_alpha itself is called
only to fill its tables.

That permutation reads only the first and last vertex of each path, and
only the last vertices depend on the alphas: first and second vertices are
fixed lattice-path classes, kept once per (level, k) in the order a level
step builds them (_frame).  The first and last vertices of a level-n
middle family are the Dyck and the D_MINUS words of length 2n, each set
mapped onto itself by f_alpha, so both sides of the permutation are
per-(n, alpha) rank tables: one over the family's own positions, one over
the ranks of the sorted D_MINUS words, in whose order each state keeps its
path indices.  f_alpha is pi_alpha, a product of commuting pair swaps
that each map both word sets onto themselves, followed by reverse and
complement.  So one cached record per level (_level_tables) holds the
first vertices, the ranks of the D_MINUS words, per word set the
pair-swap ranks, and a store of the tables of every alpha built so far,
seeded with the ranked images of the all-zero alpha, which is reverse
and complement alone.  That carries each pair swap onto its mirror, so
half the pair-swap ranks are the other half conjugated by the seed.  A
new alpha takes the tables of the nearest alpha in the store and gathers
them once per differing entry through the pair-swap ranks.

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
from .bitcube import AlphaVector, ParameterSequence, check_sequence, f_alpha, pair_mask

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
    def families(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """The full paths of every listed family."""
        top = 2 * self.n if self.k_cap is None else min(2 * self.n, self.k_cap + 1)
        paths = lambda flat, ends: tuple(tuple(flat[a:b]) for a, b in zip((0, *ends), ends))
        return {k: paths(*_family(self, k, True)) for k in range(self.n, top)}

    @cached_property
    def _index(self) -> tuple[list[int], list[int]]:
        """(inv, at): path i of the middle family ends at the inv[i]-th
        D_MINUS word of length 2n, and path at[r] ends at the r-th, checked
        in the same pass to be inverse permutations: the family ends at
        exactly those words."""
        rank = _level_tables(self.n)[1]
        at = [-1] * len(rank)
        try:
            inv = list(map(rank.__getitem__, _family(self, self.n, False)))
            for i, r in enumerate(inv):
                at[r] = i
        except KeyError:
            inv = []
        if len(inv) != len(at) or -1 in at:
            raise ConstructionError(
                f"middle family at level {self.n} does not end at the D_MINUS words"
            )
        return inv, at


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
def _level_tables(n: int) -> tuple:
    """The record of level n, (firsts, rank, fswaps, lswaps, store):
    firsts, the middle family's first vertices (the frame's, checked to be
    the Dyck words of length 2n); rank, the position of each D_MINUS word
    of length 2n (its last vertices) in sorted order; per word set, the
    first vertices then the sorted D_MINUS words, the pair swaps: per
    alpha index i, the rank of each word with pair i+1 swapped, a
    permutation of the ranks, 16 bits through level 11; and store, the
    alpha tables (_alpha_tables) built at level n by the alpha's
    pair_mask, seeded with those of the all-zero alpha: per word set, the
    rank of the f_alpha image of each word (_images).  The all-zero alpha
    is its own reverse, so it serves both word sets.

    The swaps with i >= n-2-i are computed from the words
    (bitcube._swap_pairs inlined, m the pair's low bit).  Reverse and
    complement, the all-zero alpha's f_alpha, carries pair i+1 onto pair
    n-1-i and is an involution on each word set, so every other swap is
    the one of index n-2-i conjugated by the all-zero alpha's ranks, one
    pass over the ranks with no word arithmetic and no dict lookup."""
    dyck = lattice.dyck_bitstrings(2 * n)
    # the cached word objects, not new ints
    firsts = list(map(dict(zip(dyck, dyck)).get, _frame(n, n)[0]))
    if len(firsts) != len(dyck) or set(firsts) != dyck:
        raise ConstructionError(
            f"middle family at level {n} does not start at the Dyck words"
        )
    zero = (0,) * (n - 1)
    upper = range((n - 1) // 2, n - 1)  # the i with i >= n-2-i
    sides = []
    for words in (firsts, sorted(lattice.dminus_bitstrings(2 * n))):
        rank = {x: r for r, x in enumerate(words)}
        code = "H" if len(words) <= 1 << 16 else "I"
        image = "pair-swap"
        try:
            swaps = {}
            for i in upper:
                m = 2 << 2 * i
                swaps[i] = array(code, [rank[x ^ ((x >> 1 ^ x) & m) * 3] for x in words])
            image = "f_alpha"
            rc = list(map(rank.__getitem__, _images(zero, 0, words)))
        except KeyError as exc:
            raise ConstructionError(
                f"{image} image {exc.args[0]} is not a family endpoint"
            ) from exc
        for i in range(upper.start):
            mirror = swaps[n - 2 - i]
            swaps[i] = array(code, [rc[mirror[p]] for p in rc])
        sides.append((tuple(swaps[i] for i in range(n - 1)), rc))
    (fswaps, fb), (lswaps, lb) = sides
    return firsts, rank, fswaps, lswaps, {0: (fb, lb)}  # rank of the last word set, D_MINUS


def _alpha_tables(n: int, alpha: AlphaVector) -> tuple[list[int], list[int]]:
    """Per (n, alpha): fb[j], the middle-family path that starts at f_alpha
    of the first vertex of path j, and lb[r], the rank of the inverse of
    f_alpha on the r-th D_MINUS word.  That inverse is f_alpha(alpha[::-1], .).

    f_alpha of alpha xor e_i is f_alpha after the pair swap pi_i, and the
    pair swaps commute, so a new alpha starts from the tables of the
    nearest alpha in the level record's store, the all-zero alpha among
    them, and, per entry i in which the two differ, gathers fb through
    pi_i and lb through pi_(n-2-i), entry i of alpha[::-1].  Entries count
    by truth value, as in bitcube.pair_mask, which keys the store.
    """
    if len(alpha) != n - 1:
        raise ConstructionError(
            f"alpha has length {len(alpha)}, expected {n - 1}"
        )
    store = _level_tables(n)[4]
    key = pair_mask(alpha)
    tables = store.get(key)
    if tables is not None:
        return tables
    near = min(store, key=lambda k: (k ^ key).bit_count())
    fb, lb = store[near]
    _, _, fswaps, lswaps, _ = _level_tables(n)
    diff = near ^ key
    for i in range(n - 1):
        if diff >> 2 * i & 2:
            fb = [fb[p] for p in fswaps[i]]
            lb = [lb[p] for p in lswaps[n - 2 - i]]
    tables = store[key] = fb, lb
    return tables


def _successors(
    state: ConstructionState, alpha: AlphaVector
) -> tuple[list[int], list[int]]:
    """For each path index i of the middle family: phat[i], the path whose
    image block follows path i on its cycle, and succ[i], the path after
    that."""
    inv, at = state._index
    fb, lb = _alpha_tables(state.n, alpha)
    phat = [at[lb[r]] for r in inv]
    succ = [fb[j] for j in phat]
    return succ, phat


def _orbits(w: list[int], starts: Iterable[int]) -> Iterator[tuple[int, int]]:
    """(start, size) for each orbit of the permutation w, in the order of
    starts, an ordering of w's indices: an orbit starts at, and comes out
    at, the first of its indices in starts.  Each orbit is marked in w
    itself, with the value len(w), so w is consumed: a walk that reads a
    mark other than its start's steps off the end of w, which happens
    exactly when w is not a permutation."""
    mark = len(w)
    try:
        for start in starts:
            j = w[start]
            if j == mark:
                continue
            w[start] = mark
            size = 1
            while j != start:
                w[j], j = mark, w[j]
                size += 1
            yield start, size
    except IndexError:
        raise ConstructionError("cycle walk did not close") from None


def _images(alpha: AlphaVector, hi: int, vs: Iterable[int]) -> list[int]:
    """f_alpha(alpha, v) | hi for each v of vs, as two table lookups, one
    per half of the word.

    f_alpha permutes bits and then complements them all, so it is affine
    over GF(2): f_alpha(v) = L(v) ^ f_alpha(0) with L linear, and
    L(e_b) = f_alpha(e_b) ^ f_alpha(0) for each unit vector e_b.  Each
    table over h = n bits is filled by XOR doubling, one bit at a time.
    """
    h = len(alpha) + 1
    zero = f_alpha(alpha, 0)
    low, up = [hi], [zero]
    for t, shift in ((low, 0), (up, h)):
        for b in range(shift, shift + h):
            img = f_alpha(alpha, 1 << b) ^ zero
            t += [x ^ img for x in t]
    mask = (1 << h) - 1
    return [low[v & mask] ^ up[v >> h] for v in vs]


def assemble_two_factor(state: ConstructionState, alpha: AlphaVector) -> TwoFactor:
    """Glue the middle family, its f_alpha image, and the endpoint matching
    into the 2-factor of the middle layer of the (2n+1)-cube.

    Each cycle is written once, already in TwoFactor's canonical form.
    The walk takes the paths in order of their first vertices, so each
    orbit starts at its path with the smallest first vertex and the
    orbits come out in order of it; each cycle runs forward from there.
    That start is the cycle's smallest vertex, and its second vertex the
    smaller of the two neighbors, because
    - every path's first vertex is its strict minimum, by induction over
      _family's rule: the level-1 path is 01, 11, 10; a shifted copy ORs
      the same bits above 2n into every vertex; and an arc starts at the
      old second vertex, below 2^(2n), while every later arc vertex has
      bit 2n+1 set;
    - every path vertex (suffix 0) lies below every image vertex (bit 2n
      set), so the cycle's minimum is the smallest first vertex;
    - a middle path starts at a Dyck word and ends at a D_MINUS word, and
      the two sets are disjoint, so it has at least 3 vertices: the
      second vertex of the cycle is a path vertex and the last one an
      image vertex, which is larger, so the cycle is never reversed.
    """
    n = state.n
    succ, phat = _successors(state, alpha)
    flat, ends = _family(state, n, True)
    firsts = _level_tables(n)[0]
    # path flat[a:b] has its reversed image at rev[size - b : size - a]
    rev = _images(alpha, 1 << (2 * n), reversed(flat))
    size = len(flat)
    starts = [0, *ends[:-1]]
    order = sorted(range(len(succ)), key=firsts.__getitem__)
    cycles = []
    for j, blocks in _orbits(list(succ), order):
        verts: list[int] = []
        for _ in range(blocks):
            h = phat[j]
            verts += flat[starts[j] : ends[j]]
            verts += rev[size - ends[h] : size - starts[h]]
            j = succ[j]
        cycles.append(tuple(verts))
    return TwoFactor(n, state.alpha_prefix + (alpha,), tuple(cycles))


def leaf_spectra(
    state: ConstructionState, alphas: Iterable[AlphaVector]
) -> list[dict[int, int]]:
    """The cycle-length multiset of the 2-factor of each final alpha on the
    state, in order, without materializing it, and with one walk per
    reversal pair: alpha reversed gets a copy of alpha's spectrum, since
    tau_alpha maps the one 2-factor onto the other.

    Each orbit of the path permutation contributes one cycle of length
    (4n+2) times the orbit size.  The walk (_orbits) is over
    w = inv . fb . at . lb with (inv, at) = state._index and the tables of
    _alpha_tables: w is the succ of _successors conjugated by at, so it
    has the same cycle type.
    """
    n = state.n
    inv, at = state._index
    unit = 4 * n + 2
    walked: dict[AlphaVector, dict[int, int]] = {}
    out = []
    for alpha in alphas:
        twin = walked.get(alpha[::-1])
        if twin is not None:
            out.append(dict(twin))
            continue
        fb, lb = _alpha_tables(n, alpha)
        spectrum: dict[int, int] = {}
        for _, size in _orbits([inv[fb[at[r]]] for r in lb], range(len(lb))):
            length = unit * size
            spectrum[length] = spectrum.get(length, 0) + 1
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
def _copies(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """(j, shift) for each nonempty level-n family j that family k of level
    n+1 copies, in order: k, k-1 in the 10-copy, and, unless k = n+1, k-1
    in the 01-copy and k-2 in the 11-copy."""
    m = 2 * n
    copies = [(k, 0), (k - 1, 1 << m)]
    if k != n + 1:
        copies += [(k - 1, 2 << m), (k - 2, 3 << m)]
    return tuple((j, s) for j, s in copies if n <= j < m)


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
    p = n - 1
    firsts, seconds = (
        array("I", [x | s for j, s in _copies(p, k) for x in _frame(p, j)[e]])
        for e in (0, 1)
    )
    if k == n:  # the arcs that replace the middle family of level p
        mid = _frame(p, p)[1]
        firsts.extend(mid)
        seconds.extend([x | 2 << 2 * p for x in mid])
    return firsts, seconds


def _family(state: ConstructionState, k: int, full: bool) -> tuple:
    """Family k of the state, as a tuple of last vertices or, full, as
    (flat, ends): the vertices of all paths in one list, path i ending
    before ends[i].  Built on first read and kept in the state.

    Family k of level n+1 is the level-n families of _copies, then, at
    k = n+1, the arcs that replace the middle family.  Each deleted first
    edge of the 2-factor leaves an arc from the old second vertex to the
    next first vertex: the arc that replaces path i is p[1], then p[1:]
    with the suffix 01, then the reversed f_alpha image of path phat[i]
    with the suffix 11, then the first vertex of path succ[i] with the
    suffix 01: four slices.
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
        for j, s in _copies(n, k):
            part = _family(parent, j, full)
            if full:
                part, part_ends = part
                size = len(flat)
                ends += [e + size for e in part_ends]
            flat += [v | s for v in part] if s else part
        if k == n + 1 and not full:
            firsts = _level_tables(n)[0]
            flat += [firsts[j] | 2 << m for j in state.succ]
        elif k == n + 1:  # the arcs that replace the middle family
            mid, mid_ends = _family(parent, n, True)
            mid01 = [v | 2 << m for v in mid]
            rev = _images(state.alpha, 3 << m, reversed(mid))
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
    seq = check_sequence(seq)
    if not seq:
        raise ValueError("need at least one alpha vector")
    state = state_for_prefix(seq[:-1])
    return assemble_two_factor(state, seq[-1])
