import sys
from array import array
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midlayer import construct, lattice
from midlayer.analysis import spectrum, verify_two_factor
from midlayer.bitcube import f_alpha, parse_bits, parse_sequence
from midlayer.construct import (
    ConstructionError,
    _advance,
    _alpha_tables,
    _images,
    _orbits,
    _successors,
    assemble_two_factor,
    build,
    canonical_cycle,
    cycle_spectrum,
    leaf_spectra,
    state_for_prefix,
)
from midlayer.search import alpha_vectors, random_sequence
from midlayer.suites import _fsl_sets


def bits(text):
    return parse_bits(text)[0]


def seq(text):
    return parse_sequence(text)


def test_base_state():
    s = state_for_prefix(())
    assert s.n == 1
    assert s.families == {1: ((bits("10"), bits("11"), bits("01")),)}
    assert s.alpha_prefix == ()


def test_base_state_fsl():
    F, S, L = _fsl_sets(state_for_prefix(()), 1)
    assert (F, S, L) == ({bits("10")}, {bits("11")}, {bits("01")})


def test_canonical_cycle():
    assert canonical_cycle([3, 1, 5, 4]) == (1, 3, 4, 5)
    assert canonical_cycle([4, 5, 1, 3]) == (1, 3, 4, 5)
    assert canonical_cycle([2, 6, 9]) == (2, 6, 9)
    # the orientation compares the two neighbours of the minimum, not a
    # vertex two steps on
    assert canonical_cycle([1, 5, 3, 4]) == (1, 4, 3, 5)
    assert canonical_cycle([1, 5, 9, 3]) == (1, 3, 9, 5)


def test_assemble_level_one_six_cycle():
    tf = assemble_two_factor(state_for_prefix(()), ())
    expected = tuple(
        bits(t) for t in ("100", "110", "010", "011", "001", "101")
    )
    assert tf.cycles == (expected,)
    assert tf.n == 1 and tf.alphas == ((),)


def test_split_level_one():
    arc = tuple(
        bits(t)
        for t in ("1100", "1101", "0101", "0111", "0011", "1011", "1001")
    )
    short = tuple(bits(t) for t in ("1010", "1110", "0110"))
    top = tuple(bits(t) for t in ("1011", "1111", "0111"))
    # family 2 in level-step order: the path shifted into the 10-copy,
    # then the arc that replaces the middle path
    assert state_for_prefix(((),)).families == {2: (short, arc), 3: (top,)}


def test_level_two_fsl_example():
    s2 = state_for_prefix(((),))
    F, _, _ = _fsl_sets(s2, 2)
    assert F == {bits("1010"), bits("1100")}


def test_build_spectra_examples():
    assert cycle_lengths("") == {6: 1}
    assert cycle_lengths(",0") == {20: 1}
    assert cycle_lengths(",1") == {10: 2}
    assert cycle_lengths(",0,00,000") == {36: 1, 72: 1, 144: 1}


def cycle_lengths(text):
    tf = build(seq(text))
    out = {}
    for c in tf.cycles:
        out[len(c)] = out.get(len(c), 0) + 1
    return out


def test_cycle_spectrum_matches_assembly():
    for text in ("", ",0", ",1", ",1,10", ",0,01,101"):
        s = seq(text)
        state = state_for_prefix(s[:-1])
        assert cycle_spectrum(state, s[-1]) == cycle_lengths(text)


def test_build_validates_sequence():
    with pytest.raises(ValueError):
        build(())
    with pytest.raises(ValueError):
        build(((0,),))


def test_build_refuses_entries_other_than_0_and_1():
    # an entry of 2 or True would come out of spectrum_json as an alpha
    # that parse_sequence refuses, and "0", which f_alpha's pair mask reads as true,
    # would build the 2-factor of the entry 1
    for bad in (
        ((), (2,), (0, 3)), ((), (0,), (1, -1)), ((), (True,)), ((), (1.0,)), ((), ("0",))
    ):
        with pytest.raises(ValueError, match=r"^alpha vector \d has entries .*, expected 0 or 1$"):
            build(bad)
    assert build(((), (0,), (1, 0))).alphas == ((), (0,), (1, 0))


def test_build_takes_lists_for_tuples():
    # the alpha tables are cached per alpha, so a sequence of lists is
    # read as the tuples check_sequence returns, not refused as unhashable
    assert build([[], [0], [1, 0]]) == build(((), (0,), (1, 0)))
    assert build(((), [0])) == build(((), (0,)))


def test_k_cap_equivalence():
    # pruning the families above the target level changes no cycle
    for n in range(1, 5):
        for s in all_sequences(n):
            full = assemble_two_factor(state_for_prefix(s[:-1]), s[-1])
            pruned = assemble_two_factor(state_for_prefix(s[:-1], k_cap=n), s[-1])
            assert full.cycles == pruned.cycles


def test_build_is_deterministic():
    s = seq(",1,10,011")
    assert build(s) == build(s)


def test_vertex_counts_per_level():
    from math import comb

    for text in ("", ",1", ",0,10"):
        tf = build(seq(text))
        n = tf.n
        total = sum(len(c) for c in tf.cycles)
        assert total == comb(2 * n + 1, n) + comb(2 * n + 1, n + 1)


def test_cycles_are_canonical_and_sorted():
    tf = build(seq(",1,11"))
    firsts = [c[0] for c in tf.cycles]
    assert firsts == sorted(firsts)
    for c in tf.cycles:
        assert c[0] == min(c)
        assert c[1] < c[-1]


def test_state_families_start_at_their_frame():
    s = state_for_prefix(((), (1,)))
    for k, fam in s.families.items():
        assert [p[0] for p in fam] == list(construct._frame(s.n, k)[0])


def test_alpha_length_check():
    with pytest.raises(ConstructionError):
        cycle_spectrum(state_for_prefix(()), (0,))
    # every step that reads the alpha tables refuses a wrong-length alpha
    for prefix in (((),), ((), (1,))):
        state = state_for_prefix(prefix)
        for step in (_advance, assemble_two_factor, cycle_spectrum):
            for alpha in ((0,) * state.n, (1,) * (state.n - 2)):
                with pytest.raises(
                    ConstructionError,
                    match=f"alpha has length {len(alpha)}, expected {state.n - 1}$",
                ):
                    step(state, alpha)


def all_sequences(n):
    return product(*[product((0, 1), repeat=level - 1) for level in range(1, n + 1)])


def test_endpoint_spectrum_matches_built_cycles_exhaustively():
    for n in range(1, 6):
        for s in all_sequences(n):
            state = state_for_prefix(s[:-1], k_cap=n)
            assert cycle_spectrum(state, s[-1]) == spectrum(build(s))


@settings(max_examples=24, deadline=None, derandomize=True)
@given(
    st.integers(min_value=6, max_value=8).flatmap(
        lambda n: st.tuples(
            *[st.tuples(*[st.integers(0, 1)] * (level - 1)) for level in range(1, n + 1)]
        )
    )
)
def test_endpoint_spectrum_matches_built_cycles_sampled(s):
    tf = build(s)
    assert verify_two_factor(tf).ok
    state = state_for_prefix(s[:-1], k_cap=len(s))
    assert cycle_spectrum(state, s[-1]) == spectrum(tf)


def test_full_paths_end_at_their_triples():
    s = state_for_prefix(((), (1,), (0, 1)))
    assert list(s.families) == [4, 5, 6, 7]
    for k, fam in s.families.items():
        firsts, seconds = construct._frame(s.n, k)
        lasts = construct._family(s, k, False)
        assert [(p[0], p[1], p[-1]) for p in fam] == list(zip(firsts, seconds, lasts))


@pytest.mark.deadline(60)
def test_alpha_tables_match_f_alpha():
    # fb finds the middle path that starts at f_alpha of each first vertex,
    # lb ranks the inverse of f_alpha on each D_MINUS word; only the
    # all-zero and the all-one alpha are filled from f_alpha's image
    # tables, every other alpha is composed from them by pair swaps
    def check(n, alpha):
        dyck = construct._frame(n, n)[0]
        lasts = sorted(lattice.dminus_bitstrings(2 * n))
        fb, lb = _alpha_tables(n, alpha)
        assert [dyck[j] for j in fb] == [f_alpha(alpha, x) for x in dyck]
        assert [lasts[r] for r in lb] == [f_alpha(alpha[::-1], x) for x in lasts]

    for n in range(1, 8):
        for alpha in product((0, 1), repeat=n - 1):
            check(n, alpha)
    for n in range(8, 11):
        for bit in (0, 1):
            base = (bit,) * (n - 1)
            check(n, base)
            for i in range(n - 1):
                check(n, base[:i] + (1 - bit,) + base[i + 1 :])
    # entries count by truth value, as bitcube.pair_mask reads them, whether the
    # tables are composed from the all-zero or the all-one alpha or filled
    for alpha in ((2, 0, True, 0), (2, 1, True, 0), (2, 2, True, 1)):
        assert _alpha_tables(5, alpha) == _alpha_tables(5, tuple(map(bool, alpha)))
    rng = Random(6)
    for n in range(7, 11):
        for _ in range(3):
            check(n, tuple(rng.randint(0, 1) for _ in range(n - 1)))


def test_image_tables_match_f_alpha():
    # two lookups per image vertex stand in for f_alpha | hi in every
    # reversed image of a family
    def check(n, alpha, vs):
        for hi in (0, 1 << (2 * n), 3 << (2 * n)):
            assert _images(alpha, hi, vs) == [f_alpha(alpha, v) | hi for v in vs]

    for n in range(1, 6):
        for alpha in product((0, 1), repeat=n - 1):
            check(n, alpha, range(1 << (2 * n)))
    rng = Random(9)
    for n in range(6, 11):
        for _ in range(3):
            alpha = tuple(rng.randint(0, 1) for _ in range(n - 1))
            check(n, alpha, [rng.getrandbits(2 * n) for _ in range(2000)])


def test_middle_family_starts_at_dyck_words_in_frame_order():
    # the alpha tables index paths by their position in the frame, and
    # f_alpha permutes the first and the last vertices only if every middle
    # family starts at exactly the Dyck words and ends at exactly the
    # D_MINUS words
    def check(state):
        n = state.n
        firsts = construct._frame(n, n)[0]
        lasts = construct._family(state, n, False)
        assert sorted(firsts) == sorted(lattice.dyck_bitstrings(2 * n))
        assert sorted(lasts) == sorted(lattice.dminus_bitstrings(2 * n))
        assert construct._level_tables(n)[0] == list(firsts)

    def walk(state):
        check(state)
        for alpha in alpha_vectors(state.n):
            if state.n <= 5:
                assert verify_two_factor(assemble_two_factor(state, alpha)).ok
            if state.n < 6:
                walk(_advance(state, alpha))

    walk(state_for_prefix((), k_cap=6))
    rng = Random(4)
    for level in range(7, 10):
        for _ in range(20):
            check(state_for_prefix(random_sequence(rng, level - 1), k_cap=level))


def test_frames_and_last_vertices_match_full_families():
    # the level step keeps only last vertices and reads first and second
    # vertices from the frame of the level; the full paths must agree
    def check(state):
        n = state.n
        for k, fam in state.families.items():
            firsts, seconds = construct._frame(n, k)
            lasts = construct._family(state, k, False)
            assert [(p[0], p[1], p[-1]) for p in fam] == list(zip(firsts, seconds, lasts))
            assert len(set(firsts)) == len(firsts)
        assert set(construct._frame(n, n)[0]) == lattice.dyck_bitstrings(2 * n)

    def walk(state):
        check(state)
        if state.n < 5:
            for alpha in alpha_vectors(state.n):
                walk(_advance(state, alpha))

    walk(state_for_prefix(()))
    rng = Random(11)
    for level in range(6, 10):
        for _ in range(3):
            check(state_for_prefix(random_sequence(rng, level - 1)))


def test_wrong_last_vertex_is_a_construction_error():
    # the last-vertex side of the permutation is a rank table, so a middle
    # family that does not end at the D_MINUS words must be refused
    def spoiled():
        s = state_for_prefix(((), (1,)))
        lasts = list(construct._family(s, 3, False))
        lasts[0] ^= 0b11
        s._built[3, False] = tuple(lasts)
        return s

    with pytest.raises(ConstructionError, match="D_MINUS"):
        cycle_spectrum(spoiled(), (0, 0))
    with pytest.raises(ConstructionError, match="D_MINUS"):
        leaf_spectra(spoiled(), alpha_vectors(3))
    with pytest.raises(ConstructionError, match="D_MINUS"):
        _advance(spoiled(), (1, 0))


def test_image_off_the_endpoints_is_a_construction_error(monkeypatch, fresh_tables):
    # the rank tables hold only Dyck and D_MINUS words, so images with
    # the low bit flipped must be refused, not read as ranks
    state = state_for_prefix(((), (1,)))  # levels 1 and 2 read unspoiled
    real = construct._images

    def spoiled(alpha, hi, vs):
        return [x ^ 1 for x in real(alpha, hi, vs)]

    monkeypatch.setattr(construct, "_images", spoiled)
    match = "f_alpha image .* not a family endpoint"
    with pytest.raises(ConstructionError, match=match):
        cycle_spectrum(state, (0, 1))
    with pytest.raises(ConstructionError, match=match):
        leaf_spectra(state, alpha_vectors(3))
    with pytest.raises(ConstructionError, match=match):
        _advance(state, (1, 0))


@pytest.mark.deadline(20)
def test_pair_swap_off_the_endpoints_is_a_construction_error(monkeypatch, fresh_tables):
    # every alpha gathers its tables through the pair-swap ranks of its
    # level, so a swapped word that misses the rank table must be refused,
    # not read as a rank: here the D_MINUS words of length 6 lose their
    # smallest, which a pair swap reaches
    state = state_for_prefix(((), (1,)))  # levels 1 and 2 read unspoiled
    real = lattice.dminus_bitstrings

    def spoiled(m):
        words = real(m)
        return words - {min(words)} if m == 6 else words

    monkeypatch.setattr(lattice, "dminus_bitstrings", spoiled)
    match = "pair-swap image .* not a family endpoint"
    with pytest.raises(ConstructionError, match=match):
        cycle_spectrum(state, (0, 1))
    with pytest.raises(ConstructionError, match=match):
        leaf_spectra(state, alpha_vectors(3))
    with pytest.raises(ConstructionError, match=match):
        _advance(state, (1, 0))


@pytest.mark.deadline(20)
def test_level_record_is_bounded_in_bytes(fresh_tables):
    # every level a process reaches keeps its whole record: C_9 = 4862
    # first vertices, the rank dict of the D_MINUS words and, per word
    # set, one 2-byte pair-swap table per alpha index and the two base
    # tables; the ints themselves are the lattice's words and the ranks
    record = construct._level_tables(9)
    firsts, rank, *sides = record
    arrays = [t for swaps, _ in sides for t in swaps]
    bases = [t for _, pair in sides for t in pair]
    assert len(sides) == 2 and len(arrays) == 2 * 8 and len(bases) == 2 * 2
    assert {len(t) for t in [firsts, rank, *arrays, *bases]} == {4862}

    def size(obj):
        inner = sum(map(size, obj)) if isinstance(obj, tuple) else 0
        return sys.getsizeof(obj) + inner

    # a list built by appending over-allocates by up to an eighth, and a
    # dict with int keys holds 24 bytes per entry in a table at most 2/3
    # full, plus 2-byte indices: 32 bytes per entry at 4862 entries
    lists = (1 + 4) * 8 * 9 // 8  # firsts and the four base tables
    # the record, firsts and rank; per word set three tuples, 8 arrays, 2 lists
    objects = 3 + 2 * (3 + 8 + 2)
    assert size(record) <= (lists + 32 + 2 * 8 * 2) * 4862 + 128 * objects


def test_wrong_first_vertex_is_a_construction_error(monkeypatch, fresh_tables):
    # the alpha tables take the middle family's first vertices from the
    # frame, so a frame that does not start at the Dyck words is refused
    real = construct._frame
    for n in (1, 2, 4):
        real(n, n)  # cached, so the spoiled frame never reaches a real one

    def spoiled(n, k):
        firsts, seconds = real(n, k)
        firsts = array("I", firsts)
        firsts[0] ^= 1
        return firsts, seconds

    monkeypatch.setattr(construct, "_frame", spoiled)
    for n in (1, 2, 4):
        with pytest.raises(ConstructionError, match="Dyck words"):
            construct._level_tables(n)


def test_repeated_last_vertex_is_a_construction_error():
    # last vertices that are all D_MINUS words are not enough: two paths
    # that end at the same word leave another word without a path
    s = state_for_prefix(((), (1,)))
    lasts = list(construct._family(s, 3, False))
    lasts[0] = lasts[1]
    s._built[3, False] = tuple(lasts)
    with pytest.raises(ConstructionError, match="D_MINUS"):
        leaf_spectra(s, alpha_vectors(3))


def test_leaf_walk_refuses_a_wrong_alpha_or_a_non_permutation(monkeypatch, fresh_tables):
    state = state_for_prefix(((), (1,), (0, 1)))
    with pytest.raises(ConstructionError, match="expected 3"):
        leaf_spectra(state, [(0, 1, 1), (0, 1)])

    # one duplicated lb entry makes w map two ranks to one, so some walk
    # must stop at a marked entry other than its start
    real = construct._alpha_tables

    def spoiled(n, alpha):
        fb, lb = real(n, alpha)
        return fb, [lb[1]] + lb[1:]

    monkeypatch.setattr(construct, "_alpha_tables", spoiled)
    with pytest.raises(ConstructionError, match="did not close"):
        leaf_spectra(state, alpha_vectors(4))


def test_assembly_refuses_a_non_permutation(monkeypatch):
    # with succ sending every path to path 0, the walk from path 1 reaches
    # path 0, visited and not its start
    state = state_for_prefix(((), (1,), (0, 1)))
    real = construct._successors

    def spoiled(state, alpha):
        succ, phat = real(state, alpha)
        return [0] * len(succ), phat

    monkeypatch.setattr(construct, "_successors", spoiled)
    with pytest.raises(ConstructionError, match="cycle walk did not close"):
        assemble_two_factor(state, (1, 0, 1))


def reference_orbits(succ):
    """The orbits of the permutation succ, each in walk order from its
    smallest index, by a visited list; succ is left as it is."""
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


def test_orbits_match_the_visited_list_walk():
    # the marking walk gives each orbit as its smallest index and its size
    def check(w):
        expected = [(orbit[0], len(orbit)) for orbit in reference_orbits(w)]
        assert list(_orbits(list(w))) == expected

    rng = Random(23)
    for w in ([], [0], list(range(9)), [*range(1, 50), 0]):
        check(w)
    for size in (*range(1, 9), 100, 1000):
        for _ in range(20):
            w = list(range(size))
            rng.shuffle(w)
            check(w)
    # a map with a repeated value is no permutation: some walk meets a
    # marked index other than its start
    for w in ([0, 0], [1, 1], [1, 2, 1], [2, 0, 0]):
        with pytest.raises(ConstructionError, match="did not close"):
            list(reference_orbits(w))
        with pytest.raises(ConstructionError, match="did not close"):
            list(_orbits(w))
    for _ in range(50):
        w = [rng.randrange(6) for _ in range(6)]
        if sorted(w) != list(range(6)):
            with pytest.raises(ConstructionError, match="did not close"):
                list(_orbits(w))


def one_walk_per_alpha(state, alphas):
    """The spectra from the orbits of each alpha's own succ, the path that
    assemble_two_factor takes."""
    unit = 4 * state.n + 2
    out = []
    for alpha in alphas:
        sp = {}
        for orbit in reference_orbits(_successors(state, alpha)[0]):
            sp[unit * len(orbit)] = sp.get(unit * len(orbit), 0) + 1
        out.append(sp)
    return out


def test_leaf_spectra_match_one_walk_per_alpha():
    def check(state):
        alphas = alpha_vectors(state.n)
        assert leaf_spectra(state, alphas) == one_walk_per_alpha(state, alphas)

    def walk(state):
        check(state)
        if state.n < 6:
            for alpha in alpha_vectors(state.n):
                walk(_advance(state, alpha))

    walk(state_for_prefix(()))
    rng = Random(13)
    for level in range(7, 10):
        for _ in range(20):
            check(state_for_prefix(random_sequence(rng, level - 1)))


def test_leaf_spectra_of_any_alpha_list_are_independent_dicts():
    state = state_for_prefix(random_sequence(Random(2), 6))
    alphas = alpha_vectors(7)
    # some without their reversal partners, out of order and with a repeat
    picked = [alphas[i] for i in (5, 1, 40, 5, 63, 2)]
    assert leaf_spectra(state, picked) == one_walk_per_alpha(state, picked)

    spectra = dict(zip(alphas, leaf_spectra(state, alphas)))
    alpha = (1, 1, 0, 0, 0, 0)
    partner = spectra[alpha[::-1]]
    before = dict(partner)
    spectra[alpha].clear()
    assert partner == before != {}


def test_families_do_not_depend_on_expansion_order():
    # every state on the parent chain keeps the families it built, so
    # building the parent's families or the middle family first, or
    # pruning the layers above the middle, changes no path
    for n in range(1, 6):
        for p in all_sequences(n - 1):
            direct = state_for_prefix(p).families
            s = state_for_prefix(p)
            if s.parent is not None:
                s.parent.families
            assemble_two_factor(s, alpha_vectors(n)[-1])
            assert s.families == direct
            assert state_for_prefix(p, k_cap=n).families == {n: direct[n]}


def test_no_family_above_the_target_level_is_built():
    # families are built on first read, so a spectrum and an assembly at
    # level n build no family above n anywhere on the parent chain,
    # whatever k_cap lists
    for n in range(1, 6):
        for p in all_sequences(n - 1):
            for k_cap in (n, None):
                s = state_for_prefix(p, k_cap=k_cap)
                alpha = alpha_vectors(n)[-1]
                cycle_spectrum(s, alpha)
                assemble_two_factor(s, alpha)
                while s is not None:
                    assert s._built and max(k for k, _ in s._built) <= n
                    s = s.parent


# --- the per-path rule that the flat families replaced ----------------------


def reference_block(p, q, alpha, lo, hi):
    """Path p with the suffix bits lo, then f_alpha of path q with the suffix
    bits hi, traversed backwards."""
    return [v | lo for v in p] + [f_alpha(alpha, v) | hi for v in reversed(q)]


def reference_families(state):
    """Every family of the state as tuples of paths, built one path at a time
    by the rule of _family: one shifted tuple per path, one block per arc."""
    if state.parent is None:
        return {1: ((0b01, 0b11, 0b10),)}
    fams = reference_families(state.parent)
    n, m = state.parent.n, 2 * state.parent.n
    shift = lambda j, s: [tuple(v | s for v in p) for p in fams.get(j, ())]
    out = {}
    for k in range(n + 1, 2 * n + 2):
        parts = shift(k, 0) + shift(k - 1, 1 << m)
        if k == n + 1:
            mid = fams[n]
            parts += [
                (p[1], *reference_block(p[1:], mid[h], state.alpha, 2 << m, 3 << m),
                 mid[j][0] | 2 << m)
                for p, j, h in zip(mid, state.succ, state.phat)
            ]
        else:
            parts += shift(k - 1, 2 << m) + shift(k - 2, 3 << m)
        out[k] = tuple(parts)
    return out


def reference_cycles(state, alpha, mid):
    """The canonical cycles of the 2-factor, one block per path of mid."""
    succ, phat = _successors(state, alpha)
    hi = 1 << (2 * state.n)
    cycles = []
    for orbit in reference_orbits(succ):
        verts = []
        for j in orbit:
            verts += reference_block(mid[j], mid[phat[j]], alpha, 0, hi)
        cycles.append(canonical_cycle(verts))
    return tuple(sorted(cycles))


def assert_canonical(cycles):
    # assembly writes each cycle in canonical order without canonical_cycle
    for c in cycles:
        assert c == canonical_cycle(list(c))


def test_flat_families_and_assembly_match_the_per_path_rule():
    def check(state, alphas):
        fams = reference_families(state)
        assert state.families == fams
        # every path's first vertex is its strict minimum, which assembly's
        # canonical start rests on
        for fam in fams.values():
            for p in fam:
                assert all(v > p[0] for v in p[1:])
        for alpha in alphas:
            cycles = assemble_two_factor(state, alpha).cycles
            assert cycles == reference_cycles(state, alpha, fams[state.n])
            assert_canonical(cycles)

    def walk(state):
        check(state, alpha_vectors(state.n))
        if state.n < 5:
            for alpha in alpha_vectors(state.n):
                walk(_advance(state, alpha))

    walk(state_for_prefix(()))
    rng = Random(17)
    for level in range(6, 9):
        for _ in range(4):
            seq = random_sequence(rng, level)
            check(state_for_prefix(seq[:-1]), seq[-1:])
    for _ in range(2):
        assert_canonical(build(random_sequence(rng, 9)).cycles)
