from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midlayer import lattice
from midlayer.analysis import spectrum, verify_two_factor
from midlayer.bitcube import f_alpha, parse_bits, parse_sequence
from midlayer.construct import (
    ConstructionError,
    _advance,
    _alpha_tables,
    _image_tables,
    assemble_two_factor,
    base_state,
    build,
    canonical_cycle,
    cycle_spectrum,
    fsl_sets,
    state_for_prefix,
)
from midlayer.search import alpha_vectors, random_sequence


def bits(text):
    return parse_bits(text)[0]


def seq(text):
    return parse_sequence(text)


def test_base_state():
    s = base_state()
    assert s.n == 1
    assert s.families == {1: ((bits("10"), bits("11"), bits("01")),)}
    assert s.alpha_prefix == ()


def test_base_state_fsl():
    F, S, L = fsl_sets(base_state(), 1)
    assert (F, S, L) == ({bits("10")}, {bits("11")}, {bits("01")})


def test_canonical_cycle():
    assert canonical_cycle([3, 1, 5, 4]) == (1, 3, 4, 5)
    assert canonical_cycle([4, 5, 1, 3]) == (1, 3, 4, 5)
    assert canonical_cycle([2, 6, 9]) == (2, 6, 9)


def test_assemble_level_one_six_cycle():
    tf = assemble_two_factor(base_state(), ())
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
    assert state_for_prefix(((),)).families == {2: (arc, short), 3: (top,)}


def test_level_two_fsl_example():
    s2 = state_for_prefix(((),))
    F, _, _ = fsl_sets(s2, 2)
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


def test_state_families_sorted_by_first_vertex():
    s = state_for_prefix(((), (1,)))
    for fam in s.families.values():
        firsts = [p[0] for p in fam]
        assert firsts == sorted(firsts)


def test_alpha_length_check():
    with pytest.raises(ConstructionError):
        cycle_spectrum(base_state(), (0,))


def all_sequences(n):
    return product(*[product((0, 1), repeat=level - 1) for level in range(1, n + 1)])


def test_endpoint_spectrum_matches_built_cycles_exhaustively():
    for n in range(1, 6):
        for s in all_sequences(n):
            state = state_for_prefix(s[:-1], k_cap=n)
            assert cycle_spectrum(state, s[-1]) == dict(spectrum(build(s)).entries)


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
    assert cycle_spectrum(state, s[-1]) == dict(spectrum(tf).entries)


def test_full_paths_end_at_their_triples():
    s = state_for_prefix(((), (1,), (0, 1)))
    assert set(s.families) == set(s.ends)
    for k, fam in s.families.items():
        assert [(p[0], p[1], p[-1]) for p in fam] == list(s.ends[k])


def test_alpha_tables_match_f_alpha():
    # fb ranks f_alpha of each Dyck word, lb its inverse on each D_MINUS word
    def check(n, alpha):
        dyck = sorted(lattice.dyck_bitstrings(2 * n))
        lasts = sorted(lattice.dminus_bitstrings(2 * n))
        fb, lb = _alpha_tables(n, alpha)
        assert [dyck[j] for j in fb] == [f_alpha(alpha, x) for x in dyck]
        assert [lasts[r] for r in lb] == [f_alpha(alpha[::-1], x) for x in lasts]

    for n in range(1, 7):
        for alpha in product((0, 1), repeat=n - 1):
            check(n, alpha)
    rng = Random(6)
    for n in range(7, 11):
        for _ in range(3):
            check(n, tuple(rng.randint(0, 1) for _ in range(n - 1)))


def test_image_tables_match_f_alpha():
    # two lookups per image vertex stand in for f_alpha | hi in every block
    def check(n, alpha, vs):
        for hi in (0, 1 << (2 * n), 3 << (2 * n)):
            h, low, up = _image_tables(alpha, hi)
            mask = (1 << h) - 1
            assert [low[v & mask] ^ up[v >> h] for v in vs] == [
                f_alpha(alpha, v) | hi for v in vs
            ]

    for n in range(1, 6):
        for alpha in product((0, 1), repeat=n - 1):
            check(n, alpha, range(1 << (2 * n)))
    rng = Random(9)
    for n in range(6, 11):
        for _ in range(3):
            alpha = tuple(rng.randint(0, 1) for _ in range(n - 1))
            check(n, alpha, [rng.getrandbits(2 * n) for _ in range(2000)])


def test_middle_family_starts_at_dyck_words_in_rank_order():
    # the alpha tables index paths by word rank, which holds only if every
    # middle family starts at the sorted Dyck words and ends at exactly the
    # D_MINUS words
    def check(state):
        n = state.n
        fam = state.ends[n]
        assert [t[0] for t in fam] == sorted(lattice.dyck_bitstrings(2 * n))
        assert sorted(t[2] for t in fam) == sorted(lattice.dminus_bitstrings(2 * n))

    def walk(state):
        check(state)
        for alpha in alpha_vectors(state.n):
            if state.n <= 5:
                assert verify_two_factor(assemble_two_factor(state, alpha)).ok
            if state.n < 6:
                walk(_advance(state, alpha))

    walk(base_state(k_cap=6))
    rng = Random(4)
    for level in range(7, 10):
        for _ in range(20):
            check(state_for_prefix(random_sequence(rng, level - 1), k_cap=level))


def test_wrong_last_vertex_is_a_construction_error():
    # the last-vertex side of the permutation is a rank table, so a middle
    # family that does not end at the D_MINUS words must be refused
    def spoiled():
        s = state_for_prefix(((), (1,)))
        fam = list(s.ends[3])
        first, second, last = fam[0]
        fam[0] = (first, second, last ^ 0b11)
        s._built[3, False] = tuple(fam)
        return s

    with pytest.raises(ConstructionError, match="D_MINUS"):
        cycle_spectrum(spoiled(), (0, 0))
    with pytest.raises(ConstructionError, match="D_MINUS"):
        _advance(spoiled(), (1, 0))


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
