from hypothesis import given
from hypothesis import strategies as st

import pytest

from midlayer.bitcube import parse_bits
from midlayer import lattice
from midlayer.lattice import (
    D_EQ0,
    D_GT0,
    D_MINUS,
    DOWN,
    NONE,
    UP,
    classify,
    decompose,
    dminus_bitstrings,
    dyck_bitstrings,
    enumerate_class,
    f_alpha_path,
    format_path,
    heights,
    parse_path,
    phi,
    phi_inv,
    pi_alpha_path,
    rev_bar_path,
)

U, D = UP, DOWN


def test_phi_examples():
    assert phi(parse_bits("10")[0], 2) == (U, D)
    assert phi(parse_bits("11")[0], 2) == (U, U)
    assert phi(parse_bits("01")[0], 2) == (D, U)


def test_phi_inv_examples():
    assert phi_inv((U, D)) == parse_bits("10")[0]
    assert phi_inv(()) == 0
    assert phi_inv((D, U)) == parse_bits("01")[0]


@given(st.integers(0, 12).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1))))
def test_phi_roundtrip(args):
    m, x = args
    assert phi_inv(phi(x, m)) == x


def test_heights():
    assert heights((U, U, D)) == [0, 1, 2, 1]
    assert heights(()) == [0]


def test_classify_examples():
    assert classify((U, D)) == D_EQ0
    assert classify((U, U)) == D_GT0
    assert classify((D, U)) == D_MINUS
    assert classify((D, D)) == NONE
    assert classify((D, U, D, U)) == NONE  # touches -1 twice


def test_decompose_examples():
    d = decompose((U, D))
    assert (d.ell, d.r, d.pivot) == ((), (), 2)
    d = decompose((U, U, D, D))
    assert (d.ell, d.r, d.pivot) == ((U, D), (), 4)
    d = decompose((D, U))
    assert (d.ell, d.r, d.pivot) == ((), (), 1)


def test_decompose_rejects_endpoint_pivot():
    with pytest.raises(ValueError):
        decompose((U,))  # never-returning path ending at height 1
    with pytest.raises(ValueError):
        decompose((D,))  # ends on its -1 point
    with pytest.raises(ValueError):
        decompose((D, D))  # unclassifiable


def test_rev_bar_path():
    assert rev_bar_path((U, D)) == (U, D)
    assert rev_bar_path((U, U, D, D)) == (U, U, D, D)
    assert rev_bar_path((U, D, U, D, D, U)) == (D, U, U, D, U, D)


def test_pi_alpha_path_swaps_steps():
    assert pi_alpha_path((1,), (U, D, U, D)) == (U, U, D, D)
    assert pi_alpha_path((0,), (U, D, U, D)) == (U, D, U, D)


def test_f_alpha_path_examples():
    assert f_alpha_path((), (U, D)) == (U, D)
    assert f_alpha_path((0,), (U, U, D, D)) == (U, U, D, D)
    assert f_alpha_path((1,), (U, D, U, D)) == (U, U, D, D)


def test_f_alpha_path_conjugation():
    from midlayer.bitcube import f_alpha

    for n in (1, 2, 3):
        alpha = (1, 0)[: n - 1]
        for x in range(1 << (2 * n)):
            assert phi(f_alpha(alpha, x), 2 * n) == f_alpha_path(alpha, phi(x, 2 * n))


def test_enumerate_class_examples():
    assert enumerate_class(2, 1, D_EQ0) == {(U, D)}
    assert len(enumerate_class(6, 3, D_EQ0)) == 5
    # exactly one visit below zero: only two step sequences qualify
    assert enumerate_class(4, 2, D_MINUS) == {(D, U, U, D), (U, D, D, U)}


def test_enumerate_class_partitions_everything():
    for m in range(0, 9):
        total = sum(
            len(enumerate_class(m, k, tag))
            for k in range(m + 1)
            for tag in (D_EQ0, D_GT0, D_MINUS, NONE)
        )
        assert total == 1 << m


def test_sweep_matches_direct_classification():
    # the oracle visits codes by their upstep positions; every code of each
    # length must land once, in the group of its direct classification
    for m in range(0, 15):
        direct = {}
        for code in range(1 << m):
            key = (classify(phi(code, m)), code.bit_count())
            direct.setdefault(key, set()).add(code)
        groups = [
            ((tag, k), codes)
            for k in range(m + 1)
            for tag, codes in lattice._sweep(m, k).items()
        ]
        assert sum(len(codes) for _, codes in groups) == 1 << m
        assert {key: set(codes) for key, codes in groups} == direct


def test_enumerate_class_scale_guard():
    with pytest.raises(ValueError):
        enumerate_class(25, 1, D_EQ0)


def test_dyck_bitstrings_match_oracle():
    for n in range(0, 7):
        expect = {phi_inv(p) for p in enumerate_class(2 * n, n, D_EQ0)}
        if n == 0:
            expect = {0}
        assert dyck_bitstrings(2 * n) == expect


def test_dminus_bitstrings_match_oracle():
    for n in range(1, 7):
        expect = {phi_inv(p) for p in enumerate_class(2 * n, n, D_MINUS)}
        assert dminus_bitstrings(2 * n) == expect


def test_dyck_bitstrings_odd_length_rejected():
    with pytest.raises(ValueError):
        dyck_bitstrings(3)


def test_path_text_roundtrip():
    assert parse_path("UDDU") == (U, D, D, U)
    assert format_path((U, D, D, U)) == "UDDU"
    with pytest.raises(ValueError):
        parse_path("UDX")
