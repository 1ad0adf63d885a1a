from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from midlayer.bitcube import (
    _reverse_bits,
    f_alpha,
    format_alpha,
    format_bits,
    format_sequence,
    parse_alpha,
    parse_bits,
    parse_sequence,
    tau_alpha,
)

import pytest


def bits(text):
    return parse_bits(text)[0]


def is_adjacent(u, v):
    return (u ^ v).bit_count() == 1


def test_parse_format_roundtrip():
    for text in ("", "0", "1", "110", "10110"):
        x, m = parse_bits(text)
        assert format_bits(x, m) == text
        assert m == len(text)


def test_parse_bits_position_convention():
    # leftmost character is position 1, stored at the lowest bit
    assert parse_bits("110") == (0b011, 3)
    assert parse_bits("001") == (0b100, 3)


def test_parse_bits_rejects_junk():
    with pytest.raises(ValueError):
        parse_bits("10x")


def test_f_alpha_examples():
    assert f_alpha((), bits("10")) == bits("10")
    assert f_alpha((0,), bits("1100")) == bits("1100")
    assert f_alpha((1,), bits("1010")) == bits("1100")


def test_f_alpha_weight_map():
    for x in range(16):
        assert f_alpha((1,), x).bit_count() == 4 - x.bit_count()


def test_f_alpha_reversed_composition_is_identity():
    # composing with the position-reversed vector undoes the map
    for n in range(1, 6):
        alpha = tuple((i * 7 + n) % 2 for i in range(n - 1))
        rev = alpha[::-1]
        for x in range(1 << (2 * n)):
            assert f_alpha(rev, f_alpha(alpha, x)) == x


def test_f_alpha_is_adjacency_preserving():
    for n in (2, 3):
        alpha = (1,) * (n - 1)
        verts = [x for x in range(1 << (2 * n)) if x.bit_count() in (n, n + 1)]
        for u in verts:
            for v in verts:
                assert is_adjacent(u, v) == is_adjacent(
                    f_alpha(alpha, u), f_alpha(alpha, v)
                )


def test_tau_alpha_examples():
    assert tau_alpha((), bits("100")) == bits("101")
    assert tau_alpha((), bits("111")) == bits("000")
    assert tau_alpha((0,), bits("11001")) == bits("11000")


def test_tau_alpha_preserves_adjacency():
    n = 2
    alpha = (1,)
    verts = [x for x in range(1 << (2 * n + 1)) if x.bit_count() in (n, n + 1)]
    for u in verts:
        for v in verts:
            assert is_adjacent(u, v) == is_adjacent(
                tau_alpha(alpha, u), tau_alpha(alpha, v)
            )


def test_alpha_text_roundtrip():
    assert parse_alpha("") == ()
    assert parse_alpha("101") == (1, 0, 1)
    assert format_alpha((1, 0, 1)) == "101"


def test_sequence_text_roundtrip():
    assert parse_sequence(",0,10") == ((), (0,), (1, 0))
    assert format_sequence(((), (0,), (1, 0))) == ",0,10"
    assert parse_sequence("") == ((),)


def test_sequence_length_validation():
    with pytest.raises(ValueError):
        parse_sequence(",00")
    with pytest.raises(ValueError):
        parse_sequence("1")


def f_alpha_reference(alpha, x):
    """f_alpha spelled out on the textual form: swap the selected pairs of
    positions, reverse the string, complement every character."""
    m = 2 * (len(alpha) + 1)
    text = list(format_bits(x, m))
    for i, a in enumerate(alpha, start=1):
        if a:  # positions 2i and 2i+1 are string indices 2i-1 and 2i
            text[2 * i - 1], text[2 * i] = text[2 * i], text[2 * i - 1]
    flipped = "".join("1" if c == "0" else "0" for c in reversed(text))
    return parse_bits(flipped)[0]


def test_f_alpha_matches_reference_exhaustively():
    for n in range(1, 7):
        for alpha in product((0, 1), repeat=n - 1):
            for x in range(1 << (2 * n)):
                assert f_alpha(alpha, x) == f_alpha_reference(alpha, x)


@settings(max_examples=300, derandomize=True)
@given(
    st.integers(min_value=7, max_value=10).flatmap(
        lambda n: st.tuples(
            st.tuples(*[st.integers(0, 1)] * (n - 1)),
            st.integers(0, (1 << (2 * n)) - 1),
        )
    )
)
def test_f_alpha_matches_reference_sampled(args):
    alpha, x = args
    assert f_alpha(alpha, x) == f_alpha_reference(alpha, x)


def test_reverse_matches_reference():
    for m in (1, 7, 8, 9, 16, 24, 25, 40):
        for x in (0, 1, (1 << m) - 1, 0x5A5A5A5A5A & ((1 << m) - 1)):
            assert _reverse_bits(x, m) == int(format(x, f"0{m}b")[::-1], 2)


def test_f_alpha_length_check():
    with pytest.raises(ValueError):
        f_alpha((1,), 0b10000)
