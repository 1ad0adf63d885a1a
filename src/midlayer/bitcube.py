"""Bit-level primitives for cube vertices.

A bitstring of length m is stored as a plain int with position i (1-based,
leftmost in the textual form) at bit index i-1.  The textual form "110"
therefore parses to 0b011 = 3.  Lengths are passed explicitly wherever an
operation depends on them; the int encoding never leaks into textual I/O.

Alpha vectors are tuples of 0/1 ints.  A parameter sequence is a tuple of
alpha vectors, the i-th of length i-1, serialized as comma-separated
bitstrings (",0,10" encodes ((), (0,), (1,0))).
"""

from __future__ import annotations

from functools import cache

AlphaVector = tuple[int, ...]
ParameterSequence = tuple[AlphaVector, ...]


# _REV8[b] is the byte b with its 8 bits in reverse order.
_REV8 = tuple(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reverse_bits(x: int, m: int) -> int:
    """Reverse the low m bits of x, a byte at a time; x must fit in m bits."""
    r = 0
    nbytes = (m + 7) >> 3
    for _ in range(nbytes):
        r = (r << 8) | _REV8[x & 0xFF]
        x >>= 8
    return r >> ((nbytes << 3) - m)


def _swap_pairs(x: int, mask: int) -> int:
    """Swap each bit pair of x whose low bit is set in mask (odd indices)."""
    # d marks the selected pairs whose two bits differ; its bits sit at
    # odd indices only, so d * 3 == d | d << 1 flips both bits of each
    d = ((x >> 1) ^ x) & mask
    return x ^ d * 3


@cache
def pair_mask(alpha: AlphaVector) -> int:
    """The low bits of the pairs f_alpha swaps before it reverses and
    complements: bit index 2i-1 (position 2i) for every i with alpha(i)=1."""
    return sum(1 << (2 * i - 1) for i, a in enumerate(alpha, start=1) if a)


def f_alpha(alpha: AlphaVector, x: int) -> int:
    """Swap-pairs, then reverse and complement.

    Carries bitstrings of length 2n and weight k to weight 2n-k, and is an
    isomorphism between the layers (n,n+1) and (n-1,n) of the 2n-cube.
    """
    m = 2 * len(alpha) + 2
    if x >> m:
        raise ValueError(f"expected a bitstring of length {m}")
    return _reverse_bits(_swap_pairs(x, pair_mask(alpha)), m) ^ ((1 << m) - 1)


def tau_alpha(alpha_prime: AlphaVector, x: int) -> int:
    """Apply f_alpha to the first 2n bits and complement the last one.

    x must have length 2n+1 with n = len(alpha_prime)+1.  An automorphism
    of the middle layer of the (2n+1)-cube.
    """
    n = len(alpha_prime) + 1
    m = 2 * n
    if x >> (m + 1):
        raise ValueError(f"expected a bitstring of length {m + 1}")
    low = x & ((1 << m) - 1)
    top = (x >> m) & 1
    return f_alpha(alpha_prime, low) | ((top ^ 1) << m)


# --- textual formats ---------------------------------------------------------

def parse_bits(text: str) -> tuple[int, int]:
    """Parse "110" (leftmost char = position 1) to (value, length)."""
    if text and set(text) - {"0", "1"}:
        raise ValueError(f"not a bitstring: {text!r}")
    return (int(text[::-1], 2) if text else 0, len(text))


def format_bits(x: int, m: int) -> str:
    if x >> m:
        raise ValueError(f"value {x:#x} does not fit in {m} bits")
    return format(x, f"0{m}b")[::-1] if m else ""


def parse_alpha(text: str) -> AlphaVector:
    if set(text) - {"0", "1"}:
        raise ValueError(f"not an alpha vector: {text!r}")
    return tuple(int(c) for c in text)


def format_alpha(alpha: AlphaVector) -> str:
    return "".join(str(a) for a in alpha)


def check_sequence(alphas: ParameterSequence) -> ParameterSequence:
    """alphas as tuples, if its i-th vector has length i-1 and entries 0 or 1."""
    alphas = tuple(map(tuple, alphas))
    for i, a in enumerate(alphas, start=1):
        if len(a) != i - 1:
            raise ValueError(f"alpha vector {i} has length {len(a)}, expected {i - 1}")
        if any(type(x) is not int or x not in (0, 1) for x in a):  # ints only, not bool or str
            raise ValueError(f"alpha vector {i} has entries {a}, expected 0 or 1")
    return alphas


def parse_sequence(text: str) -> ParameterSequence:
    """Parse ",0,10" to ((), (0,), (1,0)).  The i-th field must have length i-1."""
    return check_sequence(tuple(parse_alpha(field) for field in text.split(",")))


def format_sequence(alphas: ParameterSequence) -> str:
    return ",".join(format_alpha(a) for a in alphas)
