"""Lattice paths in Z^2 and their classification.

A path is a tuple over {UP, DOWN} = {+1, -1}, identified with its step
sequence; heights are recomputed on demand.  The empty tuple is the path
consisting of a single point.

Three path classes matter here, all for paths with k upsteps:

  D_EQ0   never below y=0 and touching y=0 at some abscissa >= 1,
  D_GT0   never below y=0 and never again on y=0,
  D_MINUS exactly one point with ordinate -1 and none below -1.

``enumerate_class`` is a brute-force oracle sweeping all C(n, k) step
sequences with k upsteps; ``dyck_bitstrings``/``dminus_bitstrings``
generate the two middle classes compositionally, for checks outside the
hot path: the construction reads them once per level, for a middle
family's endpoints (the oracle stays independent of them).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .bitcube import AlphaVector

UP = 1
DOWN = -1

D_EQ0 = "D_EQ0"
D_GT0 = "D_GT0"
D_MINUS = "D_MINUS"
NONE = "NONE"

Path = tuple[int, ...]

_ORACLE_MAX = 24


@dataclass(frozen=True)
class Decomposition:
    ell: Path
    r: Path
    pivot: int


def phi(x: int, m: int) -> Path:
    """Bitstring to path: bit i=1 becomes an upstep at step i."""
    if x >> m:
        raise ValueError(f"value {x:#x} does not fit in {m} bits")
    return tuple(UP if (x >> i) & 1 else DOWN for i in range(m))


def phi_inv(p: Path) -> int:
    """Inverse of phi; the length of the result is len(p)."""
    x = 0
    for i, s in enumerate(p):
        if s == UP:
            x |= 1 << i
    return x


def heights(p: Path) -> list[int]:
    """Ordinates at abscissas 0..len(p)."""
    hs = [0]
    h = 0
    for s in p:
        h += s
        hs.append(h)
    return hs


def classify(p: Path) -> str:
    """The tag of p's class, or NONE for paths fitting no class."""
    hs = heights(p)
    lo = min(hs)
    if lo >= 0:
        return D_EQ0 if any(h == 0 for h in hs[1:]) else D_GT0
    if lo == -1 and hs.count(-1) == 1:
        return D_MINUS
    return NONE


def decompose(p: Path) -> Decomposition:
    """Split p into the two subpaths around its class-specific pivot."""
    tag = classify(p)
    hs = heights(p)
    if tag == D_EQ0:
        x = next(i for i in range(1, len(hs)) if hs[i] == 0)
        d = Decomposition(p[1:x - 1], p[x:], x)
        assert p == (UP,) + d.ell + (DOWN,) + d.r
    elif tag == D_GT0:
        # the pivot must be followed by an upstep, so the path has to end
        # at height >= 2 (this holds for every second-vertex image)
        if hs[-1] < 2:
            raise ValueError("path ends on its pivot; no decomposition")
        x = max(i for i in range(len(hs)) if hs[i] == 1)
        d = Decomposition(p[1:x], p[x + 1:], x)
        assert p == (UP,) + d.ell + (UP,) + d.r
    elif tag == D_MINUS:
        if hs[-1] < 0:
            raise ValueError("path ends on its pivot; no decomposition")
        x = hs.index(-1)
        d = Decomposition(p[:x - 1], p[x + 1:], x)
        assert p == d.ell + (DOWN, UP) + d.r
    else:
        raise ValueError("path fits no decomposable class")
    return d


def rev_bar_path(p: Path) -> Path:
    """Step-level counterpart of reversing and inverting a bitstring."""
    return tuple(-s for s in reversed(p))


def pi_alpha_path(alpha: AlphaVector, p: Path) -> Path:
    """Swap steps 2i and 2i+1 for every i with alpha(i)=1."""
    if len(p) != 2 * (len(alpha) + 1):
        raise ValueError(f"expected a path of length {2 * (len(alpha) + 1)}")
    q = list(p)
    for i, a in enumerate(alpha, start=1):
        if a:
            q[2 * i - 1], q[2 * i] = q[2 * i], q[2 * i - 1]
    return tuple(q)


def f_alpha_path(alpha: AlphaVector, p: Path) -> Path:
    """Conjugate of the bit-level swap/reverse/invert map under phi."""
    return rev_bar_path(pi_alpha_path(alpha, p))


@cache
def _sweep(n: int, k: int) -> dict[str, array]:
    """Classify all C(n, k) step sequences of length n with k upsteps, one
    per choice of upstep positions, grouped by tag.

    Each group keeps the phi-preimages of its paths, one machine word
    each, not the paths themselves, whose tuples would take about 320 MB
    at length 20."""
    out: dict[str, array] = {}
    for ups in combinations(range(n), k):
        code = sum(1 << i for i in ups)
        out.setdefault(classify(phi(code, n)), array("L")).append(code)
    return out


def enumerate_class(n: int, k: int, tag: str) -> set[Path]:
    """Brute-force oracle: all paths of length n, k upsteps, given tag."""
    if n > _ORACLE_MAX:
        raise ValueError(f"oracle limited to n <= {_ORACLE_MAX}")
    if k < 0:
        return set()
    return {phi(code, n) for code in _sweep(n, k).get(tag, ())}


@cache
def dyck_bitstrings(m: int) -> frozenset[int]:
    """phi-preimages of the never-below-zero paths of length m ending at 0."""
    if m % 2:
        raise ValueError("length must be even")
    if m == 0:
        return frozenset({0})
    out = set()
    # split at the first return to height 0, after step 2j
    for j in range(1, m // 2 + 1):
        for a in dyck_bitstrings(2 * j - 2):
            head = 1 | (a << 1)  # up, a, down
            for b in dyck_bitstrings(m - 2 * j):
                out.add(head | (b << (2 * j)))
    return frozenset(out)


@cache
def dminus_bitstrings(m: int) -> frozenset[int]:
    """phi-preimages of the paths of length m, m/2 upsteps, touching -1 once.

    Such a path is ell . (down, up) . r with the single -1 point at an odd
    abscissa x and ell, r both balanced and never below their start.
    """
    if m % 2:
        raise ValueError("length must be even")
    out = set()
    for x in range(1, m, 2):
        for a in dyck_bitstrings(x - 1):
            head = a | (1 << x)  # a, down at step x, up at step x+1
            for b in dyck_bitstrings(m - x - 1):
                out.add(head | (b << (x + 1)))
    return frozenset(out)


def parse_path(text: str) -> Path:
    if set(text) - {"U", "D"}:
        raise ValueError(f"not a path: {text!r}")
    return tuple(UP if c == "U" else DOWN for c in text)


def format_path(p: Path) -> str:
    return "".join("U" if s == UP else "D" for s in p)
