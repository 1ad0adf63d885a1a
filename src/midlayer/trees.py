"""Ordered rooted trees, rotation classes, and counting formulas.

A tree is a nested tuple: each node is the tuple of its (ordered) child
nodes, so () is a single vertex and ((), ()) is a root with two leaf
children.  An active vertex always lies on the rightmost branch and is
recorded by its depth; depth 0 identifies the tree with a plain ordered
rooted tree.

Plane trees are the equivalence classes of ordered rooted trees under the
rotation operation; a class is canonically named by the lexicographically
smallest Dyck word among its members.
"""

from __future__ import annotations

from math import comb

from .lattice import DOWN, UP, Path

Tree = tuple


def tree_edges(t: Tree) -> int:
    return sum(1 + tree_edges(c) for c in t)


def psi(p: Path) -> tuple[Tree, int]:
    """Path to (tree, active depth): up appends a rightmost child and
    descends, down ascends to the parent.

    Requires p never to move below y=0; the result has one vertex per
    upstep plus the root, and the active vertex sits at depth
    2*(#upsteps) - len(p) on the rightmost branch.
    """
    root: list = []
    stack = [root]
    for s in p:
        if s == UP:
            node: list = []
            stack[-1].append(node)
            stack.append(node)
        else:
            stack.pop()
            if not stack:
                raise ValueError("path moves below y=0")

    def freeze(node: list) -> Tree:
        return tuple(freeze(c) for c in node)

    return freeze(root), len(stack) - 1


def psi_inv(t: Tree, active_depth: int = 0) -> Path:
    """Preorder encoding of t with the last active_depth closing steps dropped."""
    word: list[int] = []

    def enc(node: Tree) -> None:
        for c in node:
            word.append(UP)
            enc(c)
            word.append(DOWN)

    enc(t)
    if active_depth:
        if active_depth > len(word) or any(
            s != DOWN for s in word[-active_depth:]
        ):
            raise ValueError("active vertex not on the rightmost branch")
        del word[-active_depth:]
    return tuple(word)


def rotate(t: Tree) -> Tree:
    """Make the leftmost child the root; the old root (minus that subtree)
    becomes the new root's rightmost child."""
    if not t:
        raise ValueError("cannot rotate a single-vertex tree")
    first, rest = t[0], t[1:]
    return first + (rest,)


def rotation_class(t: Tree) -> list[Tree]:
    """All distinct trees reachable by iterated rotation, starting at t."""
    out = [t]
    cur = rotate(t)
    limit = 2 * tree_edges(t)
    while cur != t:
        out.append(cur)
        cur = rotate(cur)
        if len(out) > limit:
            raise RuntimeError("rotation did not return to the start")
    return out


def dyck_word(t: Tree) -> str:
    """Balanced 0/1 word of t (1 = descend into a child, 0 = come back)."""
    return "".join("1" if s == UP else "0" for s in psi_inv(t))


def canonical_plane_tree(t: Tree) -> str:
    """Lexicographically smallest Dyck word over the rotation class of t."""
    return min(dyck_word(s) for s in rotation_class(t))


def catalan(n: int) -> int:
    if n > 30:
        raise ValueError("catalan limited to n <= 30")
    return comb(2 * n, n) // (n + 1)


def _exact_div(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError(f"{a} is not divisible by {b}")
    return q


def _central_binomial_divisor_sum(n: int, mobius: bool) -> int:
    """Sum over the divisors d of n of w(n/d) * C(2d, d), where w is the
    Möbius function if mobius is set and Euler's totient otherwise; both
    are read off the factorization of n/d by trial division."""
    total = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        rest, w, p = n // d, 1, 2
        while rest > 1:
            k = 0
            while rest % p == 0:
                rest //= p
                k += 1
            if k:
                w *= (-1 if k == 1 else 0) if mobius else (p - 1) * p ** (k - 1)
            p += 1
        total += w * comb(2 * d, d)
    return total


def count_plane_trees(n: int) -> int:
    """Number of plane trees with n edges (n+1 vertices)."""
    if n < 1:
        raise ValueError("need n >= 1")
    r = _exact_div(_central_binomial_divisor_sum(n, mobius=False), 2 * n)
    odd_term = catalan((n - 1) // 2) if n % 2 else 0
    return r - _exact_div(catalan(n) - odd_term, 2)


def count_asymmetric(n: int) -> int:
    """Number of plane trees with n edges whose rotation class has full size 2n."""
    if n < 1:
        raise ValueError("need n >= 1")
    r = _exact_div(_central_binomial_divisor_sum(n, mobius=True), 2 * n)
    odd_term = catalan((n - 1) // 2) if n % 2 else 0
    return r - _exact_div(catalan(n) + odd_term, 2)
