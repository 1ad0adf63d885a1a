import subprocess
import sys

import pytest

from midlayer.lattice import DOWN, UP, D_EQ0, enumerate_class, parse_path
from midlayer.trees import (
    _exact_div,
    canonical_plane_tree,
    catalan,
    count_asymmetric,
    count_plane_trees,
    dyck_word,
    psi,
    psi_inv,
    rotate,
    rotation_class,
    tree_edges,
)

U, D = UP, DOWN


def test_psi_examples():
    assert psi((U, D)) == (((),), 0)  # single edge, active at the root
    assert psi((U, U, D, D)) == ((((),),), 0)  # path on 3 vertices
    assert psi((U, D, U, D)) == (((), ()), 0)  # root with two children


def test_psi_active_depth():
    # a dangling suffix of upsteps leaves the active vertex deep
    assert psi((U, U)) == ((((),),), 2)
    assert psi((U, D, U)) == (((), ()), 1)


def test_psi_rejects_negative_path():
    with pytest.raises(ValueError):
        psi((D, U))


def test_psi_inv_examples():
    assert psi_inv(((),), 0) == (U, D)
    assert psi_inv((), 0) == ()
    assert psi_inv(((), ()), 0) == (U, D, U, D)
    assert psi_inv((((),),), 2) == (U, U)


def test_psi_inv_rejects_bad_active_depth():
    with pytest.raises(ValueError):
        psi_inv(((), ()), 2)  # word ends UP-DOWN, cannot drop two DOWNs


def test_psi_roundtrip_exhaustive():
    for m in range(0, 13):
        for k in range(m + 1):
            for tag in ("D_EQ0", "D_GT0"):
                for p in enumerate_class(m, k, tag):
                    t, depth = psi(p)
                    assert depth == 2 * k - m
                    assert psi_inv(t, depth) == p


def test_tree_edges():
    assert tree_edges(()) == 0
    assert tree_edges(((), ((),))) == 3


def test_rotate_two_vertex_path():
    assert rotate(((),)) == ((),)  # self-rotation: single edge


def test_rotate_star():
    star = ((), (), (), ())
    assert rotate(star) == (((), (), ()),)


def test_rotate_rejects_single_vertex():
    with pytest.raises(ValueError):
        rotate(())


def test_rotation_returns_after_two_n_steps():
    for p in enumerate_class(8, 4, D_EQ0):
        t = psi(p)[0]
        cur = t
        for _ in range(2 * 4):
            cur = rotate(cur)
        assert cur == t


def test_rotation_class_sizes_at_four_edges():
    sizes = sorted(
        len(rotation_class(psi(p)[0]))
        for p in enumerate_class(8, 4, D_EQ0)
    )
    # three classes of sizes 2, 4, 8, each counted once per member
    assert sizes == [2] * 2 + [4] * 4 + [8] * 8
    star = ((), (), (), ())
    assert len(rotation_class(star)) == 2
    path5 = (((((),),),),)
    assert len(rotation_class(path5)) == 4


def test_canonical_plane_tree_examples():
    assert canonical_plane_tree(((),)) == "10"
    three_path = (((),),)
    three_star = ((), ())
    assert canonical_plane_tree(three_path) == canonical_plane_tree(three_star) == "1010"
    codes = {
        canonical_plane_tree(psi(p)[0]) for p in enumerate_class(8, 4, D_EQ0)
    }
    assert len(codes) == 3


def test_dyck_word():
    assert dyck_word(((), ())) == "1010"
    assert dyck_word((((),),)) == "1100"


def test_catalan_values():
    assert [catalan(n) for n in range(1, 8)] == [1, 2, 5, 14, 42, 132, 429]
    with pytest.raises(ValueError):
        catalan(31)


def test_count_plane_trees_values():
    assert [count_plane_trees(n) for n in range(1, 31)] == [
        1, 1, 2, 3, 6, 14, 34, 95, 280, 854, 2694, 8714, 28640, 95640,
        323396, 1105335, 3813798, 13269146, 46509358, 164107650, 582538732,
        2079165208, 7457847082, 26873059986, 97239032056, 353218528324,
        1287658723550, 4709785569184, 17280039555348, 63583110959728,
    ]
    with pytest.raises(ValueError):
        count_plane_trees(31)


def test_count_asymmetric_values():
    assert [count_asymmetric(n) for n in range(1, 31)] == [
        0, 0, 0, 1, 3, 9, 28, 85, 262, 827, 2651, 8626, 28507, 95393,
        322938, 1104525, 3812367, 13266366, 46504495, 164098390, 582521687,
        2079133141, 7457788295, 26872946466, 97238824018, 353218128299,
        1287657977946, 4709784136316, 17280036880907, 63583105779823,
    ]


def test_inexact_division_raises():
    # the closed forms divide exactly; a remainder is an error even under -O
    assert _exact_div(12, 4) == 3
    with pytest.raises(ArithmeticError):
        _exact_div(7, 2)


def test_tree_counts_need_no_sympy():
    code = (
        "import sys; from midlayer import trees; "
        "trees.count_plane_trees(30); trees.count_asymmetric(30); "
        "sys.exit('sympy' in sys.modules)"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_counts_match_brute_force():
    for n in range(1, 8):
        classes: dict[str, int] = {}
        for p in enumerate_class(2 * n, n, D_EQ0):
            t = psi(p)[0]
            classes.setdefault(canonical_plane_tree(t), len(rotation_class(t)))
        assert len(classes) == count_plane_trees(n)
        assert sum(1 for s in classes.values() if s == 2 * n) == count_asymmetric(n)
