"""Smoke runs of the verification suites at reduced scale.

The acceptance tests run the same suites at their full documented scale;
these runs keep the suites themselves honest during development.
"""

import dataclasses

from midlayer import lattice
from midlayer.suites import (
    suite_all_zero,
    suite_distinct,
    suite_lattice,
    suite_parity,
    suite_paths,
    suite_tau,
    suite_trees,
)


def _assert_ok(res):
    assert res.ok, res.failures[:5]
    assert res.checks


def test_lattice_suite_small():
    _assert_ok(suite_lattice(max_len=10, max_alpha_len=8, max_card=5))


def test_lattice_suite_recomposes_each_split(monkeypatch):
    # a wrong split that raises nothing must still fail the suite
    real = lattice.decompose
    swapped = lambda p: dataclasses.replace(real(p), ell=real(p).r, r=real(p).ell)
    monkeypatch.setattr(lattice, "decompose", swapped)
    res = suite_lattice(max_len=6, max_alpha_len=2, max_card=1)
    assert any(f.startswith("decompose recomposition") for f in res.failures)


def test_trees_suite_small():
    _assert_ok(suite_trees(n_max=5, psi_len=10))


def test_paths_suite_small():
    _assert_ok(suite_paths(n_max=4))


def test_parity_suite_small():
    _assert_ok(suite_parity(3))
    _assert_ok(suite_parity(7, samples=20, seed=1))


def test_tau_suite_small():
    _assert_ok(suite_tau(n_max=3))


def test_distinct_suite_small():
    _assert_ok(suite_distinct(n_max=3, random_pairs=5))


def test_all_zero_suite_small():
    _assert_ok(suite_all_zero(n_max=5))
