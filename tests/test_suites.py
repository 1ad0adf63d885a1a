"""Check-list pins of the verification suites, run as `verify` runs them.

Each case calls a mode's runner in `cli.SUITES` at a level and budget.
Every suite it returns must pass, and the digest of its check list
(names, outcomes and details) must match the pin, so a change to how a
suite sizes itself from the level shows here.  The acceptance tests run
the suites at their full documented scale.
"""

import dataclasses
from functools import cache
from hashlib import sha256

from midlayer import analysis, cli, construct, lattice, suites
from midlayer.suites import suite_lattice

# (mode, n, budget, suite name) -> sha256 of
# repr((mode, n, budget, suite name, checks)), in the runner's order
PINS = {
    ("lemmas", 1, 0, "lattice"): "c8f26fbaadd7e89b81789daacfa0ce3e8744f48c985050029e08c8fbf3d21e1c",
    ("lemmas", 1, 0, "paths"): "5cf007acb46a067f1c92a9213354f34830521d41327bf3cdf0b8178faa362906",
    ("lemmas", 2, 0, "lattice"): "380a9c56ea2ec887e06da14ef7350bf6e8b0b2d8c8a62bb9f7c896eb62facda2",
    ("lemmas", 2, 0, "paths"): "1c5529fdefac2eef3eaf0c385db59525098d6ac6bd3cc80a8a378ab97c7b1c72",
    ("lemmas", 3, 0, "lattice"): "75eb26ddad30b7f4dcf6acfc4aac700f70dbec8d0ddec4f8385b28718ad479e9",
    ("lemmas", 3, 0, "paths"): "4f90d9249415ccee337d057f2d15bfd142e569e141f8ccf2444868de9cde0360",
    ("lemmas", 4, 0, "lattice"): "ae53365d03072cb91b89c8116a0ae4fb22d5c4cb15218749cbeb3dcf4f395e52",
    ("lemmas", 4, 0, "paths"): "6614ab16680e2d2fee7069173339488f4c8b44bf7b6b64060918b08bfbaa03c8",
    ("tau", 1, 0, "tau"): "3556ae1ffa8ad58d974fca627acc72c3b8c0966e720ab4beab72feef1783fca6",
    ("tau", 2, 0, "tau"): "ebcbc0ab32f2cfd42f040654974dfbeac98de3865bc50e5eca730551808261aa",
    ("tau", 3, 0, "tau"): "a31eadb03bdf8db9a3c6684684dec041b22c9967d2f402e43c87f387473fa839",
    ("tau", 4, 0, "tau"): "9731ae9a4aff63d03bdcda017515b475237e5337a9afbebd6c7546f93962554e",
    ("trees", 1, 0, "trees"): "91a372982fc92b078131204aaf34896647250c114a4cba13c4015110112b1fc4",
    ("trees", 9, 0, "trees"): "b34c8b384d0bd83b7cb617ac10eb76004f3eb19cfc170927003216da70919f5a",
    ("parity", 3, 0, "parity"): "0bc1fc28a2384a07d31c096835cb6e1060d035c2e998a7cd5afa8a20d79a69ea",
    ("parity", 7, 5, "parity"): "6ec2479cb096d1f7e19a887e07fff6f3be1e5d7be1df4d247a39d84a078ad28d",
    ("distinct", 3, 0, "distinct"): "2c3ad1af408912af72ee93934278f2d40a81d752b720411dbf61e105fc72e7c6",
    ("distinct", 5, 3, "distinct"): "4f125b5beb925d75c909a794c00f689e547664838f3af0e70e182fb12470edf2",
}

# The check lists name no sampled state or sequence, so the seeds are
# pinned apart: level -> sha256 of repr of the alpha prefixes of
# _state_sample(level), which suite_paths checks at that level
STATE_SAMPLES = {
    4: "a8487882a8f0a879905602941052c8849035e8cb9acbd3265cff42d040693e28",
    5: "b7c951998278a9bee2980d22855bbbca166b15b0f26a703abdc7b18acd4b75e2",
    6: "73910c3a4095fcc5eb08c9b8cf12933a4a2a153a1a74e739b695fdbba917206b",
}

# sha256 of repr of the (n, (a, b)) pairs that suite_distinct(5, 3) checks
DISTINCT_PAIRS = "275ce1def66d3af49549d73fafc7462eeef3b551f9e15c3736b27b187a7bd603"


@cache
def _run(mode, n, budget):
    return cli.SUITES[mode][1](n, budget)


def _assert_pinned(suite):
    for (mode, n, budget, name), digest in PINS.items():
        if name != suite:
            continue
        results = _run(mode, n, budget)
        assert [r.name for r in results] == [k[3] for k in PINS if k[:3] == (mode, n, budget)]
        res = next(r for r in results if r.name == name)
        assert res.ok, (mode, n, budget, res.failures)
        got = sha256(repr((mode, n, budget, res.name, res.checks)).encode()).hexdigest()
        assert got == digest, (mode, n, budget, name)


def test_lattice_suite_small():
    _assert_pinned("lattice")


def test_lattice_suite_recomposes_each_split(monkeypatch):
    # a wrong split that raises nothing must still fail the suite
    real = lattice.decompose
    swapped = lambda p: dataclasses.replace(real(p), ell=real(p).r, r=real(p).ell)
    monkeypatch.setattr(lattice, "decompose", swapped)
    assert "decompose recomposition: 47 failures" in suite_lattice(1).failures


def test_paths_suite_small():
    _assert_pinned("paths")


def test_trees_suite_small():
    _assert_pinned("trees")


def test_parity_suite_small():
    _assert_pinned("parity")


def test_tau_suite_small():
    _assert_pinned("tau")


def test_tau_suite_fails_on_a_wrong_automorphism(monkeypatch):
    # with the identity in place of tau_alpha, each 2-factor would equal its
    # twin; that holds only where every final alpha is a palindrome, n <= 2
    monkeypatch.setattr(analysis, "tau_alpha", lambda alpha, v: v)
    res = suites.suite_tau(3)
    assert [name for name, passed, _ in res.checks if not passed] == [
        "n=3 reversed-pair automorphism"
    ]


def test_paths_suite_fails_on_a_missing_vertex(monkeypatch):
    # an interior vertex of the level-2 middle family repeats its
    # predecessor, so the family keeps its path lengths and endpoints and
    # loses one vertex, which only the middle coverage check sees
    real = construct.ConstructionState.families

    def spoiled(state):
        fams = real.fget(state)
        if state.n == 2:
            j, p = next((j, p) for j, p in enumerate(fams[2]) if len(p) > 3)
            fams[2] = fams[2][:j] + (p[:2] + p[1:2] + p[3:],) + fams[2][j + 1 :]
        return fams

    monkeypatch.setattr(construct.ConstructionState, "families", property(spoiled))
    res = suites.suite_paths(3)
    assert [name for name, passed, _ in res.checks if not passed] == [
        "n=2 state 0 middle coverage"
    ]


def test_paths_suite_fails_on_a_wrong_endpoint(monkeypatch):
    # one level-2 middle path loses its last vertex, so it ends at a word
    # of weight 3, not at a D_MINUS word of weight 2; the suite reads the
    # endpoints from the families it is given, so it must see that
    real = construct.ConstructionState.families

    def spoiled(state):
        fams = real.fget(state)
        if state.n == 2:
            fams[2] = (fams[2][0][:-1],) + fams[2][1:]
        return fams

    monkeypatch.setattr(construct.ConstructionState, "families", property(spoiled))
    res = suites.suite_paths(3)
    failed = [name for name, passed, _ in res.checks if not passed]
    assert "n=2 state 0 endpoint classes k=2" in failed


def test_distinct_suite_small():
    _assert_pinned("distinct")


def test_state_samples_pinned():
    for level, digest in STATE_SAMPLES.items():
        prefixes = [state.alpha_prefix for state in suites._state_sample(level)]
        assert sha256(repr(prefixes).encode()).hexdigest() == digest, level


def test_distinct_pairs_pinned(monkeypatch):
    pairs, real = [], analysis.distinct_check

    def recording(n, seqs):
        if n >= 5:
            pairs.append((n, tuple(seqs)))
        return real(n, seqs)

    monkeypatch.setattr(analysis, "distinct_check", recording)
    assert suites.suite_distinct(5, 3).ok
    assert [n for n, _ in pairs] == [5, 5, 5, 6, 6, 6]
    assert sha256(repr(pairs).encode()).hexdigest() == DISTINCT_PAIRS
