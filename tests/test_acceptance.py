"""End-to-end acceptance checks at full documented scale.

Each criterion prints one PASS/FAIL line directly to the terminal
(bypassing capture) so a plain ``pytest -v`` run shows the scoreboard.
The long n=7 exhaustive sweep is opt-in via MIDLAYER_RUN_N7=1.
"""

import os
from collections import Counter
from random import Random

import pytest

from midlayer.analysis import dyck_vertex_counts, predicted_parity, verify_two_factor
from midlayer.construct import build
from midlayer.search import (
    TABLE1_EXPECTED,
    SearchJob,
    iter_exhaustive,
    iter_random,
    random_sequence,
    run_search,
)
from midlayer.suites import (
    suite_all_zero,
    suite_distinct,
    suite_lattice,
    suite_paths,
    suite_tau,
    suite_trees,
)


def report(capsys, num, ok, text):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def sweeps():
    """Exhaustive (sequence, spectrum) streams for n = 1..6, shared by the
    counting and parity criteria."""
    return {
        n: [(seq, sp) for _, seq, sp in iter_exhaustive(n)]
        for n in range(1, 7)
    }


def test_criterion_1_sequence_counts(sweeps, capsys):
    got = {}
    for n in range(1, 7):
        counts = Counter(sum(sp.values()) for _, sp in sweeps[n])
        got[n] = (counts.get(1, 0), counts.get(2, 0))
    ok = all(got[n] == TABLE1_EXPECTED[n] for n in range(1, 7))
    report(capsys, 1, ok, f"one/two-cycle sequence counts for n=1..6: {got}")


@pytest.mark.skipif(
    not os.environ.get("MIDLAYER_RUN_N7"),
    reason="2097152-sequence sweep; set MIDLAYER_RUN_N7=1 to run",
)
def test_criterion_2_extended_counts(capsys):
    counts = Counter(sum(sp.values()) for _, _, sp in iter_exhaustive(7))
    got = (counts.get(1, 0), counts.get(2, 0))
    report(capsys, 2, got == (0, 113438), f"n=7 one/two-cycle counts: {got}")


def test_criterion_3_all_zero_structure(capsys):
    res = suite_all_zero(9)
    report(
        capsys, 3, res.ok and len(res.checks) == 23,
        f"all-zero cycle structure n=1..9 ({len(res.checks)} checks)"
        + ("" if res.ok else f": {res.failures[:3]}"),
    )


def test_criterion_4_divisibility(capsys):
    rng = Random(20240823)
    failures = []
    for n in range(3, 9):
        for _ in range(1000):
            seq = random_sequence(rng, n)
            tf = build(seq)
            rep = verify_two_factor(tf)
            if not rep.ok:
                failures.append((seq, rep.failures[:1]))
                continue
            lengths = [len(c) for c in tf.cycles]
            dyck = dyck_vertex_counts(tf)
            if any(l % (4 * n + 2) for l in lengths) or [
                (4 * n + 2) * d for d in dyck
            ] != lengths:
                failures.append((seq, "length/count mismatch"))
        if failures:
            break
    report(
        capsys, 4, not failures,
        "cycle lengths divisible by 4n+2 and matching per-cycle balanced-"
        f"vertex counts, 1000 random sequences each for n=3..8"
        + ("" if not failures else f": {failures[:2]}"),
    )


def test_criterion_5_parity(sweeps, capsys):
    bad = []
    for n in range(1, 7):
        for seq, sp in sweeps[n]:
            if sum(sp.values()) % 2 != predicted_parity(seq[-1], n):
                bad.append(seq)
    for n in (7, 8, 9):
        stream = iter_random(n, seed=1000 + n)
        for _, (_, seq, sp) in zip(range(1000), stream):
            if sum(sp.values()) % 2 != predicted_parity(seq[-1], n):
                bad.append(seq)
    report(
        capsys, 5, not bad,
        "cycle-count parity matches the closed form (exhaustive n<=6, "
        "1000 samples each n=7..9)" + ("" if not bad else f": {bad[:2]}"),
    )


def test_criterion_6_distinctness(capsys):
    res = suite_distinct(4, 0)
    names = [name for name, _, _ in res.checks]
    covered = names == [f"n={n} all {c} sequences distinct" for n, c in enumerate((1, 2, 8, 64), 1)]
    report(
        capsys, 6, res.ok and covered,
        "all 2-factors pairwise distinct as edge sets, n<=4"
        + ("" if res.ok and covered else f": {names} {res.failures[:3]}"),
    )


def test_criterion_7_tau_automorphism(capsys):
    res = suite_tau(5)
    report(
        capsys, 7, res.ok and len(res.checks) == 5,
        "reversed-final-vector pairs map onto each other under the "
        f"permute-and-invert automorphism, n<=5 ({len(res.checks)} checks)"
        + ("" if res.ok else f": {res.failures[:3]}"),
    )


def test_criterion_8_lattice_oracle(capsys):
    res = suite_lattice(6)
    report(
        capsys, 8, res.ok and len(res.checks) == 122,
        f"lattice-class recursions, map invariance, and pivots "
        f"({len(res.checks)} checks)" + ("" if res.ok else f": {res.failures[:3]}"),
    )


def test_criterion_9_tree_suite(capsys):
    res = suite_trees(8)
    report(
        capsys, 9, res.ok and len(res.checks) == 36,
        f"tree bijection, rotation classes, and counting formulas "
        f"({len(res.checks)} checks)" + ("" if res.ok else f": {res.failures[:3]}"),
    )


def test_criterion_10_path_structure(capsys):
    res = suite_paths(6)
    report(
        capsys, 10, res.ok and len(res.checks) == 333,
        f"family endpoint classes, length formula, and split relations "
        f"({len(res.checks)} checks)" + ("" if res.ok else f": {res.failures[:3]}"),
    )


def test_substitute_targeted_search(capsys):
    """Stand-in for the large-scale hunt: at n=8..10 a budget-bounded
    targeted search must locate at least one sequence with at most two
    cycles."""
    hits = {}
    for n, seed, budget in ((8, 50, 200), (9, 51, 200), (10, 63, 120)):
        summary = run_search(
            SearchJob(
                n=n, mode="targeted", seed=seed,
                target_counts=frozenset({1, 2}), limit=1, budget=budget,
            )
        )
        hits[n] = summary.hits
    ok = all(v >= 1 for v in hits.values())
    report(
        capsys, "S", ok,
        f"targeted search finds a <=2-cycle sequence at n=8..10 within budget: {hits}",
    )
