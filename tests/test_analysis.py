from collections import Counter
from math import comb
from operator import xor
from random import Random

import pytest

from midlayer.analysis import (
    AnalysisError,
    beta,
    cycle_tree_class,
    distinct_check,
    dyck_vertex_counts,
    edge_set,
    predicted_parity,
    spectrum,
    spectrum_fields,
    spectrum_json,
    tau_image,
    two_factor_json,
    verify_two_factor,
)
from midlayer.bitcube import parse_sequence
from midlayer.construct import TwoFactor, assemble_two_factor, build, state_for_prefix
from midlayer.search import all_sequences, random_sequence


def seq(text):
    return parse_sequence(text)


def test_spectrum_examples():
    assert spectrum(build(seq(""))) == {6: 1}
    assert spectrum(build(seq(",1"))) == {10: 2}
    sp = spectrum(build(seq(",0,00,000")))
    assert sp == {36: 1, 72: 1, 144: 1}
    assert spectrum_fields(sp) == {"num_cycles": 3, "spectrum": {"36": 1, "72": 1, "144": 1}}


def test_dyck_vertex_counts():
    for text in ("", ",0", ",1", ",1,01"):
        tf = build(seq(text))
        counts = dyck_vertex_counts(tf)
        assert [
            (4 * tf.n + 2) * c for c in counts
        ] == [len(c) for c in tf.cycles]


def test_verify_passes_on_built_factors():
    for text in ("", ",0", ",1,10"):
        assert verify_two_factor(build(seq(text))).ok


def test_verify_detects_missing_vertex():
    tf = build(seq(",0"))
    broken = TwoFactor(tf.n, tf.alphas, (tf.cycles[0][:-1],))
    report = verify_two_factor(broken)
    assert not report.ok


def test_verify_detects_swapped_vertices():
    tf = build(seq(",0"))
    c = list(tf.cycles[0])
    c[3], c[10] = c[10], c[3]
    report = verify_two_factor(TwoFactor(tf.n, tf.alphas, (tuple(c),)))
    assert not report.ok
    assert any("adjacent" in f for f in report.failures)


def test_verify_detects_repeated_vertex():
    tf = build(seq(",0"))
    c = tf.cycles[0]
    report = verify_two_factor(TwoFactor(tf.n, tf.alphas, (c, c[:1])))
    assert not report.ok
    assert "1 repeated vertex visits" in report.failures


def test_verify_detects_vertex_outside_middle_levels():
    tf = build(seq(",0"))
    c = list(tf.cycles[0])
    c[0] = 0b11111  # weight 5; the middle levels of the 5-cube are 2 and 3
    report = verify_two_factor(TwoFactor(tf.n, tf.alphas, (tuple(c),)))
    assert "1 vertices outside the middle levels" in report.failures


def test_verify_detects_vertex_too_long():
    tf = build(seq(",0"))
    # one bit too many, and 300 set bits, a weight no byte holds
    for v in (tf.cycles[0][4] | 1 << 5, (1 << 300) - 1):
        c = list(tf.cycles[0])
        c[4] = v
        report = verify_two_factor(TwoFactor(tf.n, tf.alphas, (tuple(c),)))
        assert f"cycle 0: vertex {v:#x} too long" in report.failures


def test_verify_detects_length_not_multiple_of_unit():
    # a 6-cycle through the middle levels of the 5-cube: distinct, adjacent
    # vertices of weight 2 and 3, but 6 is not a multiple of 4n+2 = 10
    tf = build(seq(",0"))
    hexagon = (0b00011, 0b00111, 0b00110, 0b01110, 0b01010, 0b01011)
    report = verify_two_factor(TwoFactor(tf.n, tf.alphas, (hexagon,)))
    assert "cycle 0: length 6 not divisible by 10" in report.failures
    assert not any("adjacent" in f or "middle" in f for f in report.failures)


def _reference_ok(tf):
    """Reference verdict by per-vertex counting: coverage, disjointness,
    adjacency, divisibility."""
    n = tf.n
    m = 2 * n + 1
    seen = Counter()
    for cycle in tf.cycles:
        if len(cycle) % (4 * n + 2):
            return False
        for i, v in enumerate(cycle):
            seen[v] += 1
            if v >> m or (cycle[i - 1] ^ v).bit_count() != 1:
                return False
    return (
        all(c == 1 for c in seen.values())
        and all(v.bit_count() in (n, n + 1) for v in seen)
        and sum(seen.values()) == comb(m, n) + comb(m, n + 1)
    )


def test_verify_agrees_with_reference_on_small_levels():
    for n in range(1, 5):
        for s in all_sequences(n):
            tf = build(s)
            first = tf.cycles[0]
            broken = [
                tf,
                TwoFactor(n, s, (first[1:],) + tf.cycles[1:]),  # vertex missing
                TwoFactor(n, s, tf.cycles + (first[:1],)),  # vertex repeated
                TwoFactor(n, s, (first[::2],) + tf.cycles[1:]),  # not adjacent
            ]
            for t in broken:
                assert verify_two_factor(t).ok == _reference_ok(t)
            assert verify_two_factor(tf).ok


def _reference_failures(tf):
    """The failure list of the set-based check that verify_two_factor's
    per-cycle passes replaced: a rotated copy per cycle for adjacency and
    the weights counted over the set of visited vertices."""
    n = tf.n
    m = 2 * n + 1
    failures = []
    seen = set()
    total = 0
    for ci, cycle in enumerate(tf.cycles):
        if len(cycle) % (4 * n + 2):
            failures.append(f"cycle {ci}: length {len(cycle)} not divisible by {4 * n + 2}")
        total += len(cycle)
        seen.update(cycle)
        if cycle and max(cycle) >> m:
            failures.extend(f"cycle {ci}: vertex {v:#x} too long" for v in cycle if v >> m)
        steps = list(map(int.bit_count, map(xor, cycle[-1:] + cycle[:-1], cycle)))
        if steps.count(1) != len(steps):
            failures.extend(
                f"cycle {ci}: vertices at {i - 1},{i} not adjacent"
                for i, d in enumerate(steps)
                if d != 1
            )
    repeats = total - len(seen)
    if repeats:
        failures.append(f"{repeats} repeated vertex visits")
    weights = list(map(int.bit_count, seen))
    bad_weight = len(seen) - weights.count(n) - weights.count(n + 1)
    if bad_weight:
        failures.append(f"{bad_weight} vertices outside the middle levels")
    expected = comb(m, n) + comb(m, n + 1)
    if total != expected:
        failures.append(f"covered {total} vertices, expected {expected}")
    return failures


def test_verify_failures_match_the_set_based_check():
    for n in range(1, 4):
        for s in all_sequences(n):
            tf = build(s)
            first, rest = tf.cycles[0], tf.cycles[1:]
            swapped = list(first)
            swapped[1], swapped[3] = swapped[3], swapped[1]
            cases = [
                tf.cycles,
                (first[1:],) + rest,  # vertex missing
                tf.cycles + (first[:1],),  # vertex repeated
                (tuple(swapped),) + rest,  # two vertices swapped
                (first[::2],) + rest,  # every other vertex dropped
                (first[:2] + (first[2] | 2 << 2 * n,) + first[3:],) + rest,  # too long
                (first[:2] + ((1 << 300) - 1,) + first[3:],) + rest,  # 300 bits
                ((0,) + first[1:] + (0,),) + rest,  # wrong weight, visited twice
            ]
            for cycles in cases:
                broken = TwoFactor(n, s, cycles)
                assert verify_two_factor(broken).failures == _reference_failures(broken)


def test_verify_rejects_an_empty_cycle():
    # the set-based check passed an empty cycle: its length 0 is divisible
    # by 4n+2 and it adds nothing to the coverage count
    for n in range(1, 4):
        for s in all_sequences(n):
            tf = build(s)
            last = TwoFactor(n, s, tf.cycles + ((),))
            assert verify_two_factor(last).failures == [f"cycle {len(tf.cycles)}: empty"]
            first = TwoFactor(n, s, ((),) + tf.cycles)
            assert verify_two_factor(first).failures == ["cycle 0: empty"]
            assert not verify_two_factor(first).ok


def test_beta_examples():
    assert beta(3) == (1, 1)
    assert beta(4) == (0, 1, 0)
    assert beta(7) == (0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        beta(0)


def test_beta_symmetry_and_sparsity():
    for n in range(2, 20):
        b = beta(n)
        assert b == b[::-1]
        assert sum(b) <= 2


def test_predicted_parity_examples():
    assert predicted_parity((0,), 2) == 1  # odd: the single-cycle case exists
    assert predicted_parity((1,), 2) == 0
    for code in range(8):
        alpha = tuple((code >> i) & 1 for i in range(6))
        assert predicted_parity(alpha, 7) == 0


def test_predicted_parity_matches_observation_small():
    from midlayer.search import iter_exhaustive

    for n in (1, 2, 3, 4):
        for _, s, sp in iter_exhaustive(n):
            assert sum(sp.values()) % 2 == predicted_parity(s[-1], n)


def test_cycle_tree_class_level_two():
    tf = build(seq(",0"))
    assert cycle_tree_class(tf.cycles[0], 2) == "1010"


def test_cycle_tree_class_level_four():
    tf = build(seq(",0,00,000"))
    codes = {len(c): cycle_tree_class(c, 4) for c in tf.cycles}
    assert len(set(codes.values())) == 3
    # the longest cycle carries the full-size rotation class
    from midlayer.trees import canonical_plane_tree, psi, rotation_class
    from midlayer.lattice import D_EQ0, enumerate_class

    full = {
        canonical_plane_tree(psi(p)[0])
        for p in enumerate_class(8, 4, D_EQ0)
        if len(rotation_class(psi(p)[0])) == 8
    }
    assert codes[144] in full and len(full) == 1


def test_cycle_tree_class_rejects_mixed_cycle():
    tf = build(seq(",1"))
    with pytest.raises(AnalysisError):
        cycle_tree_class(tf.cycles[0], 2)


def test_edge_set_orientation_free():
    tf = build(seq(",0"))
    es = edge_set(tf.cycles)
    assert len(es) == sum(len(c) for c in tf.cycles)
    assert edge_set(c[:1] + c[1:][::-1] for c in tf.cycles) == es


def test_distinct_check():
    assert distinct_check(2, [seq(",0"), seq(",1")])
    assert distinct_check(3, [seq(",%s,%s" % (a, b)) for a in "01" for b in ("00", "10", "01", "11")])
    assert not distinct_check(2, [seq(",0"), seq(",0")])
    with pytest.raises(ValueError):
        distinct_check(2, [seq("")])


def test_tau_image_identity_cases():
    tf = build(seq(",0"))
    assert tau_image(tf, (0,)) == edge_set(tf.cycles)
    tf1 = build(seq(""))
    assert tau_image(tf1, ()) == edge_set(tf1.cycles)


def test_tau_image_reversed_pair():
    tf = build(seq(",0,10"))
    other = build(seq(",0,01"))
    assert tau_image(tf, (0, 1)) == edge_set(other.cycles)


def test_tau_image_matches_table_assembly_sampled():
    # tau_image maps vertex by vertex through tau_alpha, assembly through
    # construct's image tables, so the two paths cross-check each other
    rng = Random(12)
    for n in range(6, 9):
        for _ in range(5):
            state = state_for_prefix(random_sequence(rng, n - 1))
            alpha = tuple(rng.randint(0, 1) for _ in range(n - 1))
            image = tau_image(assemble_two_factor(state, alpha), alpha[::-1])
            assert image == edge_set(assemble_two_factor(state, alpha[::-1]).cycles)


def test_tau_image_level_check():
    with pytest.raises(ValueError):
        tau_image(build(seq(",0")), (0, 0))


def test_json_shapes():
    tf = build(seq(",1"))
    sj = spectrum_json(tf)
    assert sj == {
        "n": 2,
        "alpha": ",1",
        "num_cycles": 2,
        "spectrum": {"10": 2},
    }
    fj = two_factor_json(tf)
    assert fj["n"] == 2 and fj["alpha"] == ",1"
    assert len(fj["cycles"]) == 2
    assert all(len(v) == 5 for c in fj["cycles"] for v in c)
