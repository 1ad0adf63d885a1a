"""Tests of the benchmark itself; they are not part of the library's suite.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import Oracle, sequence_at
from midlayer import construct, search

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COMPUTED = (
    "construct.state_paths",
    "construct.state_vertices",
    "construct.alpha_table_hit_ratio",
    "search.prefix_cache_hit_ratio",
    "search.chunk_records",
    "search.bytes_per_record",
)
CATALAN = {6: 132, 8: 1430, 9: 4862}


def bench(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "workload,n",
    [("table1-n6-w2", 6), ("random-n9", 9), ("build-verify-n8", 8)],
)
def test_computed_counts_repeat_exactly(workload, n):
    first, second = bench(workload, 1), bench(workload, 1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in COMPUTED:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["construct.state_paths"]["value"] == CATALAN[n]
    if n == 9:
        assert first["metrics"]["construct.state_vertices"]["value"] == 92_378


def test_untraced_run_reports_every_end_to_end_metric():
    result = bench("table1-n6-w2", 0)  # one sweep in each of the run's 3 parts
    assert result == {**result, "correct": True, "attempted": 3 * 32768, "failed": 0}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_sweep_order_matches_search():
    stream = search.iter_exhaustive(4)
    for idx, seq, _ in stream:
        assert sequence_at(4, idx) == seq


def test_oracle_rejects_wrong_spectra():
    seq = ((), (0,), (1, 0))
    oracle = Oracle(3)
    sp = construct.cycle_spectrum(construct.state_for_prefix(seq[:-1]), seq[-1])
    assert oracle.sound(seq, sp)
    length, count = next(iter(sp.items()))
    assert not oracle.sound(seq, {**sp, length: count + 1})  # mass and parity off
    assert not oracle.sound(seq, {**sp, length + 14: 1, length: count - 1})  # mass off
    assert not oracle.sound(seq[:-1], sp)
