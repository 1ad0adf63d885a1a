"""Benchmark of the midlayer library; see benchmarks/README.md.

    python3 benchmarks/run.py --workload table1-n6-w2 --seed 1 --seconds 40 --trace 0

Runs the workload in child processes (measure.py) and reports, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones.  Exits non-zero if any sequence failed
its correctness check or the run itself failed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# An untraced run is a sequence of parts, each a fresh process that makes
# the workload's fixed calls on the run's inputs; parts start until the
# run's seconds are used, and at least this many run.  Set-up is timed in
# every part.
MIN_PARTS = 3
CHILD_TIMEOUT_S = 170
# A second seed, never used while the benchmark was tuned, for checking claims.
CHECK_SEED = 7


class RunFailed(Exception):
    pass


def start_child(args, part: int):
    """Start measure.py; return it and its set-up time (start until "ready")."""
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--part", str(part),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish_child(proc)
        raise RunFailed(f"set-up failed (exit code {proc.returncode})")
    return proc, setup


def finish_child(proc: subprocess.Popen) -> dict:
    """Wait for the child; return its report."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"no result within {CHILD_TIMEOUT_S} s")
    if proc.returncode:
        raise RunFailed(f"measure.py exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def percentile(ordered, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted values, and the count beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(parts: list[dict], setups: list[float]) -> dict:
    """The end-to-end metrics of a run, from what its parts observed.

    Every part repeats the same calls on the same inputs in a fresh process.
    Its times are divided by its slowdown (see workloads.REFERENCE_S), and
    a figure is the median of those over the parts."""
    median = statistics.median
    tail_pct = parts[0]["tail_pct"]
    if parts[0]["per_call"] > 1:  # one sweep per part
        sweeps = [p for p in parts if p["sweep_marks"]]
        if not sweeps:
            raise RunFailed("no sweep passed its checks")
        p50, tail = (median(p["sweep_marks"][0][k] / p["slowdown"] for p in sweeps) for k in (0, 1))
        first = median(p["firsts"][0] / p["slowdown"] for p in sweeps)
        rate = median(p["rate"] * p["slowdown"] for p in sweeps)
        samples = parts[0]["per_call"]
        beyond = samples - math.ceil(samples * tail_pct / 100)
    else:  # one sequence per call
        per_call = [median(t / p["slowdown"] for t, p in zip(ts, parts))
                    for ts in zip(*(p["latencies"] for p in parts))]
        ordered = sorted(per_call)
        samples = len(ordered)
        p50, _ = percentile(ordered, 50)
        tail, beyond = percentile(ordered, tail_pct)
        first = median(per_call)
        rate = samples / sum(per_call)
    return {
        "metrics": {
            "setup_s": (median(s / p["slowdown"] for s, p in zip(setups, parts)), "s"),
            "seq_per_s": (rate, "1/s"),
            "seq_ms_p50": (p50 * 1e3, "ms"),
            "seq_ms_tail": (tail * 1e3, "ms"),
            "first_record_s": (first, "s"),
            "peak_rss_mb": (median(p["peak_rss_mb"] for p in parts), "MB"),
        },
        "info": {
            "parts": len(parts),
            "slowdown": median(p["slowdown"] for p in parts),
            "tail_percentile": tail_pct,
            "latency_samples": samples,
            "samples_beyond_tail": beyond,
            "calls": sum(p["calls"] for p in parts),
        },
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
    }


def run(args) -> dict:
    if args.trace:
        proc, _ = start_child(args, 0)
        return finish_child(proc)
    parts, setups = [], []
    start = last = time.perf_counter()
    # stop at the part boundary nearest to the run's seconds
    while len(parts) < MIN_PARTS or time.perf_counter() + (time.perf_counter() - last) / 2 < start + args.seconds:
        last = time.perf_counter()
        proc, setup = start_child(args, len(parts))
        setups.append(setup)
        parts.append(finish_child(proc))
    return end_to_end(parts, setups)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        report = run(args)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = report["attempted"], report["failed"]
    print(f"# workload {args.workload}  seed {args.seed}  check seed {CHECK_SEED}  "
          f"trace {args.trace}  {json.dumps(report['info'])}")
    for name, (value, unit) in sorted(report["metrics"].items()):
        print(f"{name:38s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':38s} {failed / max(attempted, 1):14.6g} ratio "
          f"({failed} of {attempted} sequences)")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
