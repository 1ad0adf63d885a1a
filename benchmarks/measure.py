"""One part of a benchmark run, in a process of its own; run.py starts it.

It prints "ready" when set-up is over, just before the first timed call,
then one JSON line: what its untraced loop of the workload's fixed number
of calls observed (--trace 0), or the per-layer figures of a traced run of
--seconds (--trace 1), with the sequences attempted and failed.

    python3 benchmarks/measure.py --workload random-n9 --seed 1 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import json

from workloads import WORKLOADS, check_import


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, default=0, help="this part's number")
    args = ap.parse_args()

    check_import()
    wl = WORKLOADS[args.workload](args.seed, args.part)
    print("ready", flush=True)
    if args.trace:
        import layers

        report, tally = layers.traced_run(wl, args.seconds)
    else:
        tally = wl.measure(0, wl.calls_per_part)
        report = {
            "latencies": tally.latencies,
            "sweep_marks": tally.sweep_marks,
            "firsts": tally.firsts,
            "rate": tally.completed() / tally.busy(),
            "slowdown": tally.slowdown(),
            "peak_rss_mb": tally.peak_rss_mb,
            "calls": tally.calls,
            "tail_pct": wl.tail_pct,
            "per_call": wl.per_call,
        }
    report["attempted"] = tally.attempted
    report["failed"] = tally.failed
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
