"""The benchmark's workloads and their correctness gates.

Each workload drives the library's public front ends in one closed loop:
the next call starts only after the previous one returned.  A call's
results are checked against independent oracles after it returns, and
the check time is kept out of every timing.

Importing this module puts the checkout's ``src`` first on ``sys.path``,
so the benchmark always measures the library it was checked out with.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import midlayer  # noqa: E402
from midlayer import analysis, construct, search  # noqa: E402

clock = time.perf_counter

# Other tenants slow this machine by up to 2x, for seconds or for minutes at
# a time, so that a whole run may never see it undisturbed.  A part therefore
# times a reference loop before each call, and its slowdown is the median of
# those times over REFERENCE_S, the loop's time on this machine when it is
# undisturbed (2 CPUs, Python 3.11.7); run.py divides the part's times by it.
REFERENCE_S = 2.7e-3
REFERENCE_REPEATS = 3


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop that does not touch midlayer: dict
    inserts and lookups on ints, as in the library's tables.  Garbage
    collection is held off, so that the library's heap does not add to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = clock()
        table = {}
        for i in range(12_000):
            table[(i * 2654435761) & 0xFFFFF] = i
        sum(table.get(i, 0) for i in range(0, 0x100000, 64))
        return clock() - t
    finally:
        if enabled:
            gc.enable()


def check_import() -> None:
    """Refuse to measure a midlayer that is not the checkout's own."""
    if SRC not in Path(midlayer.__file__).resolve().parents:
        raise SystemExit(f"midlayer imported from {midlayer.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    """Largest resident set so far of this process or of any worker it started."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024  # ru_maxrss is in KiB on Linux


@dataclass
class Tally:
    """Everything a timed loop observed."""

    latencies: list[float] = field(default_factory=list)  # one per sequence
    sweep_marks: list[tuple[float, float]] = field(default_factory=list)  # (p50, tail) per sweep
    firsts: list[float] = field(default_factory=list)
    units: list[tuple[int, float]] = field(default_factory=list)  # (sequences, seconds)
    references: list[float] = field(default_factory=list)  # reference_seconds()
    peak_rss_mb: float = 0.0  # read once min_calls calls were made
    calls: int = 0
    attempted: int = 0
    failed: int = 0

    def slowdown(self) -> float:
        """How much slower than undisturbed the machine ran this loop."""
        return statistics.median(self.references) / REFERENCE_S

    def busy(self) -> float:
        return sum(t for _, t in self.units)

    def completed(self) -> int:
        return sum(s for s, _ in self.units)


def random_sequences(rng: Random, n: int, count: int) -> list[tuple[tuple[int, ...], ...]]:
    """Uniform parameter sequences targeting level n."""
    out = []
    for _ in range(count):
        seq = []
        for j in range(1, n + 1):
            code = rng.getrandbits(j - 1)
            seq.append(tuple((code >> b) & 1 for b in range(j - 1)))
        out.append(tuple(seq))
    return out


class Oracle:
    """Checks a spectrum against the two closed-form facts every 2-factor has:
    its cycles cover the 2*C(2n+1, n) middle-layer vertices, and the parity
    of its cycle count is analysis.predicted_parity of the last alpha."""

    def __init__(self, n: int):
        self.n = n
        self.mass = 2 * math.comb(2 * n + 1, n)
        self._parity: dict[tuple[int, ...], int] = {}

    def parity(self, alpha: tuple[int, ...]) -> int:
        p = self._parity.get(alpha)
        if p is None:
            p = self._parity[alpha] = analysis.predicted_parity(alpha, self.n)
        return p

    def sound(self, seq, spectrum: dict[int, int]) -> bool:
        return (
            len(seq) == self.n
            and sum(length * count for length, count in spectrum.items()) == self.mass
            and sum(spectrum.values()) % 2 == self.parity(seq[-1])
        )


class Workload:
    name: str
    n: int
    workers = 1
    per_call: int  # sequences one call attempts
    # Calls one part of a run makes: a fresh process that repeats the same
    # calls on the same inputs as every other part of the run, so that the
    # parts differ only in how fast the machine was while they ran.
    calls_per_part: int
    # The highest percentile with >= 10 samples beyond it among one part's
    # calls (sweeps: among one sweep's records).
    tail_pct: float

    def __init__(self, seed: int, part: int = 0):
        self.seed = seed
        self.rng = Random(seed)
        self.oracle = Oracle(self.n)

    def call(self, i: int, tally: Tally) -> None:
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """Checks that can only run once the loop is over."""

    def sample(self, i: int):
        """A seeded sequence of the workload; the i-th call's, if a call
        evaluates one sequence."""
        raise NotImplementedError

    def part_inputs(self) -> list:
        """The sequences one part of an untraced run sends, in order."""
        return [self.sample(i) for i in range(self.calls_per_part)]

    def measure(self, seconds: float, min_calls: int) -> Tally:
        """Closed loop: call until `seconds` have passed and `min_calls` were made."""
        tally = Tally()
        start = last = clock()
        # stop at the call boundary nearest to `seconds`
        while tally.calls < min_calls or clock() + (clock() - last) / 2 < start + seconds:
            last = clock()
            tally.references.extend(reference_seconds() for _ in range(REFERENCE_REPEATS))
            try:
                self.call(tally.calls, tally)
            except Exception as exc:  # a failing call is counted, not fatal
                print(f"call {tally.calls} failed: {exc!r}", file=sys.stderr)
                tally.attempted += self.per_call
                tally.failed += self.per_call
            tally.calls += 1
            if tally.calls == min_calls:
                tally.peak_rss_mb = peak_rss_mb()
        tally.references.extend(reference_seconds() for _ in range(REFERENCE_REPEATS))
        self.finish(tally)
        return tally


class Sweep(Workload):
    """All 2^C(n,2) sequences of a level, as the stream table1_counts consumes."""

    tail_pct = 99.9
    calls_per_part = 1

    def __init__(self, seed: int, part: int = 0):
        super().__init__(seed, part)
        self.per_call = search.num_sequences(self.n)
        self.samples = random_sequences(self.rng, self.n, 256)

    def call(self, i: int, tally: Tally) -> None:
        n, oracle, total = self.n, self.oracle, self.per_call
        # a record's latency is the time from the call until it arrives; the
        # arrivals are in order, so a percentile is the arrival at its rank
        marks = {math.ceil(total * 0.5): None, math.ceil(total * self.tail_pct / 100): None}
        stream = search.iter_exhaustive_parallel(n, self.workers)
        busy = 0.0
        count = ones = twos = bad = 0
        while True:
            t = clock()
            try:
                idx, seq, sp = next(stream)
            except StopIteration:
                busy += clock() - t
                break
            busy += clock() - t
            if count == 0:
                tally.firsts.append(busy)
            if count + 1 in marks:
                marks[count + 1] = busy
            ncyc = sum(sp.values())
            ones += ncyc == 1
            twos += ncyc == 2
            if idx != count or not oracle.sound(seq, sp):
                bad += 1
            count += 1
        tally.units.append((count, busy))
        if count != total or (ones, twos) != search.TABLE1_EXPECTED[n]:
            bad = total
        else:
            tally.sweep_marks.append(tuple(marks.values()))
        tally.attempted += total
        tally.failed += bad

    def part_inputs(self) -> list:
        """The whole sweep, in index order."""
        return [sequence_at(self.n, idx) for idx in range(self.per_call)]

    def sample(self, i: int):
        """A seeded sequence of the level, for the traced run."""
        return self.samples[i % len(self.samples)]


def sequence_at(n: int, idx: int):
    """The sequence with the given mixed-radix index (search's sweep order:
    the final alpha is the least significant digit)."""
    alphas = []
    for level in range(n, 0, -1):
        width = level - 1
        code = idx & ((1 << width) - 1)
        idx >>= width
        alphas.append(tuple((code >> b) & 1 for b in range(width)))
    return tuple(reversed(alphas))


class Table1(Sweep):
    """The sweep on one worker; the traced run compares the pool with it."""

    name, n = "table1-n6", 6


class Table1Pool(Sweep):
    """The sweep through search's worker pool, as table1_counts(6, workers=2) runs it."""

    name, n, workers = "table1-n6-w2", 6, 2


class RandomSearch(Workload):
    """One-sequence random searches, each seeded from the workload seed."""

    name, n = "random-n9", 9
    per_call = 1
    tail_pct = 75.0
    calls_per_part = 40

    def __init__(self, seed: int, part: int = 0):
        super().__init__(seed, part)
        self.seeds = [self.rng.getrandbits(32) for _ in range(2000)]
        OUT.mkdir(exist_ok=True)
        self.out = OUT / f"{self.name}-s{seed}-p{part}.jsonl"
        self.out.write_text("")
        self.written = 0

    def call(self, i: int, tally: Tally) -> None:
        job = search.SearchJob(
            n=self.n, mode="random", seed=self.seeds[i % len(self.seeds)], limit=1
        )
        t = clock()
        summary = search.run_search(job, out_path=self.out)
        dt = clock() - t
        tally.latencies.append(dt)
        tally.firsts.append(dt)
        tally.units.append((summary.evaluated, dt))
        tally.attempted += 1
        if summary.evaluated != 1 or summary.written != 1:
            tally.failed += 1
        else:
            self.written += 1

    def finish(self, tally: Tally) -> None:
        lines = self.out.read_text(encoding="utf-8").splitlines()
        bad = abs(len(lines) - self.written)
        for line in lines:
            bad += not self.sound_record(json.loads(line))
        tally.failed = min(tally.attempted, tally.failed + bad)

    def sound_record(self, rec: dict) -> bool:
        seq = midlayer.parse_sequence(rec["alpha"])
        sp = {int(k): v for k, v in rec["spectrum"].items()}
        return rec["num_cycles"] == sum(sp.values()) and self.oracle.sound(seq, sp)

    def sample(self, i: int):
        """The sequence the i-th call evaluates."""
        return search.random_sequence(Random(self.seeds[i % len(self.seeds)]), self.n)


class BuildVerify(Workload):
    """Each sequence as `midlayer build` runs it: build, verify, spectrum JSON."""

    name, n = "build-verify-n8", 8
    per_call = 1
    tail_pct = 75.0
    calls_per_part = 40

    def __init__(self, seed: int, part: int = 0):
        super().__init__(seed, part)
        self.seqs = random_sequences(self.rng, self.n, 2000)

    def call(self, i: int, tally: Tally) -> None:
        seq = self.seqs[i % len(self.seqs)]
        t = clock()
        tf = construct.build(seq)
        report = analysis.verify_two_factor(tf)
        doc = analysis.spectrum_json(tf)
        dt = clock() - t
        tally.latencies.append(dt)
        tally.firsts.append(dt)
        tally.units.append((1, dt))
        tally.attempted += 1
        sp = {int(k): v for k, v in doc["spectrum"].items()}
        ok = (
            report.ok
            and doc["alpha"] == midlayer.format_sequence(seq)
            and doc["num_cycles"] == sum(sp.values())
            and self.oracle.sound(seq, sp)
        )
        tally.failed += not ok

    def sample(self, i: int):
        return self.seqs[i % len(self.seqs)]


WORKLOADS = {w.name: w for w in (Table1Pool, RandomSearch, BuildVerify)}
