"""The traced run: per-layer figures, timed from outside the library.

A traced run has two halves.  The first half runs the workload untraced,
for the throughput that the second half is compared with.  The second half
replays the workload's sequences through the layers' public functions, one
timed span per call:

- construct.state_for_prefix on prefixes of growing length k = 1..n-1; the
  difference of two consecutive lengths is the level-k step, which is
  private to construct;
- construct.cycle_spectrum (sweeps, random-n9), or construct.assemble_two_
  factor, analysis.verify_two_factor and analysis.spectrum_json
  (build-verify-n8).

Layers the workload does not call are timed by a short probe on the
workload's own sequences, so that every traced run reports every figure.
search.run_search's work per record is timed by difference: a random
search at a level where sequences are cheap, against the same stream
drawn from search.iter_random.  Spans stay in memory and are written to
.bench_out/ when the run ends.

Figures labelled computed are counts that depend on the seed only, never on
timing; the benchmark's tests check that they repeat exactly.
"""

from __future__ import annotations

import json
import multiprocessing.pool
import re
import statistics
from collections import OrderedDict, defaultdict
from contextlib import contextmanager
from itertools import islice, product
from random import Random

from workloads import OUT, BuildVerify, Sweep, Table1, Workload, clock, random_sequences
from midlayer import analysis, construct, lattice, search
from midlayer.bitcube import f_alpha

MIN_SAMPLES = 5  # traced sequences (sweeps: leaf prefixes) per run, at least
RECORD_SAMPLE = 8  # records behind search.bytes_per_record
# search.record_us: searches of RECORD_CALLS records at RECORD_LEVEL, where a
# sequence costs about as much as its record, each repeated RECORD_REPEATS times
RECORD_LEVEL, RECORD_CALLS, RECORD_REPEATS = 4, 2000, 5
PROBE_SAMPLES = 3  # sequences per probe of a layer outside the workload
DEEPEST_STEP = 8  # per-level steps are reported for k = 1..8
MIN_SPAN_S = 2e-4  # shortest span of a level step; shorter calls are repeated
# The replay and the probes take their sequences from these indices on,
# past those the untraced half sent and past each other, so that they find
# construct's f_alpha tables no warmer than the untraced half did.
REPLAY_OFFSET = 1000
PROBE_OFFSET = 1500


class Spans:
    """Durations of timed calls, by span name."""

    def __init__(self):
        self.durations: dict[str, list[float]] = defaultdict(list)

    def __call__(self, name, fn, *args, **kwargs):
        t = clock()
        result = fn(*args, **kwargs)
        self.durations[name].append(clock() - t)
        return result

    def repeated(self, name, fn, *args, **kwargs):
        """Like a call, but a call shorter than MIN_SPAN_S is repeated until
        the repeats fill it, and their mean is recorded."""
        reps, t = 0, clock()
        while True:
            result = fn(*args, **kwargs)
            reps += 1
            elapsed = clock() - t
            if elapsed >= MIN_SPAN_S:
                break
        self.durations[name].append(elapsed / reps)
        return result

    def median(self, name: str) -> float:
        return statistics.median(self.durations[name])

    def total(self) -> float:
        return sum(sum(d) for d in self.durations.values())


@contextmanager
def pool_chunks(sizes: list[int]):
    """Record how many records each worker-pool result carries."""
    pool = multiprocessing.pool.Pool
    originals = {name: getattr(pool, name) for name in ("imap", "imap_unordered")}

    def counting(orig):
        def method(self, *args, **kwargs):
            for result in orig(self, *args, **kwargs):
                sizes.append(len(result) if isinstance(result, list) else 1)
                yield result
        return method

    for name, orig in originals.items():
        setattr(pool, name, counting(orig))
    try:
        yield
    finally:
        for name, orig in originals.items():
            setattr(pool, name, orig)


def replay(wl: Workload, seq, spans: Spans) -> tuple[int, int]:
    """Trace one sample through the layers; return (sequences, failed)."""
    n = wl.n
    state = None
    for k in range(1, n):
        state = spans.repeated(f"state.l{k}", construct.state_for_prefix, seq[:k], k_cap=n)
    finals = search.alpha_vectors(n) if isinstance(wl, Sweep) else [seq[-1]]
    failed = 0
    for alpha in finals:
        full = seq[:-1] + (alpha,)
        if isinstance(wl, BuildVerify):
            tf = spans("assemble", construct.assemble_two_factor, state, alpha)
            ok = spans("verify", analysis.verify_two_factor, tf).ok
            doc = spans("output", analysis.spectrum_json, tf)
            sp = {int(k): v for k, v in doc["spectrum"].items()}
        else:
            sp = spans("spectrum", construct.cycle_spectrum, state, alpha)
            ok = True
        failed += not (ok and wl.oracle.sound(full, sp))
    return len(finals), failed


def record_seconds(seed: int) -> float:
    """search.run_search's time per record beyond its sequence stream: the
    parity check, the record and its JSONL line.  The least time of a random
    search with output, minus the least time of drawing the same sequences
    from search.iter_random."""
    job = search.SearchJob(n=RECORD_LEVEL, mode="random", seed=seed, limit=RECORD_CALLS)
    path = OUT / f"records-s{seed}.jsonl"
    with_records, stream_only = [], []
    for _ in range(RECORD_REPEATS):
        path.write_text("")
        t = clock()
        search.run_search(job, out_path=path)
        with_records.append(clock() - t)
        t = clock()
        for _ in islice(search.iter_random(RECORD_LEVEL, seed), RECORD_CALLS):
            pass
        stream_only.append(clock() - t)
    return (min(with_records) - min(stream_only)) / RECORD_CALLS


WALL_MS = re.compile(r'"wall_ms": [^,}]+')


def bytes_per_record(wl: Workload) -> float:
    """Mean bytes of the JSONL lines run_search writes for a random search at
    the workload's level seeded with the workload seed, the timing field
    wall_ms counted as one digit so that the figure depends on the seed only."""
    job = search.SearchJob(n=wl.n, mode="random", seed=wl.seed, limit=RECORD_SAMPLE)
    path = OUT / f"bytes-{wl.name}-s{wl.seed}.jsonl"
    path.write_text("")
    search.run_search(job, out_path=path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return statistics.fmean(len(WALL_MS.sub('"wall_ms": 0', line).encode()) for line in lines)


def probe_outside_layers(wl: Workload, spans: Spans) -> None:
    """Time the layers this workload does not call, on its own sequences."""
    n = wl.n
    for i in range(PROBE_SAMPLES):
        seq = wl.sample(PROBE_OFFSET + i)
        state = construct.state_for_prefix(seq[:-1], k_cap=n)
        if isinstance(wl, BuildVerify):
            spans("spectrum", construct.cycle_spectrum, state, seq[-1])
        else:
            tf = spans("assemble", construct.assemble_two_factor, state, seq[-1])
            spans("verify", analysis.verify_two_factor, tf)
            spans("output", analysis.spectrum_json, tf)
    # level-k steps beyond this workload's depth, on its sequences extended
    # to level DEEPEST_STEP + 1 (the random-n9 construction)
    rng = Random(wl.seed)
    for i in range(PROBE_SAMPLES if n <= DEEPEST_STEP else 0):
        ext = wl.sample(PROBE_OFFSET + i)[:-1] + random_sequences(rng, DEEPEST_STEP, 1)[0][n - 1:]
        for k in range(n - 1, DEEPEST_STEP + 1):
            spans.repeated(f"deep.l{k}", construct.state_for_prefix, ext[:k], k_cap=DEEPEST_STEP + 1)
    xs = sorted(lattice.dyck_bitstrings(2 * n))
    for i in range(PROBE_SAMPLES):
        alpha = wl.sample(PROBE_OFFSET + i)[-1]
        t = clock()
        for x in xs:
            f_alpha(alpha, x)
        spans.durations["f_alpha"].append((clock() - t) / len(xs))
    for _ in range(PROBE_SAMPLES):  # cold tables, as the first call of a process
        lattice.dyck_bitstrings.cache_clear()
        lattice.dminus_bitstrings.cache_clear()
        t = clock()
        lattice.dyck_bitstrings(2 * n)
        lattice.dminus_bitstrings(2 * n)
        spans.durations["lattice_tables"].append(clock() - t)


def alpha_table_streams(wl: Workload):
    """The (level, alpha) keys of construct's f_alpha tables in one part of
    an untraced run, in the order they are asked for: one per level step and
    one per leaf.  One stream per process whose table starts cold: each of a
    sweep's worker tasks (search splits the tree at the shallowest level
    with at least one prefix per worker), or the part's calls."""
    n = wl.n
    if not isinstance(wl, Sweep):
        return [[(level, seq[level - 1])
                 for i in range(wl.calls_per_part)
                 for seq in [wl.sample(i)]
                 for level in range(1, n + 1)]]

    def walk(level):
        for alpha in search.alpha_vectors(level):
            yield level, alpha
            if level < n:
                yield from walk(level + 1)

    split, count = 1, 1
    while count < wl.workers:
        count <<= split - 1
        split += 1
    prefixes = product(*(search.alpha_vectors(level) for level in range(1, split)))
    return [[(level, alpha) for level, alpha in enumerate(prefix, start=1)] + list(walk(split))
            for prefix in prefixes]


def lru_hit_ratio(streams, capacity: int = 4096) -> float:
    """Hit ratio of LRU tables of the given capacity (construct's is 4096),
    a cold one for each stream of keys."""
    hits = total = 0
    for keys in streams:
        table: OrderedDict = OrderedDict()
        for key in keys:
            total += 1
            if key in table:
                hits += 1
                table.move_to_end(key)
            else:
                table[key] = None
                if len(table) > capacity:
                    table.popitem(last=False)
    return hits / total


def prefix_cache_hit_ratio(wl: Workload) -> float:
    """Hit ratio of search.iter_random's prefix cache rule (heads of
    min(n-1, 5) alphas, the first 512 heads kept) on the sequences one part
    of an untraced run sends, taken as one stream.  It models one search
    over them: random-n9's searches evaluate one sequence each, so their own
    caches never hit, and the sweeps and builds use no such cache."""
    depth = min(wl.n - 1, 5)
    cache: set = set()
    hits = 0
    seqs = wl.part_inputs()
    for seq in seqs:
        head = seq[:depth]
        if head in cache:
            hits += 1
        elif len(cache) < 512:
            cache.add(head)
    return hits / len(seqs)


def span_time_per_seq(wl: Workload, pipeline: dict[str, list[float]], record: float) -> float:
    """Layer time per sequence that the replay's spans account for."""
    n = wl.n
    mean = {name: statistics.fmean(d) for name, d in pipeline.items()}
    steps = [0.0] + [mean[f"state.l{k}"] for k in range(1, n)]
    if isinstance(wl, Sweep):
        # the depth-first walk takes the level-k step once per prefix of
        # k alphas, and shares it between all sequences below
        total = search.num_sequences(n)
        return mean["spectrum"] + sum(
            (steps[k] - steps[k - 1]) * search.num_sequences(k) / total
            for k in range(1, n)
        )
    if isinstance(wl, BuildVerify):
        return steps[n - 1] + mean["assemble"] + mean["verify"] + mean["output"]
    return steps[n - 1] + mean["spectrum"] + record


def traced_run(wl: Workload, seconds: float):
    n, half = wl.n, seconds / 2
    chunks: list[int] = []
    with pool_chunks(chunks):
        untraced = wl.measure(half, 1 if isinstance(wl, Sweep) else MIN_SAMPLES)
    busy, done = untraced.busy(), untraced.completed()
    scaling = 1.0
    if wl.workers > 1:
        single = Table1(wl.seed).measure(0, 1)
        scaling = (done / busy) / (wl.workers * single.completed() / single.busy())

    spans = Spans()
    traced = failed = 0
    t0 = clock()
    i = 0
    while i < MIN_SAMPLES or clock() - t0 < half:
        count, bad = replay(wl, wl.sample(REPLAY_OFFSET + i), spans)
        traced += count
        failed += bad
        i += 1
    traced_wall = clock() - t0
    pipeline = {name: list(d) for name, d in spans.durations.items()}
    probe_outside_layers(wl, spans)
    OUT.mkdir(exist_ok=True)
    record = record_seconds(wl.seed)

    med = spans.median
    steps = [0.0] + [med(f"state.l{k}") for k in range(1, n)]
    per_level = {k: steps[k] - steps[k - 1] for k in range(1, n)}
    if n <= DEEPEST_STEP:
        for k in range(n, DEEPEST_STEP + 1):
            per_level[k] = med(f"deep.l{k}") - med(f"deep.l{k - 1}")

    per_seq = busy * wl.workers / done  # worker time per sequence

    state = construct.state_for_prefix(wl.sample(0)[:-1], k_cap=n)
    paths = [p for fam in state.families.values() for p in fam]
    metrics = {
        "bitcube.f_alpha_us": (med("f_alpha") * 1e6, "us"),
        "lattice.tables_ms": (med("lattice_tables") * 1e3, "ms"),
        "construct.advance_ms": (steps[n - 1] * 1e3, "ms"),
        **{f"construct.advance_ms.l{k}": (v * 1e3, "ms") for k, v in per_level.items()},
        "construct.spectrum_us": (med("spectrum") * 1e6, "us"),
        "construct.assemble_ms": (med("assemble") * 1e3, "ms"),
        "construct.state_paths": (len(paths), "count"),
        "construct.state_vertices": (sum(len(p) for p in paths), "count"),
        "construct.alpha_table_hit_ratio": (lru_hit_ratio(alpha_table_streams(wl)), "ratio"),
        "analysis.verify_ms": (med("verify") * 1e3, "ms"),
        "analysis.output_us": (med("output") * 1e6, "us"),
        "search.record_us": (record * 1e6, "us"),
        "search.bytes_per_record": (bytes_per_record(wl), "bytes"),
        "search.prefix_cache_hit_ratio": (prefix_cache_hit_ratio(wl), "ratio"),
        "search.chunk_records": (max(chunks, default=1), "count"),
        "search.scaling_eff": (scaling, "ratio"),
        "search.unaccounted_ms": ((per_seq - span_time_per_seq(wl, pipeline, record)) * 1e3, "ms"),
        "trace.seq_per_s": (traced / traced_wall, "1/s"),
        "trace.untraced_seq_per_s": (done / busy, "1/s"),
    }
    with open(OUT / f"spans-{wl.name}-s{wl.seed}.json", "w", encoding="utf-8") as fh:
        json.dump(spans.durations, fh)
    untraced.attempted += traced
    untraced.failed += failed
    info = {"traced_sequences": traced, "span_seconds": spans.total(),
            "untraced_slowdown": untraced.slowdown()}
    return {"metrics": metrics, "info": info}, untraced

