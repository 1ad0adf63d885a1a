"""Parameter-space search over the construction.

Sequences are totally ordered by the mixed-radix index whose most
significant digit is the level-2 alpha and least significant the final
one; checkpoints and resume are expressed in that index.  An exhaustive
sweep has one task per level-(n-1) state, whatever the number of
workers.  A task is (n, prefix), and its answer depends on those alone:
it builds its state once and answers with the spectra of every sequence
below it, one construct.leaf_spectra pass per level-n child (an alpha
and its reversal share a spectrum); the prefix is shared within a task,
not across tasks.  The parent names the records and applies the
checkpoint once: it skips the tasks wholly before it and drops the
records before it from the first answer, so a resume inside a task
recomputes that task.  Tasks run through _ordered_map, in the parent or
on worker processes.

Random and targeted modes sample alpha vectors uniformly per level from a
seeded generator; targeted mode logs only the sequences with the desired
cycle counts.  Every mode stops after ``limit`` logged records, and random
and targeted modes also after ``budget`` evaluations.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import time
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import count, islice, product
from random import Random
from typing import Iterator

from .analysis import predicted_parity, spectrum_fields
from .bitcube import AlphaVector, ParameterSequence, format_sequence
from .construct import ConstructionError, _advance, cycle_spectrum, leaf_spectra, state_for_prefix


# Largest level an exhaustive search accepts: 2^21 sequences at n=7,
# 2^28 at n=8.
EXHAUSTIVE_BOUND = 7

# Largest level a random or targeted search accepts.  Memory grows about
# 3x per level: the first three sequences take 62 MB at n=11 and 196 MB
# at n=12, with the record that construct keeps once per level, 2(n-1) C_n
# pair-swap ranks and 4 C_n base ranks (4.3 MB and about 0.4 s at n=11),
# and a long run reaches the alpha tables of all 2^(n-1) final alphas,
# 16 bytes per path each: about 1 GB at n=11 and 7 GB at n=12.
SAMPLED_BOUND = 11


@dataclass(frozen=True)
class SearchJob:
    n: int
    mode: str = "exhaustive"  # exhaustive | random | targeted
    target_counts: frozenset[int] | None = None
    limit: int | None = None
    seed: int | None = None
    workers: int = 1
    checkpoint: int = 0
    budget: int = 100_000

    def __post_init__(self) -> None:
        for name in ("n", "workers", "limit", "budget"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        cpus = os.cpu_count() or 1
        if self.workers > cpus:
            raise ValueError(
                f"workers must be at most the CPU count {cpus}, got {self.workers}"
            )
        if self.checkpoint < 0:
            raise ValueError(f"checkpoint must be at least 0, got {self.checkpoint}")
        if self.mode not in ("exhaustive", "random", "targeted"):
            raise ValueError(f"unknown mode {self.mode!r}")
        bound = EXHAUSTIVE_BOUND if self.mode == "exhaustive" else SAMPLED_BOUND
        if self.n > bound:
            raise ValueError(f"{self.mode} search limited to n <= {bound}")
        # index num_sequences(n) resumes a finished sweep; past it is no index
        end = num_sequences(self.n)
        if self.mode == "exhaustive" and self.checkpoint > end:
            raise ValueError(f"checkpoint must be at most {end} at n={self.n}, got {self.checkpoint}")
        if self.mode != "exhaustive" and self.workers > 1:
            raise ValueError(f"{self.mode} mode runs serially; workers must be 1")
        if self.mode in ("random", "targeted") and self.seed is None:
            raise ValueError(f"{self.mode} mode requires a seed")
        if self.mode == "targeted" and self.target_counts is None:
            raise ValueError("targeted mode requires target counts")
        if self.target_counts is not None and min(self.target_counts, default=0) < 1:
            raise ValueError(f"target counts must be at least 1, got {set(self.target_counts)}")


@cache
def alpha_vectors(level: int) -> tuple[AlphaVector, ...]:
    """All 2^(level-1) alpha vectors of a level, in enumeration order."""
    width = level - 1
    return tuple(
        tuple((code >> i) & 1 for i in range(width))
        for code in range(1 << width)
    )


def num_sequences(n: int) -> int:
    """2^binom(n,2) sequences target level n."""
    return 1 << (n * (n - 1) // 2)


def all_sequences(n: int) -> list[ParameterSequence]:
    """Every sequence of n alpha vectors (alpha_1 .. alpha_n), in index
    order."""
    return list(product(*map(alpha_vectors, range(1, n + 1))))


def iter_exhaustive(
    n: int, start: int = 0
) -> Iterator[tuple[int, ParameterSequence, dict[int, int]]]:
    """Yield (index, sequence, spectrum) for all sequences targeting level
    n with index >= start, in index order."""
    return iter_exhaustive_parallel(n, 1, start=start)


def random_sequence(rng: Random, n: int) -> ParameterSequence:
    return tuple(
        tuple(rng.randint(0, 1) for _ in range(i - 1)) for i in range(1, n + 1)
    )


def iter_random(
    n: int, seed: int, start: int = 0
) -> Iterator[tuple[int, ParameterSequence, dict[int, int]]]:
    """Endless seeded stream of (index, sequence, spectrum)."""
    rng = Random(seed)
    idx = 0
    while True:
        seq = random_sequence(rng, n)
        if idx >= start:
            state = state_for_prefix(seq[:-1])
            yield idx, seq, cycle_spectrum(state, seq[-1])
        idx += 1


# --- parallel exhaustive sweep -----------------------------------------------


def _worker_sweep(task) -> list[dict[int, int]]:
    """The spectra of every sequence below a sweep task's prefix, in index
    order: the prefix's level-(n-1) state is built once, and each of its
    level-n children is one leaf_spectra call."""
    n, prefix = task
    state = state_for_prefix(prefix)
    finals = alpha_vectors(n)
    if state.n == n:  # n = 1: the prefix's state is the leaf
        return leaf_spectra(state, finals)
    spectra: list[dict[int, int]] = []
    for alpha in alpha_vectors(n - 1):
        spectra += leaf_spectra(_advance(state, alpha), finals)
    return spectra


def _answer(fn, task) -> bytes:
    """fn(task), or the exception it raised, pickled."""
    try:
        return pickle.dumps(fn(task))
    except Exception as exc:
        return pickle.dumps(exc)


def _serve(conn, fn, tasks, parent_ends) -> None:
    """A worker: answer tasks in order on conn, each after the first two
    once the parent sends a credit.  It closes the parent's ends it
    inherited, so it reads EOF or a broken pipe, and exits quietly, when
    the parent dies."""
    for end in parent_ends:
        end.close()
    try:
        for k, task in enumerate(tasks):
            if k >= 2:
                conn.recv_bytes()
            conn.send_bytes(_answer(fn, task))
    except (EOFError, ConnectionError):
        return


def _ordered_map(fn, tasks: list, workers: int) -> Iterator:
    """Yield fn(task) for each task, in task order: map(fn, tasks) with
    one worker or one task; else worker w owns tasks w, w + workers, ...
    and answers them in order on its own pipe, read by the parent's main
    thread in task order.  Once task i's answer is consumed, worker i mod
    workers gets a one-byte credit to start task i + 2 * workers, so at
    most 2 * workers tasks are started and not yet consumed.  A task's
    exception is raised here when its answer is due, a worker that exits
    early raises ChildProcessError, and the workers of a parent that dies
    exit."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        yield from map(fn, tasks)
        return
    conns, procs = [], []

    def lost(w: int) -> ChildProcessError:
        procs[w].join()
        return ChildProcessError(
            f"sweep worker {procs[w].pid} exited with code {procs[w].exitcode}"
        )

    try:
        for w in range(workers):
            conn, child = multiprocessing.Pipe()
            conns.append(conn)
            try:
                proc = multiprocessing.Process(
                    target=_serve, args=(child, fn, tasks[w::workers], conns), daemon=True
                )
                proc.start()
            finally:
                # only the worker holds its end, so the parent reads EOF
                # once the worker exits
                child.close()
            procs.append(proc)
        for i in range(len(tasks)):
            w = i % workers
            try:
                answer = conns[w].recv()
            except (EOFError, ConnectionError):
                raise lost(w) from None
            if isinstance(answer, Exception):
                raise answer
            yield answer
            del answer  # not held while the next recv blocks
            if i + 2 * workers < len(tasks):
                try:
                    conns[w].send_bytes(b"\0")
                except ConnectionError:
                    raise lost(w) from None
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def _records(
    n: int, prefix: ParameterSequence, base: int, spectra: list[dict[int, int]]
) -> Iterator:
    """The records (index, sequence, spectrum) of the sweep task below
    prefix, whose first sequence has index base; an answer whose length is
    not the task's sequence count raises ConstructionError."""
    depth = len(prefix)
    size = num_sequences(n) // num_sequences(depth)
    if len(spectra) != size:
        raise ConstructionError(
            f"sweep task at {base}: {len(spectra)} spectra for {size} sequences"
        )
    tails = product(*map(alpha_vectors, range(depth + 1, n + 1)))
    return zip(count(base), map(prefix.__add__, tails), spectra)


def iter_exhaustive_parallel(
    n: int, workers: int, start: int = 0
) -> Iterator[tuple[int, ParameterSequence, dict[int, int]]]:
    """Same stream as iter_exhaustive: _ordered_map over the sweep tasks,
    one per prefix of max(n-2, 0) alphas, from the one holding start,
    whatever the number of workers; each answer is named by _records, and
    the first one's records before start are dropped here."""
    depth = max(n - 2, 0)
    size = num_sequences(n) // num_sequences(depth)
    first = start // size
    prefixes = all_sequences(depth)[first:]
    answers = _ordered_map(_worker_sweep, [(n, prefix) for prefix in prefixes], workers)
    try:
        for base, prefix, spectra in zip(count(first * size, size), prefixes, answers):
            yield from islice(_records(n, prefix, base, spectra), max(start - base, 0), None)
            del spectra  # not held while the next answer is awaited
    finally:
        answers.close()


# --- front ends --------------------------------------------------------------

# Exhaustively determined counts of parameter sequences whose 2-factor is a
# single cycle (Hamiltonian cycle) or a pair of cycles (Hamiltonian path).
TABLE1_EXPECTED: dict[int, tuple[int, int]] = {
    1: (1, 0),
    2: (1, 1),
    3: (2, 3),
    4: (6, 12),
    5: (44, 100),
    6: (614, 1580),
    7: (0, 113438),
}


def table1_counts(n: int, workers: int = 1) -> tuple[int, int]:
    """Counts of sequences at level n giving one and two cycles."""
    cycles = Counter(sum(sp.values()) for _, _, sp in iter_exhaustive_parallel(n, workers))
    return cycles[1], cycles[2]


@dataclass
class SearchSummary:
    evaluated: int = 0
    hits: int = 0
    written: int = 0
    last_index: int = -1


def run_search(job: SearchJob, out_path=None) -> SearchSummary:
    """Evaluate sequences per the job and append JSONL records.

    Every evaluated sequence is logged unless target counts are given, in
    which case only matches are logged.  A record's wall_ms is the time
    since the previous evaluated sequence, logged or not (or since the
    start, for the first).  Every mode stops after ``limit``
    records; random and targeted modes also stop after ``budget``
    evaluations.  Every record's parity is checked against the closed-form
    prediction.
    """
    summary = SearchSummary()
    targets = job.target_counts
    if job.mode == "exhaustive":
        stream = iter_exhaustive_parallel(job.n, job.workers, start=job.checkpoint)
    else:
        stream = iter_random(job.n, job.seed, start=job.checkpoint)
    out = open(out_path, "a", encoding="utf-8") if out_path else None
    try:
        t0 = time.perf_counter()
        for idx, seq, sp in stream:
            t1 = time.perf_counter()
            wall_ms = round((t1 - t0) * 1000.0, 3)
            t0 = t1
            summary.evaluated += 1
            summary.last_index = idx
            ncyc = sum(sp.values())
            if ncyc % 2 != predicted_parity(seq[-1], job.n):
                raise ConstructionError(
                    f"parity violation at {format_sequence(seq)}: {ncyc} cycles"
                )
            if targets is None or ncyc in targets:
                if targets is not None:
                    summary.hits += 1
                if out is not None:
                    rec = {
                        "index": idx,
                        "alpha": format_sequence(seq),
                        **spectrum_fields(sp),
                        "wall_ms": wall_ms,
                    }
                    out.write(json.dumps(rec) + "\n")
                summary.written += 1
            if job.limit is not None and summary.written >= job.limit:
                break
            if job.mode != "exhaustive" and summary.evaluated >= job.budget:
                break
    finally:
        stream.close()
        if out is not None:
            out.close()
    return summary
