"""Parameter-space search over the construction.

Exhaustive search walks the alpha-prefix tree depth first, so the family
construction for a prefix is done once and shared by every extension; for
a fixed prefix at the target level, the final alpha vectors cost one pass
over the middle family per reversal pair, since an alpha vector and its
reversal give the same cycle spectrum (construct.leaf_spectra).
Sequences are totally ordered by the mixed-radix index whose most
significant digit is the level-2 alpha and least significant the final
one; checkpoints and resume are expressed in that index.  A parallel
sweep gives each worker task the subtree below one level-(n-1) state, so
the task layout depends only on n and the start index.  Each worker owns
every workers-th task and answers them in order on a pipe of its own,
which the parent reads in task order in its main thread, sending back a
one-byte credit per consumed answer: no pool, no threads.  A worker's
exception is raised in the parent, a worker that dies raises
ChildProcessError, and the workers of a parent that dies exit.

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
from dataclasses import dataclass
from functools import cache
from random import Random
from typing import Iterator

from .analysis import predicted_parity, spectrum_fields
from .bitcube import AlphaVector, ParameterSequence, format_sequence
from .construct import (
    ConstructionError,
    ConstructionState,
    _advance,
    cycle_spectrum,
    leaf_spectra,
    state_for_prefix,
)


# Largest level an exhaustive search accepts: 2^21 sequences at n=7,
# 2^28 at n=8.
EXHAUSTIVE_BOUND = 7

# Largest level a random or targeted search accepts.  Memory grows about
# 3x per level: the first three sequences take 57 MB at n=11 and 166 MB
# at n=12, and a long run reaches the alpha tables of all 2^(n-1) final
# alphas, 16 bytes per path each: about 1 GB at n=11 and 7 GB at n=12.
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
        if self.mode != "exhaustive" and self.workers > 1:
            raise ValueError(f"{self.mode} mode runs serially; workers must be 1")
        if self.mode in ("random", "targeted") and self.seed is None:
            raise ValueError(f"{self.mode} mode requires a seed")
        if self.mode == "targeted" and self.target_counts is None:
            raise ValueError("targeted mode requires target counts")


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
    out: list[ParameterSequence] = [()]
    for level in range(1, n + 1):
        out = [p + (a,) for p in out for a in alpha_vectors(level)]
    return out


def iter_exhaustive(
    n: int, start: int = 0
) -> Iterator[tuple[int, ParameterSequence, dict[int, int]]]:
    """Yield (index, sequence, spectrum) for all sequences targeting level
    n with index >= start, in index order."""
    yield from _walk(state_for_prefix(()), n, start, 0)


def _walk(
    state: ConstructionState, n: int, start: int, base: int
) -> Iterator[tuple[int, ParameterSequence, dict[int, int]]]:
    level = state.n
    if level == n:
        alphas = alpha_vectors(level)
        for j, (alpha, sp) in enumerate(zip(alphas, leaf_spectra(state, alphas))):
            idx = base + j
            if idx >= start:
                yield idx, state.alpha_prefix + (alpha,), sp
    else:
        sub = num_sequences(n) // num_sequences(level)
        for j, alpha in enumerate(alpha_vectors(level)):
            lo = base + j * sub
            if lo + sub <= start:
                continue
            yield from _walk(_advance(state, alpha), n, start, lo)


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


def _worker_sweep(args) -> list[tuple[int, ParameterSequence, dict[int, int]]]:
    n, prefix, base, start = args
    return list(_walk(state_for_prefix(prefix), n, start, base))


def _answer(task) -> bytes:
    """A sweep task's records, or the exception it raised, pickled."""
    try:
        return pickle.dumps(_worker_sweep(task))
    except Exception as exc:
        return pickle.dumps(exc)


def _serve(conn, tasks, parent_ends) -> None:
    """A sweep worker: answer tasks in order on conn, each after the first
    two once the parent sends a credit.  It closes the parent's ends it
    inherited, so it reads EOF or a broken pipe, and exits quietly, when
    the parent dies."""
    for end in parent_ends:
        end.close()
    try:
        for k, task in enumerate(tasks):
            if k >= 2:
                conn.recv_bytes()
            conn.send_bytes(_answer(task))
    except (EOFError, ConnectionError):
        return


def _sweep_tasks(n: int, start: int = 0) -> list[tuple]:
    """Worker tasks of a parallel sweep from index start, in index order:
    one per prefix of max(n-2, 0) alphas, that is the subtree below one
    level-(n-1) state, holding 2^(2n-3) sequences for n >= 2."""
    depth = max(n - 2, 0)
    sub = num_sequences(n) // num_sequences(depth)
    return [
        (n, prefix, i * sub, start)
        for i, prefix in enumerate(all_sequences(depth))
        if (i + 1) * sub > start
    ]


def iter_exhaustive_parallel(
    n: int, workers: int, start: int = 0
) -> Iterator[tuple[int, ParameterSequence, dict[int, int]]]:
    """Same stream as iter_exhaustive, produced by worker processes.

    Each task is the subtree below one level-(n-1) state, whatever the
    number of workers, so a task's records and a worker's memory stay
    small.  Worker w owns tasks w, w + workers, ... and answers them in
    order on its own pipe, so the parent reads the pipes in task order and
    yields records in index order.  Once task i's records are consumed,
    worker i mod workers gets a credit to start task i + 2 * workers, so
    at most 2 * workers tasks are started and not yet consumed, and a slow
    consumer holds at most that many finished subtrees.  A sweep starts no
    more workers than it has tasks, and runs serially with one.  A task's
    exception is raised here when its records are due; a worker that
    exits early raises ChildProcessError.
    """
    tasks = _sweep_tasks(n, start)
    workers = min(workers, len(tasks))
    if workers <= 1:
        yield from iter_exhaustive(n, start=start)
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
                    target=_serve, args=(child, tasks[w::workers], conns), daemon=True
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
            yield from answer
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
    ones = twos = 0
    for _, _, sp in iter_exhaustive_parallel(n, workers):
        ncyc = sum(sp.values())
        if ncyc == 1:
            ones += 1
        elif ncyc == 2:
            twos += 1
    return ones, twos


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
