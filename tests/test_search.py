import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from functools import partial
from types import SimpleNamespace

import pytest

from midlayer import search
from midlayer.cli import main
from midlayer.construct import ConstructionError
from midlayer.search import (
    TABLE1_EXPECTED,
    SearchJob,
    _sweep_tasks,
    _worker_sweep,
    all_sequences,
    alpha_vectors,
    iter_exhaustive,
    iter_exhaustive_parallel,
    iter_random,
    num_sequences,
    run_search,
    table1_counts,
)


def test_alpha_vectors():
    assert alpha_vectors(1) == ((),)
    assert alpha_vectors(2) == ((0,), (1,))
    assert alpha_vectors(3) == ((0, 0), (1, 0), (0, 1), (1, 1))


def test_num_sequences():
    assert [num_sequences(n) for n in range(1, 6)] == [1, 2, 8, 64, 1024]


def test_exhaustive_order_and_coverage():
    recs = list(iter_exhaustive(3))
    assert [idx for idx, _, _ in recs] == list(range(8))
    assert [s for _, s, _ in recs] == all_sequences(3)
    assert len({s for _, s, _ in recs}) == 8
    for _, s, _ in recs:
        assert tuple(len(a) for a in s) == (0, 1, 2)


def test_exhaustive_resume_matches_full_run():
    full = list(iter_exhaustive(4))
    for start in (0, 1, 13, 40, 63, 64):
        assert list(iter_exhaustive(4, start=start)) == full[start:]


@pytest.mark.deadline(20)
def test_parallel_stream_equals_serial():
    # n=5 has 8 tasks of 128 records: starts at the first record, inside
    # the first task, inside a later one and at the last record
    serial = list(iter_exhaustive(5))
    for workers in (2, 3):
        for start in (0, 1, 300, 1023):
            got = list(iter_exhaustive_parallel(5, workers, start=start))
            assert got == serial[start:]


@pytest.mark.deadline(20)
def test_parallel_sweep_starts_no_worker_without_a_task(monkeypatch):
    # n=3 has one task, and start=32 leaves n=4 one and start=64 none:
    # each sweep runs serially
    started, real_process = [], multiprocessing.Process

    def counting_process(*args, **kwargs):
        started.append(kwargs["target"])
        return real_process(*args, **kwargs)

    monkeypatch.setattr(search.multiprocessing, "Process", counting_process)
    assert list(iter_exhaustive_parallel(3, 2)) == list(iter_exhaustive(3))
    for start in (32, 64):
        assert list(iter_exhaustive_parallel(4, 2, start=start)) == list(
            iter_exhaustive(4, start=start)
        )
    assert started == []


def test_random_stream_is_seed_deterministic():
    a = [rec for _, rec in zip(range(20), iter_random(4, seed=5))]
    b = [rec for _, rec in zip(range(20), iter_random(4, seed=5))]
    c = [rec for _, rec in zip(range(20), iter_random(4, seed=6))]
    assert a == b
    assert a != c


def test_random_resume():
    full = [rec for _, rec in zip(range(30), iter_random(4, seed=5))]
    tail = [rec for _, rec in zip(range(20), iter_random(4, seed=5, start=10))]
    assert tail == full[10:]


def test_job_validation():
    with pytest.raises(ValueError):
        SearchJob(n=8, mode="exhaustive")
    with pytest.raises(ValueError):
        SearchJob(n=4, mode="random")
    with pytest.raises(ValueError):
        SearchJob(n=4, mode="bogus", seed=1)
    with pytest.raises(ValueError):
        SearchJob(n=4, workers=os.cpu_count() + 1)
    with pytest.raises(ValueError):
        SearchJob(n=4, mode="random", seed=1, workers=2)


def test_table1_counts_small():
    for n in range(1, 5):
        assert table1_counts(n) == TABLE1_EXPECTED[n]


def test_run_search_exhaustive_targeted(tmp_path):
    out = tmp_path / "hits.jsonl"
    job = SearchJob(n=3, mode="exhaustive", target_counts=frozenset({1}))
    summary = run_search(job, out_path=out)
    assert summary.evaluated == 8
    assert summary.hits == 2
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert {l["alpha"] for l in lines} == {",0,10", ",0,01"}
    for l in lines:
        assert set(l) == {"index", "alpha", "num_cycles", "spectrum", "wall_ms"}
        assert l["num_cycles"] == 1


def test_wall_ms_counts_from_the_previous_evaluated_record(tmp_path, monkeypatch):
    # a clock that advances 1 ms per evaluated sequence: unlogged
    # evaluations between two hits must not add to the later hit's wall_ms
    clock = [0.0]
    records = search.iter_exhaustive_parallel

    def stream(*args, **kwargs):
        for record in records(*args, **kwargs):
            clock[0] += 0.001
            yield record

    monkeypatch.setattr(search, "iter_exhaustive_parallel", stream)
    monkeypatch.setattr(search, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    out = tmp_path / "hits.jsonl"
    summary = run_search(SearchJob(n=4, target_counts=frozenset({1})), out_path=out)
    assert summary.evaluated > summary.written == 6
    assert [json.loads(l)["wall_ms"] for l in out.read_text().splitlines()] == [1.0] * 6


def test_run_search_appends(tmp_path):
    out = tmp_path / "r.jsonl"
    job = SearchJob(n=2, mode="exhaustive")
    run_search(job, out_path=out)
    run_search(job, out_path=out)
    assert len(out.read_text().splitlines()) == 4


def test_run_search_random_limit(tmp_path):
    out = tmp_path / "r.jsonl"
    job = SearchJob(n=3, mode="random", seed=1, limit=25)
    summary = run_search(job, out_path=out)
    assert summary.evaluated == 25
    assert len(out.read_text().splitlines()) == 25


def test_run_search_targeted_stops_at_limit(tmp_path):
    out = tmp_path / "r.jsonl"
    job = SearchJob(
        n=4, mode="targeted", seed=2, target_counts=frozenset({1, 2}), limit=3
    )
    summary = run_search(job, out_path=out)
    assert summary.hits == 3
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(records) == 3
    assert all(r["num_cycles"] in (1, 2) for r in records)


@pytest.mark.deadline(20)
def test_run_search_exhaustive_stops_at_limit(tmp_path):
    # the sweep workers are stopped as soon as the limit is reached
    out = tmp_path / "r.jsonl"
    job = SearchJob(
        n=5, mode="exhaustive", target_counts=frozenset({1}), limit=3, workers=2
    )
    summary = run_search(job, out_path=out)
    assert summary.written == summary.hits == 3
    assert summary.evaluated < num_sequences(5)
    assert [json.loads(l)["num_cycles"] for l in out.read_text().splitlines()] == [1] * 3
    assert multiprocessing.active_children() == []


def test_run_search_random_stops_at_budget():
    job = SearchJob(n=3, mode="random", seed=1, limit=50, budget=20)
    summary = run_search(job)
    assert summary.evaluated == summary.written == 20


def test_run_search_targeted_budget_bound():
    # a target that parity rules out: the run must stop at the budget
    job = SearchJob(
        n=3, mode="targeted", seed=2, target_counts=frozenset({17}),
        limit=1, budget=40,
    )
    summary = run_search(job)
    assert summary.evaluated == 40
    assert summary.hits == 0


def test_checkpoint_resume_record_stream(tmp_path):
    full = tmp_path / "full.jsonl"
    run_search(SearchJob(n=4, mode="exhaustive"), out_path=full)
    split = tmp_path / "split.jsonl"
    # emulate an interruption after index 20 by resuming from 21
    head = full.read_text().splitlines()
    cut = [l for l in head if json.loads(l)["index"] <= 20]
    split.write_text("\n".join(cut) + "\n")
    run_search(SearchJob(n=4, mode="exhaustive", checkpoint=21), out_path=split)

    def strip(lines):
        return [
            {k: v for k, v in json.loads(l).items() if k != "wall_ms"}
            for l in lines
        ]

    assert strip(split.read_text().splitlines()) == strip(head)


def test_parallel_tasks_are_bounded():
    # one task per level-(n-1) state
    for n in range(1, 6):
        serial = list(iter_exhaustive(n))
        total = len(serial)
        for start in sorted({0, 1, total // 3, total - 1}):
            chunks = [_worker_sweep(task) for task in _sweep_tasks(n, start)]
            assert [rec for chunk in chunks for rec in chunk] == serial[start:]
            assert max(map(len, chunks), default=0) <= max(2 ** (2 * n - 3), 1)
    # at n=7: 1024 subtrees of 2048 sequences, read from the tasks alone
    tasks = _sweep_tasks(7)
    assert len(tasks) == 1024
    assert [base for _, _, base, _ in tasks] == [i * 2048 for i in range(1024)]
    assert [prefix for _, prefix, _, _ in tasks] == all_sequences(5)


def _logged_sweep(log, task):
    records = _worker_sweep(task)
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(f"{task[2]}\n")
    return records


@pytest.mark.deadline(20)
def test_parallel_stream_bounds_tasks_in_flight(tmp_path, monkeypatch):
    # a consumer that stalls after one record leaves at most 2 * workers
    # tasks submitted and not yet consumed, so at most that many finish
    # during the stall; order and coverage survive the refills
    log = tmp_path / "finished"
    log.touch()
    monkeypatch.setattr(search, "_worker_sweep", partial(_logged_sweep, str(log)))
    stream = iter_exhaustive_parallel(6, 2)
    first = next(stream)
    time.sleep(1.5)
    finished = len(log.read_text().splitlines())
    assert 1 <= finished <= 4
    assert [first, *stream] == list(iter_exhaustive(6))


@pytest.mark.deadline(60)
def test_answers_larger_than_half_the_socket_buffer():
    # an n=7 task's answer pickles to 170-180 KB, more than half the
    # 212,992-byte default socket buffer, so a worker's two answers in
    # flight do not both fit in its pipe; from 5 records before the last
    # three tasks
    start = 2**21 - 3 * 2048 - 5
    got = list(iter_exhaustive_parallel(7, 2, start=start))
    assert got == list(iter_exhaustive(7, start=start))
    assert multiprocessing.active_children() == []


@pytest.mark.deadline(20)
def test_sweep_workers_stop_at_normal_end_and_early_close():
    assert list(iter_exhaustive_parallel(4, 2)) == list(iter_exhaustive(4))
    assert multiprocessing.active_children() == []
    stream = iter_exhaustive_parallel(4, 2)
    assert next(stream) == next(iter_exhaustive(4))
    stream.close()
    assert multiprocessing.active_children() == []


@pytest.mark.deadline(20)
def test_worker_construction_error_exits_3(monkeypatch, capsys):
    # all engine work of `search --n 4` runs in the workers: the error is
    # raised in one, sent back through its pipe and raised in the parent
    def broken(*args, **kwargs):
        raise ConstructionError(f"injected in process {os.getpid()}")

    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    monkeypatch.setattr("midlayer.construct._successors", broken)
    assert main(["search", "--n", "4", "--workers", "2"]) == 3
    err = capsys.readouterr().err
    assert "internal error: injected in process" in err
    assert f"injected in process {os.getpid()}" not in err
    assert multiprocessing.active_children() == []


ORPHANING_PARENT = """
import multiprocessing, os, time
from midlayer.search import iter_exhaustive_parallel

stream = iter_exhaustive_parallel(7, 2)
next(stream)
time.sleep(1.5)
print(*(proc.pid for proc in multiprocessing.active_children()), flush=True)
os._exit(0)
"""


@pytest.mark.deadline(30)
def test_sweep_workers_exit_when_the_parent_dies():
    # the parent exits without cleanup after one record, when one worker
    # waits for a credit and the other is blocked sending its second n=7
    # answer; run returns once every worker has closed the stderr it
    # inherited, and a worker that sees its pipe close prints nothing
    try:
        done = subprocess.run(
            [sys.executable, "-c", ORPHANING_PARENT], capture_output=True, timeout=20
        )
    except subprocess.TimeoutExpired as exc:
        for pid in (exc.stdout or b"").split():
            try:
                os.kill(int(pid), signal.SIGKILL)
            except ProcessLookupError:
                pass
        raise
    assert done.returncode == 0
    assert len(done.stdout.split()) == 2
    assert done.stderr == b""


def _dying_sweep(task):
    if task[2]:  # every task but the first
        os._exit(7)
    return _worker_sweep(task)


@pytest.mark.deadline(20)
def test_worker_death_raises_child_process_error(monkeypatch, capsys):
    # n=4 has two tasks of 32 records, one per worker; the second worker
    # exits mid-sweep, so the stream yields exactly the first task
    monkeypatch.setattr(search, "_worker_sweep", _dying_sweep)
    serial = list(iter_exhaustive(4))
    got = []
    with pytest.raises(ChildProcessError, match="exited with code 7"):
        for record in iter_exhaustive_parallel(4, 2):
            got.append(record)
    assert got == serial[:32]
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    assert main(["search", "--n", "4", "--workers", "2"]) == 4
    assert "i/o error: sweep worker" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_n7_task_is_one_level_6_subtree():
    task = _sweep_tasks(7)[517]
    _, prefix, base, _ = task
    records = _worker_sweep(task)
    assert [idx for idx, _, _ in records] == list(range(base, base + 2048))
    assert all(seq[:5] == prefix for _, seq, _ in records)


def test_job_rejects_sizes_below_one():
    for kwargs in (
        dict(n=0),
        dict(n=-1),
        dict(n=3, workers=0),
        dict(n=3, workers=-2),
        dict(n=3, mode="random", seed=1, limit=0),
        dict(n=3, mode="targeted", seed=1, target_counts=frozenset({1}), limit=0),
        dict(n=3, mode="targeted", seed=1, target_counts=frozenset({1}), budget=0),
        dict(n=3, checkpoint=-1),
    ):
        with pytest.raises(ValueError):
            SearchJob(**kwargs)
