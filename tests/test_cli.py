import json
import os

import pytest

from midlayer import suites
from midlayer.cli import main


def test_build_summary(capsys):
    assert main(["build", "--alpha", ",0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"n": 2, "alpha": ",0", "num_cycles": 1, "spectrum": {"20": 1}}


def test_build_full(capsys):
    assert main(["build", "--alpha", "", "--full"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cycles"] == [["100", "110", "010", "011", "001", "101"]]


def test_build_to_file(tmp_path, capsys):
    out = tmp_path / "tf.json"
    assert main(["build", "--alpha", ",1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["num_cycles"] == 2


def test_build_parse_error(capsys):
    assert main(["build", "--alpha", "10"]) == 2
    assert main(["build", "--alpha", "x"]) == 2


def test_build_io_error(tmp_path):
    assert main(["build", "--alpha", "", "--out", str(tmp_path / "no" / "tf.json")]) == 4


def test_table1(capsys):
    assert main(["table1", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "3          2          3" in out


def test_table1_gate(capsys):
    assert main(["table1", "--n", "7"]) == 2
    assert main(["table1", "--n", "8"]) == 2


def test_search_exhaustive(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    code = main([
        "search", "--n", "3", "--mode", "exhaustive",
        "--target", "1", "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 2


def test_targeted_search_requires_target(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    code = main([
        "search", "--n", "3", "--mode", "targeted", "--seed", "1", "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()


def test_search_rejects_negative_checkpoint(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    for extra in (
        ["--checkpoint", "-5"],
        ["--mode", "random", "--seed", "1", "--checkpoint", "-3", "--limit", "3"],
    ):
        assert main(["search", "--n", "3", "--out", str(out)] + extra) == 2
    assert not out.exists()


def test_search_requires_seed(capsys):
    assert main(["search", "--n", "3", "--mode", "random"]) == 2


def test_search_bad_target(capsys):
    assert main(["search", "--n", "3", "--target", "one"]) == 2


def test_verify_trees(capsys):
    assert main(["verify", "--n", "4", "--mode", "trees"]) == 0
    assert "ok" in capsys.readouterr().out
    assert main(["verify", "--n", "31", "--mode", "trees"]) == 2


def test_verify_parity(capsys):
    assert main(["verify", "--n", "3", "--mode", "parity"]) == 0


def test_verify_distinct(capsys):
    assert main(["verify", "--n", "3", "--mode", "distinct"]) == 0


def test_trees_command(capsys):
    assert main(["trees", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "14" in out and "3" in out and "1" in out
    assert main(["trees", "--n", "31"]) == 2


def test_search_rejects_level_zero(capsys):
    assert main(["search", "--n", "0"]) == 2


def test_verify_rejects_level_zero(capsys):
    assert main(["verify", "--n", "0", "--mode", "parity"]) == 2


def test_verify_rejects_zero_budget(capsys):
    assert main(["verify", "--n", "8", "--mode", "parity", "--budget", "0"]) == 2


def test_trees_rejects_zero_edges(capsys):
    assert main(["trees", "--n", "0"]) == 2


def test_table1_rejects_level_zero(capsys):
    assert main(["table1", "--n", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_search_rejects_workers_below_one(capsys):
    assert main(["search", "--n", "3", "--workers", "0"]) == 2
    assert main(["search", "--n", "3", "--workers", "-2"]) == 2


def test_table1_rejects_workers_below_one(capsys):
    assert main(["table1", "--n", "3", "--workers", "0"]) == 2
    assert main(["table1", "--n", "3", "--workers", "-2"]) == 2


def test_workers_above_cpu_count_exit_before_any_pool(monkeypatch, tmp_path, capsys):
    def no_worker(*args, **kwargs):
        raise AssertionError("a sweep worker was started")

    monkeypatch.setattr("midlayer.search.multiprocessing.Process", no_worker)
    too_many = str(os.cpu_count() + 1)
    assert main(["table1", "--n", "3", "--workers", too_many]) == 2
    assert capsys.readouterr().out == ""
    out = tmp_path / "r.jsonl"
    assert main(["search", "--n", "3", "--workers", too_many, "--out", str(out)]) == 2
    assert not out.exists()


def test_random_search_rejects_zero_limit(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    code = main([
        "search", "--n", "3", "--mode", "random", "--seed", "1",
        "--limit", "0", "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()


def test_targeted_search_rejects_zero_limit(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    code = main([
        "search", "--n", "3", "--mode", "targeted", "--seed", "1",
        "--target", "1", "--limit", "0", "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()


def test_targeted_search_rejects_zero_budget(capsys):
    code = main([
        "search", "--n", "3", "--mode", "targeted", "--seed", "1",
        "--target", "1", "--budget", "0",
    ])
    assert code == 2


@pytest.mark.deadline(20)
def test_table1_starts_one_pool(monkeypatch, capsys):
    # only the last level is swept, by one set of sweep workers
    import multiprocessing

    from midlayer.search import _serve

    started, real_process = [], multiprocessing.Process

    def counting_process(*args, **kwargs):
        started.append(kwargs["target"])
        return real_process(*args, **kwargs)

    assert main(["table1", "--n", "4"]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr("midlayer.search.os.cpu_count", lambda: 2)
    monkeypatch.setattr("midlayer.search.multiprocessing.Process", counting_process)
    assert main(["table1", "--n", "4", "--workers", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert started == [_serve, _serve]


def test_serial_search_modes_reject_workers(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("midlayer.search.os.cpu_count", lambda: 2)
    out = tmp_path / "r.jsonl"
    for extra in (["--mode", "random"], ["--mode", "targeted", "--target", "1"]):
        args = ["search", "--n", "3", "--seed", "1", "--workers", "2", "--out", str(out)]
        assert main(args + extra) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, ceiling", [("lemmas", 9), ("parity", 10), ("tau", 6), ("trees", 30)]
)
def test_verify_ceiling_exits_before_any_suite(monkeypatch, capsys, mode, ceiling):
    # every suite fails if called: exit 2 above the ceiling shows that no
    # work started, and the failure at the ceiling that n = ceiling passes
    def no_suite(*args, **kwargs):
        raise AssertionError("suite started")

    for name in ("suite_lattice", "suite_paths", "suite_parity", "suite_tau", "suite_trees"):
        monkeypatch.setattr(suites, name, no_suite)
    assert main(["verify", "--n", str(ceiling + 1), "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"n={ceiling}" in captured.err
    with pytest.raises(AssertionError, match="suite started"):
        main(["verify", "--n", str(ceiling), "--mode", mode])


def test_search_and_build_ceilings_exit_before_any_work(monkeypatch, capsys):
    # the engine fails if called: exit 2 above the ceiling shows that no
    # work started, and the failure at the ceiling that n = ceiling passes
    def no_engine(*args, **kwargs):
        raise AssertionError("engine started")

    monkeypatch.setattr("midlayer.search.state_for_prefix", no_engine)
    monkeypatch.setattr("midlayer.cli.build", no_engine)
    commands = [
        lambda n: ["search", "--n", str(n), "--mode", "random", "--seed", "1"],
        lambda n: [
            "search", "--n", str(n), "--mode", "targeted", "--seed", "1", "--target", "1",
        ],
        lambda n: ["build", "--alpha", ",".join("0" * i for i in range(n))],
    ]
    for command in commands:
        assert main(command(12)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "11" in captured.err
        with pytest.raises(AssertionError, match="engine started"):
            main(command(11))


def test_internal_errors_exit_3_from_every_command(monkeypatch, capsys):
    from midlayer.construct import ConstructionError

    def broken(*args, **kwargs):
        raise ConstructionError("injected")

    commands = [
        ["build", "--alpha", ",0,10"],
        ["table1", "--n", "3"],
        ["search", "--n", "3"],
    ] + [["verify", "--n", "3", "--mode", mode] for mode in ("lemmas", "tau", "parity", "distinct")]
    with monkeypatch.context() as patch:
        patch.setattr("midlayer.construct._successors", broken)
        for command in commands:
            assert main(command) == 3, command
            assert "internal error: injected" in capsys.readouterr().err, command

    def no_worker(*args, **kwargs):
        raise OSError("injected")

    monkeypatch.setattr("midlayer.search.os.cpu_count", lambda: 2)
    monkeypatch.setattr("midlayer.search.multiprocessing.Process", no_worker)
    # n=4 is the first level whose sweep has two tasks, so it starts workers
    assert main(["table1", "--n", "4", "--workers", "2"]) == 4
    assert "i/o error: injected" in capsys.readouterr().err


def test_table1_mismatch_exits_1(monkeypatch, capsys):
    from midlayer.search import TABLE1_EXPECTED

    monkeypatch.setitem(TABLE1_EXPECTED, 3, (2, 4))
    assert main(["table1", "--n", "3"]) == 1
    out = capsys.readouterr().out
    assert "3          2          3  MISMATCH expected (2, 4)" in out


def test_verify_failing_check_exits_1(monkeypatch, capsys):
    def failing(n):
        res = suites.SuiteResult("tau")
        res.add("injected", False, "detail")
        return res

    monkeypatch.setattr(suites, "suite_tau", failing)
    assert main(["verify", "--n", "3", "--mode", "tau"]) == 1
    out = capsys.readouterr().out
    assert "FAIL tau: injected detail" in out
    assert "suite tau: 1 checks, FAILED" in out


def test_trees_brute_force_mismatch_exits_1(monkeypatch, capsys):
    real = suites.rotation_classes

    def short(n):
        ts, classes = real(n)
        return ts, dict(list(classes.items())[1:])

    monkeypatch.setattr(suites, "rotation_classes", short)
    assert main(["trees", "--n", "5"]) == 1
    assert "MISMATCH: brute force found" in capsys.readouterr().out


def test_build_failing_verification_exits_3(monkeypatch, capsys):
    from midlayer import analysis

    def failing(tf):
        return analysis.VerificationReport(False, ["injected"])

    monkeypatch.setattr(analysis, "verify_two_factor", failing)
    assert main(["build", "--alpha", ",0,10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "internal error: injected" in captured.err


def test_search_parity_violation_exits_3(monkeypatch, tmp_path, capsys):
    from midlayer import search

    real = search.predicted_parity
    monkeypatch.setattr(search, "predicted_parity", lambda alpha, n: 1 - real(alpha, n))
    assert main(["search", "--n", "3", "--out", str(tmp_path / "r.jsonl")]) == 3
    assert "parity violation" in capsys.readouterr().err
