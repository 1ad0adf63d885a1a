"""Pinned digests of the engine's results.

Each digest is the sha256 of the repr of a result stream; the pinned
values were computed before the construct/analysis trim (the CLI ones
before the check/run split of the CLI) and must not change with any
refactor that keeps the results the same.
"""

import hashlib
import os
import re
from itertools import islice, product
from random import Random

import pytest

from midlayer.cli import main
from midlayer.construct import build, state_for_prefix
from midlayer.search import iter_exhaustive, iter_random, random_sequence


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def records(stream):
    return ((idx, seq, sorted(sp.items())) for idx, seq, sp in stream)


def sequences(n):
    return product(*[product((0, 1), repeat=level - 1) for level in range(1, n + 1)])


EXHAUSTIVE = {
    1: "230822df00efa29bcf8ead2d3fe9b04d8c629c7096be1870fea62834648f9876",
    2: "96f043aaa328bad8c34357bc339b463a23963185d6deddfdf7b7193503f6a735",
    3: "287bb0eae97a442234367ed7a20410b73d091e69309fc4f1116659dbd02767ea",
    4: "b4cb5b92c0c822fb408a30b1bbf3e32ce13fb02e83e4e8b1c5d6c6cc0368758d",
    5: "e49ad220d649c8e57e0fc67baf0449421281f2c13602d5f26ff28d1fb5ec3043",
}

CYCLES = "4042db472b023c900afb180e31fbe35e662ada7d8edb47809d1c387ea69363a0"

RANDOM = {
    6: "d38a8a5a1f3ec906cbadbcd8c2f81fcfedbb06929177c1bea66df25741e44870",
    7: "451c41555eeb536b5d5cac3f06a0ae373653f3b043f0c227b30e8a9f1b7ed2ab",
    8: "df0b93c16bff93ab22c43a640a7b92d10bfd9e17d2dcf13b9c25fa27f825155c",
    # computed before the level step kept last vertices instead of triples
    9: "bfd5404d1e9b6af3efedfa7b73cb87512dadedfa800ec344f81a29e9553d0774",
}

# build(s).cycles of 20 sequences drawn with random_sequence(Random(n), n),
# computed before the full paths became one flat list per family
CYCLES_SAMPLED = {
    5: "775f9510f7632fa0fbb25ca5ec64af715ef11bf50e691b1769fcef2df637f21c",
    6: "c1833045ab23603f6835504cb1c711bd2e2cff3c09a5d349464ef8269bde832b",
    7: "f17b2cd1a471730c7605e754bdb252d9bd4da9627fc7db6220a433cc651adf06",
    8: "11626971d2c5f0e5347c1904cb29ebadb5076f23b7c7ca0d6ae36b3e7c08748b",
}

# state_for_prefix(p).families of 5 prefixes of length level - 1 drawn with
# random_sequence(Random(level), level - 1), computed at the same point
FAMILIES_SAMPLED = {
    5: "001577c4fac9fd80a11d84da464921f1218a39c5656d509c0b50670f19027fd8",
    6: "7f75c676ce25edeae3da390c647f9c9c3a356b106feef52ff35a3969d1556501",
    7: "b5d4f71e99031052c2bb0909add9faa825e4594a8622c5a9e02f4bce86eaea36",
}

BUILD_FULL = "0ef73d3ab2ba940930f8e67f35481e2ba59c82f4ee0afce5cc560b3bbd0a7faf"


def test_exhaustive_records():
    for n, expected in EXHAUSTIVE.items():
        assert digest(records(iter_exhaustive(n))) == expected, n


def test_built_cycles():
    seqs = (s for n in range(1, 5) for s in sequences(n))
    assert digest(build(s).cycles for s in seqs) == CYCLES


def test_built_cycles_sampled():
    for n, expected in CYCLES_SAMPLED.items():
        rng = Random(n)
        seqs = [random_sequence(rng, n) for _ in range(20)]
        assert digest(build(s).cycles for s in seqs) == expected, n


def test_state_families_sampled():
    for level, expected in FAMILIES_SAMPLED.items():
        rng = Random(level)
        prefixes = [random_sequence(rng, level - 1) for _ in range(5)]
        assert digest(state_for_prefix(p).families for p in prefixes) == expected, level


def test_random_records():
    for n, expected in RANDOM.items():
        assert digest(records(islice(iter_random(n, 1), 10))) == expected, n


def test_build_full_stdout(capsys):
    assert main(["build", "--alpha", ",0,10", "--full"]) == 0
    assert digest([capsys.readouterr().out]) == BUILD_FULL


# --- the command-line front end ---------------------------------------------
#
# Each invocation pins its exit code, the sha256 of its output and the last
# line of its stderr.  The output is stdout, followed by the --out file when
# the run left one; record wall_ms values are dropped and the temporary
# directory reads {tmp}.  Help text is laid out by the argparse of the
# Python in use at 80 columns; the pins were computed with Python 3.11.

EMPTY = digest([""])
VECTORS_12 = ",".join("0" * i for i in range(12))

CLI = {
    "build": (
        ["build", "--alpha", ",0,10"],
        0, "c10a966477f975cb71e845dda1acce9276ee17a5cac174bbf06907e161a8f412", "",
    ),
    "build-full": (
        ["build", "--alpha", ",0,10", "--full"],
        0, "0ef73d3ab2ba940930f8e67f35481e2ba59c82f4ee0afce5cc560b3bbd0a7faf", "",
    ),
    "build-out": (
        ["build", "--alpha", ",1", "--out", "{tmp}/tf.json"],
        0, "588c973e341dcda32b35be3f318c9894186093b2b59160de4713b26a9ef4c52c", "",
    ),
    "build-bad-vector": (
        ["build", "--alpha", "10"],
        2, EMPTY, "error: alpha vector 1 has length 2, expected 0",
    ),
    "build-bad-text": (
        ["build", "--alpha", "x"],
        2, EMPTY, "error: not an alpha vector: 'x'",
    ),
    "build-out-missing-dir": (
        ["build", "--alpha", "", "--out", "{tmp}/no/tf.json"],
        4, EMPTY, "i/o error: [Errno 2] No such file or directory: '{tmp}/no/tf.json'",
    ),
    "build-12-vectors": (
        ["build", "--alpha", VECTORS_12],
        2, EMPTY, "error: build runs only through n=11, got 12",
    ),
    "build-no-alpha": (
        ["build"],
        2, EMPTY, "midlayer build: error: the following arguments are required: --alpha",
    ),
    "table1": (
        ["table1", "--n", "5"],
        0, "405aea4d4c4fcd3322c7039af959a306fba7635ccd35065723f0bb5afbbe683f", "",
    ),
    "table1-workers-2": (
        ["table1", "--n", "5", "--workers", "2"],
        0, "405aea4d4c4fcd3322c7039af959a306fba7635ccd35065723f0bb5afbbe683f", "",
    ),
    "table1-n0": (
        ["table1", "--n", "0"],
        2, EMPTY, "error: n must be at least 1, got 0",
    ),
    "table1-n7": (
        ["table1", "--n", "7"],
        2, EMPTY, "error: the n=7 sweep evaluates 2097152 sequences; pass --include-7",
    ),
    "table1-n8": (
        ["table1", "--n", "8"],
        2, EMPTY, "error: exhaustive search limited to n <= 7",
    ),
    "table1-workers-0": (
        ["table1", "--n", "3", "--workers", "0"],
        2, EMPTY, "error: workers must be at least 1, got 0",
    ),
    "table1-workers-3": (
        ["table1", "--n", "3", "--workers", "3"],
        2, EMPTY, "error: workers must be at most the CPU count 2, got 3",
    ),
    "search-exhaustive": (
        ["search", "--n", "4", "--target", "1", "--out", "{tmp}/r.jsonl"],
        0, "9959d7d878fe02163ef02c679bded45b689d74d04fa72ae0e6fca232255cfe28", "",
    ),
    "search-exhaustive-workers-2": (
        ["search", "--n", "4", "--workers", "2", "--checkpoint", "5", "--out", "{tmp}/r.jsonl"],
        0, "6b5e7118cda422bb185ace9a0e8709c659270b947a6f4cc96eb1b73371c7522d", "",
    ),
    "search-random": (
        [
            "search", "--n", "5", "--mode", "random", "--seed", "1", "--limit", "5", "--out",
            "{tmp}/r.jsonl",
        ],
        0, "0844b9bf3558e79a83f8304577c1fc154768ee20098056857b9c7acd6d2ce775", "",
    ),
    "search-targeted": (
        [
            "search", "--n", "5", "--mode", "targeted", "--seed", "3", "--target", "1,2",
            "--limit", "3", "--out", "{tmp}/r.jsonl",
        ],
        0, "cb04fd82a0da61f5a29ca10c44671c2a402e7a256b70c7ecb8d45f5ba5bd6783", "",
    ),
    "search-n0": (
        ["search", "--n", "0"],
        2, EMPTY, "error: n must be at least 1, got 0",
    ),
    "search-exhaustive-n8": (
        ["search", "--n", "8"],
        2, EMPTY, "error: exhaustive search limited to n <= 7",
    ),
    "search-random-n12": (
        ["search", "--n", "12", "--mode", "random", "--seed", "1"],
        2, EMPTY, "error: random search limited to n <= 11",
    ),
    "search-workers-0": (
        ["search", "--n", "3", "--workers", "0"],
        2, EMPTY, "error: workers must be at least 1, got 0",
    ),
    "search-workers-3": (
        ["search", "--n", "3", "--workers", "3", "--out", "{tmp}/r.jsonl"],
        2, EMPTY, "error: workers must be at most the CPU count 2, got 3",
    ),
    "search-random-workers-2": (
        ["search", "--n", "3", "--mode", "random", "--seed", "1", "--workers", "2"],
        2, EMPTY, "error: random mode runs serially; workers must be 1",
    ),
    "search-random-no-seed": (
        ["search", "--n", "3", "--mode", "random"],
        2, EMPTY, "error: random mode requires a seed",
    ),
    "search-targeted-no-target": (
        ["search", "--n", "3", "--mode", "targeted", "--seed", "1"],
        2, EMPTY, "error: targeted mode requires target counts",
    ),
    "search-bad-target": (
        ["search", "--n", "3", "--target", "one"],
        2, EMPTY, "error: bad target list 'one'",
    ),
    "search-checkpoint-negative": (
        ["search", "--n", "3", "--checkpoint", "-1", "--out", "{tmp}/r.jsonl"],
        2, EMPTY, "error: checkpoint must be at least 0, got -1",
    ),
    "search-limit-0": (
        ["search", "--n", "3", "--mode", "random", "--seed", "1", "--limit", "0"],
        2, EMPTY, "error: limit must be at least 1, got 0",
    ),
    "search-budget-0": (
        [
            "search", "--n", "3", "--mode", "targeted", "--seed", "1", "--target", "1", "--budget",
            "0",
        ],
        2, EMPTY, "error: budget must be at least 1, got 0",
    ),
    "search-bad-mode": (
        ["search", "--n", "3", "--mode", "sideways"],
        2, EMPTY,
        "midlayer search: error: argument --mode: invalid choice: 'sideways' "
        "(choose from 'exhaustive', 'random', 'targeted')",
    ),
    "verify-lemmas": (
        ["verify", "--n", "3", "--mode", "lemmas"],
        0, "9677eec3bac2530a9cd5e1cd8b245a07e6b76c75c413caa2f64bf2a173e457da", "",
    ),
    "verify-trees": (
        ["verify", "--n", "3", "--mode", "trees"],
        0, "ff862a2055440202e5b52e08602858fbdda45a502c0df8d836e647c50cb0740d", "",
    ),
    "verify-parity": (
        ["verify", "--n", "3", "--mode", "parity"],
        0, "7785e8fb5c02424a755fc7007fe95d40b2e850c5171fa5319e8ba73bf7a1ae57", "",
    ),
    "verify-tau": (
        ["verify", "--n", "3", "--mode", "tau"],
        0, "9d30940d6d5dbcd6051688ff1bc5f155e6065a684a67088bc7efe4bd2efbe9e0", "",
    ),
    "verify-distinct": (
        ["verify", "--n", "3", "--mode", "distinct"],
        0, "0e1f98dc538756ae272ec6ed3243cdd6b5d561549808fa9fe00d42c623e4d220", "",
    ),
    "verify-lemmas-10": (
        ["verify", "--n", "10", "--mode", "lemmas"],
        2, EMPTY, "error: --mode lemmas runs only through n=9, got 10",
    ),
    "verify-parity-11": (
        ["verify", "--n", "11", "--mode", "parity"],
        2, EMPTY, "error: --mode parity runs only through n=10, got 11",
    ),
    "verify-tau-7": (
        ["verify", "--n", "7", "--mode", "tau"],
        2, EMPTY, "error: --mode tau runs only through n=6, got 7",
    ),
    "verify-trees-31": (
        ["verify", "--n", "31", "--mode", "trees"],
        2, EMPTY, "error: --mode trees runs only through n=30, got 31",
    ),
    "verify-n0": (
        ["verify", "--n", "0", "--mode", "parity"],
        2, EMPTY, "error: --n must be at least 1, got 0",
    ),
    "verify-budget-0": (
        ["verify", "--n", "8", "--mode", "parity", "--budget", "0"],
        2, EMPTY, "error: --budget must be at least 1, got 0",
    ),
    "trees-7": (
        ["trees", "--n", "7"],
        0, "581b40b1f57ea1a4157f0f2d2fc0766d1983e0b4724780298cf4a9ec3349d75f", "",
    ),
    "trees-0": (
        ["trees", "--n", "0"],
        2, EMPTY, "error: --n must be at least 1, got 0",
    ),
    "trees-31": (
        ["trees", "--n", "31"],
        2, EMPTY, "error: counts are exact only through n=30",
    ),
    "help": (
        ["--help"],
        0, "e9cd810a4ad3b36dd172a4dba86339ec8d1688d5eb0d3a80ddbab442fb9da8f2", "",
    ),
    "help-build": (
        ["build", "--help"],
        0, "f22105bc54ab53bfa7b05cc80b2aec25a8ba8300ca51c6f5bdb8d5aefc592a90", "",
    ),
    "help-table1": (
        ["table1", "--help"],
        0, "fcd86fbee84992ba5d612648ff6917f87ea0305f89af34abe3a54883a9940c7f", "",
    ),
    "help-search": (
        ["search", "--help"],
        0, "3d1acc7b4c53f57a8212b5ef982eab4cac4e835ebcbc09c67d075948a252987d", "",
    ),
    "help-verify": (
        ["verify", "--help"],
        0, "a5a2d41adefe9d31b600fdfa8772692146718b0045179529e37a07986abf1d74", "",
    ),
    "help-trees": (
        ["trees", "--help"],
        0, "1f3a552f5201d1b5cceb7ce93a02b78629222406ca260dd03f85c909f7b010c7", "",
    ),
}


def observe(argv, tmp, monkeypatch, capsys):
    monkeypatch.setattr("midlayer.search.os.cpu_count", lambda: 2)
    monkeypatch.setenv("COLUMNS", "80")
    argv = [a.replace("{tmp}", str(tmp)) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    text = captured.out
    out_path = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out_path is not None and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            text += "--out--\n" + fh.read()
    text = re.sub(r', "wall_ms": [0-9.e-]+', "", text).replace(str(tmp), "{tmp}")
    err = captured.err.replace(str(tmp), "{tmp}").strip().splitlines()
    return code, digest([text]), err[-1] if err else ""


# the workers-2 cases start sweep workers
@pytest.mark.deadline(60)
@pytest.mark.parametrize("case", sorted(CLI))
def test_cli_invocation(case, tmp_path, monkeypatch, capsys):
    argv, code, out_digest, err_tail = CLI[case]
    assert observe(argv, tmp_path, monkeypatch, capsys) == (code, out_digest, err_tail)
