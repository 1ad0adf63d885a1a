"""Pinned digests of the engine's results.

Each digest is the sha256 of the repr of a result stream; the pinned
values were computed before the construct/analysis trim and must not
change with any refactor that keeps the results the same.
"""

import hashlib
from itertools import islice, product

from midlayer.cli import main
from midlayer.construct import build
from midlayer.search import iter_exhaustive, iter_random


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
}

BUILD_FULL = "0ef73d3ab2ba940930f8e67f35481e2ba59c82f4ee0afce5cc560b3bbd0a7faf"


def test_exhaustive_records():
    for n, expected in EXHAUSTIVE.items():
        assert digest(records(iter_exhaustive(n))) == expected, n


def test_built_cycles():
    seqs = (s for n in range(1, 5) for s in sequences(n))
    assert digest(build(s).cycles for s in seqs) == CYCLES


def test_random_records():
    for n, expected in RANDOM.items():
        assert digest(records(islice(iter_random(n, 1), 10))) == expected, n


def test_build_full_stdout(capsys):
    assert main(["build", "--alpha", ",0,10", "--full"]) == 0
    assert digest([capsys.readouterr().out]) == BUILD_FULL
