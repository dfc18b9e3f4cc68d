"""The dense-kernel ledger: the n^2 x n^2 kernels each CLI call makes.

Every subcommand, and each ``verify`` check alone, runs through ``cli.main``
at n = 8 on the benchmark corpus's unital generators of rank 2, where the
projected Choi matrix's rank is certified from its pivoted Cholesky factor,
and of rank 63, where the factor declines: ``eigh`` decides for a basis, one
shifted ``cholesky`` for ``index``.  ``analyze`` and ``index`` also run at
rank 16 = n^2 / 4, where both certificates decline and ``index`` reads the
one ``eigh`` that a basis reads, and on a map that is not CCP, whose verdict
is ``eigvalsh``'s and whose witness one ``solve`` finds.  The library's
witness search, which no CLI call makes, has rows of its own at n = 6.  A
full ``verify`` hands its checks one ``Flow`` of L: ``product_system``'s two
pairs share exp(1.0 L) and ``units`` reads its exp(0.5 L), so it makes 7
``expm``, one fewer than its checks alone.  Two certified full-rank Choi
matrices settle ``product_system``'s spans with no ranks, so each of its pairs
makes 2 ``cholesky``, not 3 ``eigvalsh``.  The counts are exact; a change
that adds or removes a kernel updates this table.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from conftest import bench_corpus

import cpsemi.cli as cli
from cpsemi.symbols import block_positivity_witness

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_rows.py"
_spec = importlib.util.spec_from_file_location("bench_rows", _TOOL)
bench_rows = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_rows)

N = 8
# (rank, call): counts in the order of numerics.KERNELS, (eigh, eigvalsh,
# cholesky, qr, solve, expm)
LEDGER = {
    (2, "analyze"): (0, 0, 0, 0, 0, 0),
    (2, "decompose"): (0, 0, 0, 0, 0, 0),
    (2, "index"): (0, 0, 0, 0, 0, 0),
    (2, "covariance"): (1, 0, 0, 0, 0, 1),
    (2, "verify"): (0, 0, 15, 0, 0, 7),
    (2, "verify product_system"): (0, 0, 4, 0, 0, 4),
    (2, "verify domination"): (0, 0, 5, 0, 0, 2),
    (2, "verify gauge"): (0, 0, 0, 0, 0, 0),
    (2, "verify units"): (0, 0, 6, 0, 0, 2),
    (2, "verify covariance"): (0, 0, 0, 0, 0, 0),
    (16, "analyze"): (1, 0, 0, 0, 0, 0),
    (16, "index"): (1, 0, 1, 0, 0, 0),
    (63, "analyze"): (1, 0, 0, 0, 0, 0),
    (63, "decompose"): (1, 0, 0, 0, 0, 0),
    (63, "index"): (0, 0, 1, 0, 0, 0),
    (63, "covariance"): (2, 0, 0, 0, 0, 1),
    (63, "verify"): (1, 1, 15, 0, 0, 7),
    (63, "verify product_system"): (1, 0, 4, 0, 0, 4),
    (63, "verify domination"): (1, 0, 5, 0, 0, 2),
    (63, "verify gauge"): (1, 0, 0, 0, 0, 0),
    (63, "verify units"): (1, 0, 6, 0, 0, 2),
    (63, "verify covariance"): (1, 1, 0, 0, 0, 0),
}
# call: counts on make_non_ccp of the rank-2 generator, which exits 2
LEDGER_NOT_CCP = {
    "analyze": (0, 1, 0, 0, 1, 0),
    "index": (0, 1, 0, 0, 1, 0),
}


# map: counts of block_positivity_witness(mat, 50, seed=7) at n = 6, the
# corpus's make_generator(default_rng(7), 6, 6, False) and
# make_hp_map(default_rng(7), 6).  The 50 drawn tuples are decided at the side
# n, which the ledger does not count; a generator passes them all, and eigh
# of its projected Choi matrix gives the defect direction.
WITNESS_N = 6
LEDGER_WITNESS = {
    "generator": (1, 0, 0, 0, 0, 0),
    "hp map": (0, 0, 0, 0, 0, 0),
}


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    corpus = bench_corpus()
    tmp = tmp_path_factory.mktemp("ledger")
    files = {}
    for rank in (2, 16, 63):
        gen = corpus.make_generator(np.random.default_rng(7), N, rank, True)
        pair = corpus.make_unit_pair(np.random.default_rng(7), rank)
        files[rank] = (
            corpus.write_json(str(tmp / f"r{rank}.json"), corpus.spec_superop(gen.mat)),
            corpus.write_json(str(tmp / f"u{rank}.json"), pair.to_json()),
        )
        if rank == 2:
            bad = corpus.make_non_ccp(np.random.default_rng(7), gen.mat)
            files["not ccp"] = corpus.write_json(str(tmp / "bad.json"), corpus.spec_superop(bad))
    return files, str(tmp / "report.json")


@pytest.mark.parametrize("rank, call", sorted(LEDGER))
def test_each_call_makes_the_ledgers_kernels(specs, rank, call):
    files, out = specs
    spec, units = files[rank]
    command, _, check = call.partition(" ")
    argv = [command, "--input", spec, "--output", out]
    if command == "covariance":
        argv += ["--units", units]
    if check:
        argv += ["--checks", check]
    with bench_rows.kernel_ledger(N * N) as counts:
        assert cli.main(argv) == 0
    assert tuple(counts.values()) == LEDGER[rank, call]


@pytest.mark.parametrize("command", sorted(LEDGER_NOT_CCP))
def test_a_map_that_is_not_ccp_makes_the_ledgers_kernels(specs, command):
    files, out = specs
    with bench_rows.kernel_ledger(N * N) as counts:
        assert cli.main([command, "--input", files["not ccp"], "--output", out]) == 2
    assert tuple(counts.values()) == LEDGER_NOT_CCP[command]


@pytest.mark.parametrize("kind", sorted(LEDGER_WITNESS))
def test_the_witness_search_makes_the_ledgers_kernels(kind):
    corpus, rng = bench_corpus(), np.random.default_rng(7)
    if kind == "generator":
        mat = corpus.make_generator(rng, WITNESS_N, WITNESS_N, False).mat
    else:
        mat = corpus.make_hp_map(rng, WITNESS_N)
    with bench_rows.kernel_ledger(WITNESS_N * WITNESS_N) as counts:
        found = block_positivity_witness(mat, 50, seed=7)
    if kind == "generator":
        assert found is None
    else:
        assert len(found[0]) == 3  # a drawn tuple; the defect tuple has length n
    assert tuple(counts.values()) == LEDGER_WITNESS[kind]


def test_the_ledger_counts_a_stack_by_its_matrices():
    real = np.linalg.eigh
    with bench_rows.kernel_ledger(4) as counts:
        np.linalg.eigvalsh(np.eye(4)[None].repeat(3, axis=0))
        np.linalg.eigh(np.eye(3))  # below the side: not counted
    assert counts["eigvalsh"] == 3 and counts["eigh"] == 0
    assert np.linalg.eigh is real
