"""Defects the library still has, each pinned as a strict xfail.

Each test asserts the right answer and fails today with the error its mark
names.  A change that mends the defect turns the test into an XPASS, which
fails the suite because the mark is strict: that change removes the mark and
keeps the test.  Nobody deletes one of these tests.
"""

import json

import numpy as np
import pytest
from conftest import (
    bench_corpus,
    dephasing_generator,
    random_ccp_generator,
    random_hermitian,
    random_hp_map,
)

from cpsemi import Flow, NotCCP, NotMember
from cpsemi.cli import main
from cpsemi.generator import decompose, hamiltonian_lindblad
from cpsemi.semigroup import covariance_estimate, sample_units
from cpsemi.symbols import is_conditionally_cp, rank


def _superop_spec(path, mat):
    corpus = bench_corpus()
    return corpus.write_json(str(path), corpus.spec_superop(mat))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the floor of 1 in numerics.anchor cuts a tiny L's rank to 0")
@pytest.mark.parametrize("s", [1e-12, 1e-10])
def test_the_rank_of_a_scaled_generator_is_its_rank(s):
    assert rank(s * random_ccp_generator(np.random.default_rng(1), 3, m=2)) == 2


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the floor of 1 in numerics.anchor passes a tiny non-CCP map")
def test_a_scaled_map_that_is_not_ccp_is_not_ccp():
    assert not is_conditionally_cp(1e-10 * random_hp_map(np.random.default_rng(2), 3))


@pytest.mark.xfail(strict=True, raises=NotCCP,
                   reason="ROADMAP item 1: at 1e10 (1e8 passes) the rounding of i[h, .] reads as a CCP defect")
@pytest.mark.parametrize("n", [4, 8])
def test_a_large_hamiltonian_term_leaves_a_generator_ccp(n):
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, n)
    v = np.array([rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)])
    decompose(hamiltonian_lindblad(1e10 * h, v))


@pytest.mark.xfail(strict=True, raises=NotMember,
                   reason="ROADMAP item 2: membership's bound is linear in the cut")
def test_covariance_estimate_finds_each_unit_in_its_step_space():
    mat = bench_corpus().make_generator(np.random.default_rng(0), 8, 8, True).mat
    units = sample_units(decompose(mat), 3, 0)
    covariance_estimate(Flow(mat), units[1], units[2], t=1.0, m=512)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 8: a rounding-dominated estimate is reported as a number")
def test_a_covariance_estimate_lost_to_rounding_is_a_numerical_limit(tmp_path):
    spec = _superop_spec(tmp_path / "deph.json", dephasing_generator())
    units = tmp_path / "units.json"
    units.write_text(json.dumps({"units": [{"c": [0.0, 0.0], "v": [[1.0, 0.0]]}] * 2}))
    argv = ["covariance", "--input", spec, "--units", str(units), "--t", "1e-300", "--m", "1",
            "--output", str(tmp_path / "report.json")]
    assert main(argv) == 3


# (n, rank, --tol, --seed): the draws whose gauge check failed while
# extract_gauge fitted the shifted family with the identity as a design column
_GAUGE_CASES = [
    *((8, 32, "1e-2", seed) for seed in (3, 4, 8, 9)),
    *((3, 2, "0.5", seed) for seed in (3, 5, 6, 8)),
    *((3, 2, "0.05", seed) for seed in (3, 6)),
]


@pytest.mark.parametrize("n, rank_, tol, seed", _GAUGE_CASES)
def test_the_gauge_check_passes_on_a_generator_at_a_moderate_tolerance(tmp_path, n, rank_, tol, seed):
    mat = bench_corpus().make_generator(np.random.default_rng(7), n, rank_, True).mat
    report = tmp_path / "report.json"
    argv = ["verify", "--input", _superop_spec(tmp_path / "gen.json", mat), "--checks", "gauge",
            "--tol", tol, "--seed", str(seed), "--output", str(report)]
    assert main(argv) == 0
    assert json.loads(report.read_text())["checks"]["gauge"]["pass"] is True


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: membership's bound is linear in the cut, so a looser --tol "
                          "cuts a unit out of its step space")
@pytest.mark.parametrize("n, rank_", [(3, 1), (3, 2), (8, 2), (4, 4)])
def test_a_looser_tolerance_keeps_each_unit_in_its_step_space(tmp_path, n, rank_):
    mat = bench_corpus().make_generator(np.random.default_rng(7), n, rank_, True).mat
    units = tmp_path / "units.json"
    units.write_text(json.dumps({"units": [
        {"c": [0.0, 0.0], "v": [[1.0, 0.0]] + [[0.0, 0.0]] * (rank_ - 1)},
        {"c": [0.0, 1.0], "v": [[0.5, -0.25]] * rank_},
    ]}))
    argv = ["covariance", "--input", _superop_spec(tmp_path / "gen.json", mat), "--units", str(units),
            "--tol", "1e-3", "--output", str(tmp_path / "report.json")]
    assert main(argv) == 0
