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

from cpsemi import NotCCP, NotMember
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
    covariance_estimate(mat, units[1], units[2], t=1.0, m=512)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 8: a rounding-dominated estimate is reported as a number")
def test_a_covariance_estimate_lost_to_rounding_is_a_numerical_limit(tmp_path):
    spec = _superop_spec(tmp_path / "deph.json", dephasing_generator())
    units = tmp_path / "units.json"
    units.write_text(json.dumps({"units": [{"c": [0.0, 0.0], "v": [[1.0, 0.0]]}] * 2}))
    argv = ["covariance", "--input", spec, "--units", str(units), "--t", "1e-300", "--m", "1",
            "--output", str(tmp_path / "report.json")]
    assert main(argv) == 3


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 24: gauge_check draws its shift at an absolute scale")
def test_the_gauge_check_passes_on_a_generator_at_a_moderate_tolerance(tmp_path):
    mat = bench_corpus().make_generator(np.random.default_rng(7), 8, 32, True).mat
    argv = ["verify", "--input", _superop_spec(tmp_path / "gen.json", mat), "--checks", "gauge",
            "--tol", "1e-2", "--seed", "3", "--output", str(tmp_path / "report.json")]
    assert main(argv) == 0
