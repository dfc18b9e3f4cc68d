"""tools/symmetry_diff.py: the symmetry sweep over the benchmark corpus."""

import importlib.util
import itertools
import os

import numpy as np

from cpsemi import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "symmetry_diff.py")

_spec = importlib.util.spec_from_file_location("symmetry_diff", TOOL)
symmetry_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(symmetry_diff)


def test_dissipative_norm_is_the_distance_to_the_two_sided_maps(rng):
    n = 3
    mat = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    eye, units = np.eye(n), np.eye(n * n).reshape(n * n, n, n)
    design = np.array([np.kron(eye, e) for e in units] + [np.kron(e, eye) for e in units])
    design = design.reshape(2 * n * n, -1).T
    fit = design @ np.linalg.lstsq(design, mat.ravel(), rcond=None)[0]
    expected = np.linalg.norm(mat.ravel() - fit)
    assert abs(symmetry_diff.dissipative_norm(mat) - expected) <= 1e-12 * expected


def test_a_frozen_slice_counts_the_known_defects_and_nothing_else():
    # seed 0, n = 2, rank 1, unital and not: 2 generators, 5 specs, ~1.3 s
    rows = symmetry_diff.sweep(cli, itertools.islice(symmetry_diff.corpus([0], [2]), 2))
    assert len(rows) == 25 + 1 + 1 + 6 + 7
    assert all(total == 2 for _, total, _ in rows.values())
    # Counts at this commit.  A change may lower one (mending a tolerance
    # defect of ROADMAP items 1 or 2) but never raise one.
    known = {
        # index 1 -> 0: the eigenvalue cut does not scale with s
        **{f"scale 1e{j}": 2 for j in range(-12, -8)},
        # units exits 3 at small s; exp(s L) overflows for the general one
        # from s = 1e4
        "verify scale 1e-8": 2, "verify scale 1e-4": 1, "verify scale 1e4": 1,
        "verify scale 1e8": 1, "verify scale 1e12": 1,
        # exit 2 (not CCP): the roundoff of a Hamiltonian term 1e8 times the
        # dissipative part exceeds the PSD slack of the projected Choi matrix
        "ham 1e8": 2, "ham 1e10": 2,
    }
    for name, (changed, _, first) in rows.items():
        assert changed <= known.get(name, 0), (name, first)
        assert (first is None) == (changed == 0)
        assert first is None or first.startswith("seed 0 n 2 m 1 "), first
