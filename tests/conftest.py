"""Shared fixtures and small helpers for the test suite."""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from cpsemi import (
    ad_superop,
    apply_superop,
    identity_superop,
    kraus_to_superop,
    superop_to_choi,
    vec,
)
from cpsemi.numerics import KERNELS
from cpsemi.sampling import random_matrix
from cpsemi.superop import dim_of

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def superop_of(f, n):
    """Matrix of the linear map f on M_n, columns = vec of images of E_ij."""
    out = np.zeros((n * n, n * n), dtype=complex)
    for p in range(n * n):
        i, j = p % n, p // n
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = 1.0
        out[:, p] = vec(f(e))
    return out


def symbol(mat, x, y):
    """sigma_L(x, y) = L(x y) - x L(y) - L(x) y + x L(1) y for the map L with
    superoperator matrix ``mat``: the n^6-value oracle of ``symbols_equal``."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    n = dim_of(mat)
    lone = apply_superop(mat, np.eye(n))
    return (
        apply_superop(mat, x @ y)
        - x @ apply_superop(mat, y)
        - apply_superop(mat, x) @ y
        + x @ lone @ y
    )


def dense_projected_choi(j):
    """P J P with P = 1 - omega omega* / n, omega = vec(1), by two dense
    n^2 x n^2 products, hermitized: the oracle of ``projected_choi``."""
    n = dim_of(j)
    omega = vec(np.eye(n))
    proj = np.eye(n * n, dtype=complex) - np.outer(omega, omega.conj()) / n
    jp = proj @ j @ proj
    return (jp + jp.conj().T) / 2.0


def transpose_superop(n):
    return superop_of(lambda x: x.T, n)


def random_hermitian(rng, n):
    m = random_matrix(rng, n)
    return (m + m.conj().T) / 2.0


def random_hp_map(rng, n):
    """Hermiticity-preserving map: superoperator with a random Hermitian
    Choi matrix (almost surely not conditionally CP)."""
    return superop_to_choi(random_hermitian(rng, n * n))


def random_ccp_generator(rng, n, m=None, unital=False):
    """Conditionally completely positive generator L(x) = sum v x v* + k x + x k*.

    With ``unital=True`` the drift is k = i h - (1/2) sum v v* for a random
    Hermitian h, which makes L(1) = 0; otherwise k is a free random matrix.
    """
    if m is None:
        m = int(rng.integers(1, n * n))
    ops = [random_matrix(rng, n) / np.sqrt(n) for _ in range(m)]
    if unital:
        h = random_hermitian(rng, n)
        k = 1j * h - 0.5 * sum(v @ v.conj().T for v in ops)
    else:
        k = random_matrix(rng, n)
    eye = np.eye(n)
    return kraus_to_superop(ops) + np.kron(eye, k) + np.kron(k.conj(), eye)


def loop_constrained_tuple(rng, n, r=3):
    """Reference draw of one constrained tuple, one operator at a time:
    x_1, ..., x_r, a_1, ..., a_{r-1} as by ``random_matrix``, then
    a_r = -x_r^{-1} sum_{k<r} x_k a_k."""
    xs = [random_matrix(rng, n) for _ in range(r)]
    as_ = [random_matrix(rng, n) for _ in range(r - 1)]
    rest = sum((x @ a for x, a in zip(xs, as_)), np.zeros((n, n), dtype=complex))
    as_.append(-np.linalg.solve(xs[-1], rest))
    return xs, as_


@functools.cache
def bench_corpus():
    """The benchmark's seeded inputs, ``perfbench/corpus.py`` (plain numpy)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dephasing_generator():
    """Qubit dephasing generator L(x) = sz x sz - x."""
    return ad_superop(SZ) - identity_superop(2)


def expm_spy(monkeypatch):
    """The list of matrices that ``numerics.expm`` exponentiates from now on: a
    spy on the exponential of ``numerics.KERNELS``, which it looks up at each call."""
    calls = []
    mod, name = next((mod, name) for mod, names in KERNELS.items() for name in names
                     if name.endswith("expm"))
    owner = importlib.import_module(mod)
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda m: calls.append(m) or real(m))
    return calls


def linalg_spy(monkeypatch, name):
    """The shapes of the matrices that ``np.linalg.<name>`` is called on from now on."""
    calls = []
    real = getattr(np.linalg, name)
    monkeypatch.setattr(
        np.linalg, name, lambda a, *args, **kw: calls.append(np.shape(a)) or real(a, *args, **kw)
    )
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def dephasing():
    return dephasing_generator()
