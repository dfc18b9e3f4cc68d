"""Seeded random instances used by the verification commands, the
block-positivity witness search and the tests."""

from __future__ import annotations

import numpy as np

from .superop import kraus_to_superop

__all__ = [
    "random_matrix",
    "random_cp_map",
    "random_constrained_tuples",
]


def random_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Complex matrix with i.i.d. standard complex normal entries."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def random_cp_map(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    """Completely positive map with ``m`` random Kraus operators."""
    if m is None:
        m = int(rng.integers(1, n * n))
    ops = [random_matrix(rng, n) / np.sqrt(n) for _ in range(m)]
    return kraus_to_superop(ops)


def random_constrained_tuples(
    rng: np.random.Generator, n: int, count: int, r: int = 3
):
    """``count`` random tuples of length ``r`` >= 2 with sum_k x_k a_k = 0, as
    two arrays ``xs`` and ``as_`` of shape (count, r, n, n).

    All x's and a_1, ..., a_{r-1} are random, drawn as by :func:`random_matrix`
    in the order x_1, ..., x_r, a_1, ..., a_{r-1}, tuple after tuple, so one
    call consumes the stream exactly as ``count`` calls with ``count=1`` do.
    The last a solves the constraint, a_r = -x_r^{-1} sum_{k<r} x_k a_k
    (x_r is almost surely invertible).

    :raises ValueError: if ``r`` < 2: a tuple of length 1 has a_1 = 0, so
        every S it gives is 0 and tests nothing.
    """
    if r < 2:
        raise ValueError(f"a constrained tuple needs length r >= 2, got {r}")
    normal = rng.standard_normal((count, 2 * r - 1, 2, n, n))
    ops = (normal[:, :, 0] + 1j * normal[:, :, 1]) / np.sqrt(2.0)
    xs, free = ops[:, :r], ops[:, r:]
    rest = np.matmul(xs[:, :-1], free).sum(axis=1)
    last = -np.linalg.solve(xs[:, -1], rest)
    return xs, np.concatenate([free, last[:, None]], axis=1)

