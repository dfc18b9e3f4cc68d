"""Superoperator representations of linear maps on M_n(C) and conversions
between them.

A linear map P on n x n complex matrices is stored as its n^2 x n^2 matrix
``mat`` acting on column-vectorized operators.  We use the column-stacking
convention

    vec(x)[i*n + k] = x[k, i]          (column i, row k),

so that ``vec(a @ x @ b) = kron(b.T, a) @ vec(x)``.  The Choi matrix of P is

    J(P) = sum_ij E_ij (x) P(E_ij),

the n^2 x n^2 block matrix whose (i, j) block of size n x n is P(E_ij).
With this pair of conventions the Choi matrix of x -> v x v* equals
vec(v) vec(v)*, so Kraus extraction is a plain eigendecomposition of J.

A Kraus family is one complex array of shape (m, n, n), and the empty
family (m = 0) is the zero map.  The Choi matrix of x -> sum_m v_m x v_m*
is V V*, with V the n^2 x m matrix of columns vec(v_m).

All maps here act in the Heisenberg picture: "unital" means P(1) = 1.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotCP, NotHermitian
from .numerics import DEFAULT_TOL, Spectrum, Tolerances, frob, is_hermitian, spectrum, within

__all__ = [
    "vec",
    "unvec",
    "dim_of",
    "identity_superop",
    "ad_superop",
    "apply_superop",
    "kraus_to_superop",
    "superop_to_choi",
    "choi_spectrum",
    "kraus_from_spectrum",
    "is_hermiticity_preserving",
    "is_completely_positive",
    "is_unital",
]


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a 1-d vector, or each matrix of a stack of
    shape (..., n, n) into a row of shape (..., n^2)."""
    x = np.asarray(x, dtype=complex)
    return x.swapaxes(-1, -2).reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def unvec(v: np.ndarray, n: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if n is None:
        n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise DimensionMismatch(f"cannot unvec a vector of length {v.size}")
    return v.reshape(n, n).T


def dim_of(mat: np.ndarray) -> int:
    """Algebra dimension n for an n^2 x n^2 superoperator matrix."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"superoperator must be square, got {mat.shape}")
    n = int(round(np.sqrt(mat.shape[0])))
    if n * n != mat.shape[0]:
        raise DimensionMismatch(
            f"superoperator side {mat.shape[0]} is not a perfect square"
        )
    return n


def identity_superop(n: int) -> np.ndarray:
    return np.eye(n * n, dtype=complex)


def ad_superop(v: np.ndarray) -> np.ndarray:
    """Superoperator matrix of the conjugation x -> v @ x @ v*."""
    v = np.asarray(v, dtype=complex)
    return np.kron(v.conj(), v)


def apply_superop(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the map with matrix ``mat`` to the operator ``x``."""
    n = dim_of(mat)
    x = np.asarray(x, dtype=complex)
    if x.shape != (n, n):
        raise DimensionMismatch(
            f"operator shape {x.shape} does not match algebra dimension {n}"
        )
    return unvec(np.asarray(mat, dtype=complex) @ vec(x), n)


def kraus_to_superop(ops: np.ndarray) -> np.ndarray:
    """Superoperator matrix of x -> sum_m v_m @ x @ v_m*, from the Choi
    matrix V V* of the Kraus family ``ops``, shape (m, n, n).

    :raises DimensionMismatch: unless the operators share a square shape
        (an untyped empty list has none).
    """
    try:
        v = np.asarray(ops, dtype=complex)
    except ValueError as exc:
        raise DimensionMismatch("Kraus operators must share a square shape") from exc
    if v.ndim != 3 or v.shape[1] != v.shape[2]:
        raise DimensionMismatch("Kraus operators must share a square shape")
    big_v = vec(v).T
    return superop_to_choi(big_v @ big_v.conj().T)


def superop_to_choi(mat: np.ndarray) -> np.ndarray:
    """Choi matrix of the map with superoperator matrix ``mat``.

    The index shuffle is an involution, so applied to a Choi matrix it gives
    back the superoperator matrix.
    """
    n = dim_of(mat)
    return (
        np.asarray(mat, dtype=complex)
        .reshape(n, n, n, n)
        .transpose(3, 1, 2, 0)
        .reshape(n * n, n * n)
    )


def choi_spectrum(choi: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """Spectrum of the Choi matrix of a map that must be completely positive.

    :raises NotCP: if the matrix is not Hermitian, or has an eigenvalue
        below ``-psd_slack`` (relative to its scale).
    """
    try:
        s = spectrum(choi, tol)
    except NotHermitian as exc:
        raise NotCP(
            f"map is not completely positive: Choi matrix is not Hermitian: {exc}"
        ) from exc
    if not s.psd(tol):
        raise NotCP(
            "map is not completely positive: "
            f"Choi matrix has negative eigenvalue {s.w[-1]:.3e} "
            f"(slack {tol.psd_slack * s.scale:.3e})"
        )
    return s


def kraus_from_spectrum(s: Spectrum, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Kraus family sqrt(w_m) unvec(u_m) of the eigenpairs above the cut, an
    array of shape (m, n, n), with m = 0 when no eigenvalue is kept.

    Each operator's phase is fixed by making its largest-magnitude entry
    real and positive, the first such entry in row-major order, so the
    output is deterministic.
    """
    keep = s.kept(tol)
    m, n = int(keep.sum()), int(round(np.sqrt(s.w.size)))
    ops = (s.u[:, keep] * np.sqrt(s.w[keep])).T.reshape(m, n, n).swapaxes(1, 2)
    flat = ops.reshape(m, n * n)  # each operator's entries in row-major order
    top = flat[np.arange(m), np.argmax(np.abs(flat), axis=1)]
    return ops * (top.conj() / np.abs(top))[:, None, None]


def is_hermiticity_preserving(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the map sends Hermitian matrices to Hermitian matrices,
    tested as Hermiticity of the Choi matrix."""
    return is_hermitian(superop_to_choi(mat), tol)


def is_completely_positive(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the Choi matrix is PSD within ``psd_slack`` (relative)."""
    try:
        return spectrum(superop_to_choi(mat), tol, vectors=False).psd(tol)
    except NotHermitian:
        return False


def is_unital(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff P(1) = 1 within ``residual``; kept as API to check that exp(tL) is unital."""
    n = dim_of(mat)
    p1 = apply_superop(mat, np.eye(n))
    return within(frob(p1 - np.eye(n)), tol.residual, frob(p1))
