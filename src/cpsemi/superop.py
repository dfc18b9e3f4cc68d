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

import functools
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, NotCP, NotHermiticityPreserving
from .numerics import (
    DEFAULT_TOL, Spectrum, Tolerances, _finite, expm, frob, is_hermitian, is_psd, spectrum,
    within,
)

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
    "Flow",
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
    n = round(mat.shape[0] ** 0.5)
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


def _operator(x: np.ndarray, n: int) -> np.ndarray:
    """``x`` as a complex n x n array; any other shape is DimensionMismatch."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (n, n):
        raise DimensionMismatch(f"operator shape {x.shape} does not match algebra dimension {n}")
    return x


def apply_superop(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the map with matrix ``mat`` to the operator ``x``."""
    n = dim_of(mat)
    return unvec(np.asarray(mat, dtype=complex) @ vec(_operator(x, n)), n)


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
    with np.errstate(over="ignore", invalid="ignore"):  # a verdict on it raises Overflow
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


def choi_spectrum(
    choi: np.ndarray, tol: Tolerances = DEFAULT_TOL, *, vectors: bool = True
) -> Spectrum:
    """Spectrum of the Choi matrix of a map that must be completely positive,
    the one complete-positivity rule.

    :param vectors: also compute the eigenvectors, which only a Kraus basis reads.
    :raises NotCP: if the matrix is not Hermitian, or has an eigenvalue
        below ``-psd_slack`` (relative to its scale).
    """
    choi = np.asarray(choi, dtype=complex)
    if not is_hermitian(choi, tol):
        fault = f"is not Hermitian: ||m - m*|| = {frob(choi - choi.conj().T):.3e}"
    else:
        s = spectrum(choi, vectors=vectors)
        if s.psd(tol):
            return s
        fault = f"has negative eigenvalue {s.w[-1]:.3e} (slack {tol.psd_slack * s.scale:.3e})"
    raise NotCP(f"map is not completely positive: Choi matrix {fault}")


def kraus_from_spectrum(s: Spectrum, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Kraus family sqrt(w_m) unvec(u_m) of the eigenpairs above the cut, an
    array of shape (m, n, n), with m = 0 when no eigenvalue is kept.

    Each operator's phase is fixed by making its largest-magnitude entry
    real and positive, the first such entry in row-major order, so the
    output is deterministic.
    """
    keep = s.kept(tol)
    m, n = int(keep.sum()), int(round(np.sqrt(s.u.shape[0])))
    return _fix_phases((s.u[:, keep] * np.sqrt(s.w[keep])).T.reshape(m, n, n).swapaxes(1, 2))


def _fix_phases(ops: np.ndarray) -> np.ndarray:
    """The operators of a stack (m, n, n), each times the phase that makes its
    largest-magnitude entry, the first such in row-major order, real and positive."""
    m, n, _ = ops.shape
    flat = ops.reshape(m, n * n)  # each operator's entries in row-major order
    top = flat[np.arange(m), np.argmax(np.abs(flat), axis=1)]
    return ops * (top.conj() / np.abs(top))[:, None, None]


def is_hermiticity_preserving(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the map sends Hermitian matrices to Hermitian matrices,
    tested as Hermiticity of the Choi matrix."""
    return is_hermitian(superop_to_choi(mat), tol)


@functools.cache
def _hermitian_basis(n: int) -> list:
    """The arguments of :func:`_sandwich` after ``m``, for B and for B*."""
    col, row = np.divmod(np.arange(n * n), n)
    c = np.where(row == col, 0.5, np.where(row < col, 1, -1j) * 0.5**0.5).reshape(n, n)
    pairs = (c, c.conj()), (c.conj(), c.T)
    return [(a, b, a.conj()[:, :, None, None], b.conj()[:, :, None, None]) for a, b in pairs]


def _sandwich(m, c0, c1, c0_conj, c1_conj) -> np.ndarray:
    """B* m B for B = diag(c0) + T diag(c1), T the transposition x[k, i] <-> x[i, k] of vec
    positions, a swap of two axes of m as (n, n, n, n).  With c0 = c, c1 = conj c, column p of
    B, for x[k, i], is E_kk, (E_ki + E_ik)/sqrt(2) or i (E_ik - E_ki)/sqrt(2) as k =, <, > i."""
    n = len(c0)
    m4 = m.reshape(n, n, n, n)
    mb = m4 * c0
    mb += m4.swapaxes(2, 3) * c1
    out = mb.swapaxes(0, 1) * c1_conj
    mb *= c0_conj
    out += mb
    return out.reshape(n * n, n * n)


def _real_form(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The real matrix B* L B of L in that Hermitian basis, by neither a gather nor an n^2 x n^2
    product.  2 ||Im B* L B|| = ||J - J*|| and ||B* L B|| = ||J|| for J = J(L), so it raises
    NotHermiticityPreserving by the rule of :func:`is_hermiticity_preserving`."""
    r = _sandwich(np.asarray(mat), *_hermitian_basis(dim_of(mat))[0])
    skew = 2.0 * frob(r.imag)
    if not within(skew, tol.residual, frob(r)):
        raise NotHermiticityPreserving(f"not Hermiticity-preserving: ||J - J*|| = {skew:.3e}")
    return np.ascontiguousarray(r.real)


def _complex_form(r: np.ndarray) -> np.ndarray:
    """B r B*, the inverse of :func:`_real_form`.  Its Choi matrix is Hermitian bit for bit:
    an entry and its transpose's are formed alike from conjugate coefficients."""
    return _sandwich(r, *_hermitian_basis(dim_of(r))[1])


class Flow:
    """The semigroup exp(tL) of one superoperator matrix L, sampled at times 0 <= t < inf in
    L's real form ``real``, so that :func:`_complex_form` of each sample preserves
    Hermiticity exactly.  ``real`` is made on first use: a caller that samples no time
    pays nothing.  ``at(t)`` is the one direct :func:`~cpsemi.numerics.expm` of t, made once;
    ``grid(times)`` reuses results by the semigroup law but never stores a product where
    ``at`` would return it, so a test of that law can read ``at`` alone.  ``tol`` is the
    one tolerance of every check that samples the semigroup; ``shape`` is L's."""

    def __init__(self, mat: np.ndarray, tol: Tolerances = DEFAULT_TOL):
        self._mat, self.tol, self.shape = mat, tol, np.shape(mat)
        self._at: dict[float, np.ndarray] = {}

    @functools.cached_property
    def real(self) -> np.ndarray:
        """:func:`_real_form` of L; raises NotHermiticityPreserving as it does."""
        return _real_form(self._mat, self.tol)

    def at(self, t: float) -> np.ndarray:
        """exp(t real) by its own expm, made once per t.  Every later read of t returns
        the same array, so it is read-only.

        :raises ValueError: unless 0 <= t < inf.
        :raises Overflow: if its norm is not finite.
        """
        t = float(t)
        if not 0.0 <= t < np.inf:
            raise ValueError(f"evolution time must be nonnegative and finite, got {t}")
        if t not in self._at:
            self._at[t] = expm(t * self.real)
            self._at[t].flags.writeable = False
        return self._at[t]

    def grid(self, times: Sequence[float]) -> Iterator[np.ndarray]:
        """Yield exp(t real) for each t of ``times``, in order, lazily.

        Multiples of one matrix commute, so exp(t L) = exp(t' L) exp((t - t') L).
        When the step t - t' from the previous time t' is exactly an earlier
        time of the grid, the result is the previous one times that time's
        result; every other time is :meth:`at`.  The time of a product is the
        sum of two times already accepted, so it needs no check of its own.
        Only the results that a later step reads are kept.  For the times (0.125, 0.25,
        0.5, 0.75, 1.0) that is 1 exponential and 4 products, for (0.1, 0.5,
        1.0) 2 exponentials and 1 product.

        :raises Overflow: at the first result whose norm is not finite.
        """
        times = [float(t) for t in times]
        steps = [None] + [b - a for a, b in zip(times, times[1:])]
        reused = {step for i, step in enumerate(steps) if step in times[:i]}
        kept: dict[float, np.ndarray] = {}
        last = None
        for t, step in zip(times, steps):
            last = _finite(np.matmul, last, kept[step]) if step in kept else self.at(t)
            if t in reused:
                kept[t] = last
            yield last


def is_completely_positive(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff :func:`choi_spectrum` accepts the Choi matrix: it is Hermitian and
    :func:`~cpsemi.numerics.is_psd`, the same PSD rule, whose Cholesky certificate
    passes a CP map with no eigenvalue."""
    choi = superop_to_choi(mat)
    return is_hermitian(choi, tol) and is_psd(choi, tol)

