"""Shared numerical kernels: Hermitian spectra, matrix exponentials and
least squares, with one consistent tolerance policy.

Every PSD, rank, Kraus and pseudo-inverse decision is read off the
eigenvalues of one Hermitian matrix, held in one :class:`Spectrum`, whose
``scale`` is max(1, largest |eigenvalue|): the anchor of the relative cuts
(the floor of 1 keeps tiny matrices from facing vacuously strict checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .errors import NotHermitian

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "frob",
    "Spectrum",
    "spectrum",
    "expm",
    "expm_times",
    "lstsq",
]


@dataclass(frozen=True)
class Tolerances:
    """Tolerance knobs used throughout the library.

    :param eig_cut: eigenvalues below this (relative) cut are treated as
        zero when computing ranks, pseudo-inverses and Kraus bases.
    :param psd_slack: how far below zero an eigenvalue may sit (relative to the
        matrix scale) while the matrix still counts as positive semidefinite.
    :param residual: relative residual allowed when deciding that two maps or
        matrices are equal, or that a linear system was solved exactly.
    """

    eig_cut: float = 1e-9
    psd_slack: float = 1e-9
    residual: float = 1e-10


DEFAULT_TOL = Tolerances()

# Internal tolerance used to classify a matrix as (skew-)Hermitian or normal
# before choosing an exponentiation path.  Deliberately much tighter than any
# user-facing tolerance.
_CLASSIFY_TOL = 1e-12


def frob(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``w`` holds the eigenvalues in descending order, ``u`` the matching
    orthonormal eigenvector columns (None when only eigenvalues were asked
    for), and ``scale = max(1, largest |eigenvalue|)`` anchors every relative
    comparison made on them.
    """

    w: np.ndarray
    u: np.ndarray | None
    scale: float

    def psd(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        """True iff no eigenvalue sits below ``-psd_slack * scale``."""
        return bool(self.w.size == 0 or self.w[-1] >= -tol.psd_slack * self.scale)

    def kept(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Mask of the eigenvalues above the cut ``eig_cut * scale``; the rest
        count as zero for ranks, Kraus bases and pseudo-inverses."""
        return self.w > tol.eig_cut * self.scale


def spectrum(
    m: np.ndarray, tol: Tolerances | None = None, vectors: bool = True
) -> Spectrum:
    """Spectrum of the Hermitian part (m + m*) / 2 of a square matrix.

    :param tol: when given, ``m`` itself must be Hermitian:
        ``||m - m*|| <= residual * max(1, ||m||)`` (Frobenius norms).
    :param vectors: also compute the eigenvectors.
    :raises NotHermitian: if ``tol`` is given and the Hermiticity check fails.
    """
    m = np.asarray(m, dtype=complex)
    if tol is not None:
        defect = frob(m - m.conj().T)
        if not defect <= tol.residual * max(1.0, frob(m)):
            raise NotHermitian(f"matrix is not Hermitian: ||m - m*|| = {defect:.3e}")
    h = (m + m.conj().T) / 2.0
    if vectors:
        w, u = np.linalg.eigh(h)
        u = u[:, ::-1].copy()
    else:
        w, u = np.linalg.eigvalsh(h), None
    w = w[::-1].copy()
    scale = max(1.0, float(max(w[0], -w[-1]))) if w.size else 1.0
    return Spectrum(w, u, scale)


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential.

    Hermitian input is exponentiated through its eigendecomposition, other
    normal input through a complex Schur form; everything else falls back to
    scaling-and-squaring.
    """
    m = np.asarray(m, dtype=complex)
    scale = max(1.0, frob(m))
    if frob(m - m.conj().T) <= _CLASSIFY_TOL * scale:
        w, u = np.linalg.eigh(m)
        return (u * np.exp(w)) @ u.conj().T
    commutator = m @ m.conj().T - m.conj().T @ m
    if frob(commutator) <= _CLASSIFY_TOL * scale * scale:
        t, z = scipy.linalg.schur(m, output="complex")
        return (z * np.exp(np.diag(t))) @ z.conj().T
    return scipy.linalg.expm(m)


def expm_times(m: np.ndarray, times: Sequence[float]) -> Iterator[np.ndarray]:
    """Yield exp(t m) for each t of ``times``, in order, lazily.

    Multiples of one matrix commute, so exp(t m) = exp(t' m) exp((t - t') m)
    for any t'.  When the step t - t' from the previous time t' is exactly an
    earlier sample time, the result is the previous one times the kept
    exponential of that time; every other time gets its own :func:`expm`.
    Only the exponentials that a later step reuses are kept.  For the times
    (0.1, 0.25, 0.5, 0.75, 1.0) that is 2 exponentials and 3 products.
    """
    m = np.asarray(m, dtype=complex)
    times = [float(t) for t in times]
    steps = [None] + [b - a for a, b in zip(times, times[1:])]
    reused = {step for i, step in enumerate(steps) if step in times[:i]}
    kept: dict[float, np.ndarray] = {}
    last = None
    for t, step in zip(times, steps):
        last = last @ kept[step] if step in kept else expm(t * m)
        if t in reused:
            kept[t] = last
        yield last


def lstsq(a: np.ndarray, b: np.ndarray):
    """Minimum-norm least-squares solution of ``a @ x = b``.

    :return: ``(x, residual)`` with ``residual = ||a @ x - b||``; for a
        matrix ``b`` one residual per column, as an array.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    residual = np.linalg.norm(a @ x - b, axis=0)
    return x, residual if b.ndim > 1 else float(residual)
