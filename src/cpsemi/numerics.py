"""Shared numerical kernels: Hermitian spectra and matrix exponentials, with
one tolerance rule.

Every tolerance decision is :func:`within`: value <= rel * anchor(norms),
with ``rel`` one of the three bounds a :class:`Tolerances` derives from its
one relative tolerance, and anchor(norms) = max(1, norms...) over the
norms of what the value was computed from.  The floor of 1 keeps
tiny inputs from facing vacuously strict checks; membership in a metric
operator space and the unitality of a generator pass ``floor=0``.  Every
PSD, rank, Kraus and metric-space decision is a rule on the eigenvalues of
one Hermitian matrix, held in one :class:`Spectrum` whose ``scale`` is the
anchor of its largest |eigenvalue|; a stack of matrices, shape (..., k, k),
gets one scale and one verdict per matrix.  :func:`spectrum` takes the
Hermitian part and decides nothing; whether the input had to be Hermitian
is its caller's :func:`is_hermitian` (for a Choi matrix,
:func:`~cpsemi.superop.choi_spectrum`).  :func:`is_psd` is the PSD verdict
alone, with a fast exit that keeps the rule: s_lo = anchor(max |h_ii|) is at
most ``scale``, so a Cholesky factorisation of h + psd_slack * s_lo * 1
proves it True, knowing the bound -psd_slack * s_lo and not an eigenvalue.
Every matrix exponential is made here.  One whose norm overflows raises
:class:`~cpsemi.errors.Overflow`, as does a Hermiticity, spectrum or PSD
verdict on a matrix that is not finite, before any arithmetic on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import Overflow

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "frob",
    "anchor",
    "within",
    "is_hermitian",
    "Spectrum",
    "spectrum",
    "is_psd",
    "expm",
    "expm_times",
]


@dataclass(frozen=True)
class Tolerances:
    """One relative tolerance ``rel`` and the three bounds derived from it.

    ``eig_cut = rel``: eigenvalues below this relative cut count as zero for
    ranks, Kraus bases and metric operator spaces.  ``psd_slack = rel``: how
    far below zero an eigenvalue may sit, relative to the matrix scale, while
    the matrix still counts as positive semidefinite.  ``residual = rel / 10``:
    the relative residual allowed when deciding that two maps or matrices are
    equal, or that a linear system was solved exactly.
    """

    rel: float = 1e-9

    eig_cut = property(lambda self: self.rel)
    psd_slack = property(lambda self: self.rel)
    residual = property(lambda self: self.rel / 10.0)


DEFAULT_TOL = Tolerances()


def frob(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def anchor(*norms, floor: float = 1.0):
    """The scale a relative bound is taken against: max(floor, norms...),
    elementwise when a norm is an array, else a scalar."""
    for norm in norms:
        if isinstance(norm, np.ndarray):
            return functools.reduce(np.maximum, norms, floor)
    return max((floor, *norms))


def within(value, rel: float, *norms, floor: float = 1.0):
    """The tolerance rule ``value <= rel * anchor(*norms, floor=floor)``: a
    Python bool for scalars, an elementwise boolean array for arrays."""
    ok = value <= rel * anchor(*norms, floor=floor)
    return ok if isinstance(ok, np.ndarray) else bool(ok)


def _require_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise Overflow("the matrix has an entry that is not finite: no verdict")


def is_hermitian(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff ``||m - m*|| <= residual * max(1, ||m||)`` (Frobenius norms)."""
    _require_finite(m)
    return within(frob(m - m.conj().T), tol.residual, frob(m))


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, or of a stack of them.

    ``w`` holds the eigenvalues in descending order, ``u`` the matching
    orthonormal eigenvector columns (None when only eigenvalues were asked
    for), and ``scale = anchor(largest |eigenvalue|)`` anchors every relative
    comparison made on them.  For a stack of shape (..., k, k) the fields
    keep the leading axes: ``w`` is (..., k), ``u`` is (..., k, k) and
    ``scale`` is an array of shape (...), one anchor per matrix.
    """

    w: np.ndarray
    u: np.ndarray | None
    scale: float | np.ndarray

    def psd(self, tol: Tolerances = DEFAULT_TOL) -> bool | np.ndarray:
        """True iff no eigenvalue sits below ``-psd_slack * scale``; for a
        stack, a boolean array with one verdict per matrix."""
        low = self.w[..., -1] if self.w.shape[-1] else np.zeros(self.w.shape[:-1])
        return within(-low, tol.psd_slack, self.scale)

    def kept(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Mask of the eigenvalues above the cut ``eig_cut * scale``; the rest
        count as zero for ranks, Kraus bases and metric operator spaces."""
        scale = self.scale if self.w.ndim == 1 else self.scale[..., None]
        return ~within(self.w, tol.eig_cut, scale)


def spectrum(m: np.ndarray, *, vectors: bool = True) -> Spectrum:
    """Spectrum of the Hermitian part (m + m*) / 2 of a square matrix, or of
    each matrix of a stack of shape (..., k, k); ``m`` is not tested for Hermiticity.

    :param vectors: also compute the eigenvectors.
    """
    m = np.asarray(m, dtype=complex)
    _require_finite(m)
    return _hermitian_spectrum((m + m.conj().swapaxes(-1, -2)) / 2.0, vectors)


def _hermitian_spectrum(h: np.ndarray, vectors: bool) -> Spectrum:
    """:func:`spectrum` of ``h``, already Hermitian; Overflow if ``h`` is not finite."""
    _require_finite(h)
    if vectors:
        w, u = np.linalg.eigh(h)
        u = u[..., ::-1].copy()
    else:
        w, u = np.linalg.eigvalsh(h), None
    w = w[..., ::-1].copy()
    return Spectrum(w, u, anchor(np.abs(w).max(axis=-1, initial=0.0)))


def is_psd(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """``spectrum(m, vectors=False).psd(tol)`` for one square matrix, with a fast exit.

    The Hermitian part h is formed once.  max |h_ii| <= ||h||_2, so s_lo =
    anchor(max |h_ii|) <= ``scale``, and if ``cholesky`` factorises
    h + psd_slack * s_lo * 1 the answer is True with no eigenvalue computed;
    otherwise the diagonal is restored and :meth:`Spectrum.psd` decides on h.
    The paths can disagree only within Cholesky's backward error, about
    k eps ||h|| for k x k, of the bound.
    """
    m = np.asarray(m, dtype=complex)
    _require_finite(m)
    h = np.conjugate(m.T, order="C")
    h += m
    h *= 0.5
    diag = h.reshape(-1)[:: len(h) + 1]
    saved = diag.copy()
    diag += tol.psd_slack * anchor(float(np.abs(saved).max(initial=0.0)))
    try:
        # a NaN or inf anywhere in h reaches a pivot: the factor is then no certificate
        if np.isfinite(np.linalg.cholesky(h).trace()):
            return True
    except np.linalg.LinAlgError:
        pass
    diag[:] = saved
    return _hermitian_spectrum(h, False).psd(tol)


def _finite(f, *args) -> np.ndarray:
    """f(*args), computed without floating-point warnings.

    :raises Overflow: if the Frobenius norm of the result is not finite: an
        entry is not, or the norm that every tolerance is anchored at
        overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = f(*args)
        if not np.isfinite(frob(e)):
            raise Overflow("matrix exponential overflows: its norm is not finite")
    return e


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential, by scaling and squaring; real for real ``m``.

    :raises Overflow: if its norm is not finite.
    """
    import scipy.linalg  # here, not at the top: no other path needs scipy
    return _finite(scipy.linalg.expm, np.asarray(m))


def expm_times(m: np.ndarray, times: Sequence[float]) -> Iterator[np.ndarray]:
    """Yield exp(t m) for each t of ``times``, in order, lazily.

    Multiples of one matrix commute, so exp(t m) = exp(t' m) exp((t - t') m)
    for any t'.  When the step t - t' from the previous time t' is exactly an
    earlier sample time, the result is the previous one times the kept
    exponential of that time; every other time gets its own :func:`expm`.
    Only the exponentials that a later step reuses are kept.  For the times
    (0.125, 0.25, 0.5, 0.75, 1.0) that is 1 exponential and 4 products, for
    (0.1, 0.5, 1.0) 2 exponentials and 1 product.

    :raises Overflow: at the first result whose norm is not finite.
    """
    m = np.asarray(m)
    times = [float(t) for t in times]
    steps = [None] + [b - a for a, b in zip(times, times[1:])]
    reused = {step for i, step in enumerate(steps) if step in times[:i]}
    kept: dict[float, np.ndarray] = {}
    last = None
    for t, step in zip(times, steps):
        last = _finite(np.matmul, last, kept[step]) if step in kept else expm(t * m)
        if t in reused:
            kept[t] = last
        yield last

