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
:func:`~cpsemi.superop.choi_spectrum`).  Every Cholesky certificate is one
:func:`_shifted_cholesky`: a factor of h + c * 1 puts h's eigenvalues above -c.
:func:`is_psd`, the PSD verdict alone, exits True at c = psd_slack * s_lo, s_lo =
anchor(max |h_ii|) <= ``scale``, knowing that bound and not an eigenvalue; at
c = -10 eig_cut U, U >= ``scale``, :func:`_kept_by_margin` keeps them all by a
margin of 10, for full Choi ranks in :func:`~cpsemi.semigroup.product_system_check`
and, after a rank-one term, n^2 - 1 in :func:`~cpsemi.symbols._full_rank_certified`.
:func:`_factor_spectrum` keeps the rule for a matrix of low rank: a pivoted
Cholesky factor and Weyl's inequality certify its PSD verdict and kept pairs,
or a negative pivot shows it is not PSD and :func:`_witness_spectrum` finds
the lowest eigenvector by ``eigvalsh`` and one solve, or it declines.  Where
they decline, one ``eigh`` decides: it is the one fallback, so a count and a
basis read the same eigenvalues.
Every matrix exponential is made here.  One whose norm overflows raises
:class:`~cpsemi.errors.Overflow`, as does a Hermiticity, spectrum or PSD
verdict on a matrix that is not finite, before any arithmetic on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

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
    ``scale`` is an array of shape (...), one anchor per matrix.  A spectrum
    certified from a factor (:func:`_factor_spectrum`) holds only its kept
    pairs: ``w`` is (r,), ``u`` is (k, r), every pair is kept and ``psd`` is
    True.  One that :func:`_witness_spectrum` returns is not PSD and holds
    every eigenvalue and only the lowest one's vector: ``u`` is (k, 1).  Any
    other spectrum of the CCP ladder is ``eigh``'s, with every pair.  In
    each kind, ``w[-1]`` and ``u[:, -1]`` are the lowest pair it holds.
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


# The certificates' margin on each side of the cut, which leaves eigh's own
# rounding (about k eps ||h||) far inside it, and the factor's rank limit as a
# share of the side k.  At n = 16 (k = 256, one BLAS thread) eigh takes
# 16-20 ms, the factor certificate 0.5-3.2 ms up to rank 63, a declined
# attempt 1.2 ms and the full-rank certificate 1.5-3 ms.
_FACTOR_MARGIN = 10.0
_FACTOR_MAX_SHARE = 4


def _diagonal_scale(h: np.ndarray) -> float:
    """s_lo = anchor(max |h_ii|); max |h_ii| <= ||h||_2, so s_lo <= ``scale``."""
    return anchor(float(np.abs(h.diagonal().real).max(initial=0.0)))


def _factor_spectrum(h: np.ndarray, tol: Tolerances) -> Spectrum | None:
    """The kept eigenpairs of ``h``, Hermitian and k x k, certified from a
    pivoted Cholesky factor; at a negative pivot, :func:`_witness_spectrum`'s
    spectrum; None where :func:`_hermitian_spectrum` must decide.

    r steps of Cholesky with diagonal pivoting (Higham 2002, section 10.3)
    give h = F F* + S, F of size k x r; they stop once the pivots left sum to
    at most min(eig_cut, psd_slack) anchor(max_j ||f_j||^2) / 10, the largest
    diagonal entry of F* F being at most its largest eigenvalue.  With delta
    = ||S||_F, formed explicitly, and F* F = W Lam W* (r x r), Weyl's
    inequality puts every eigenvalue of h within delta of (Lam, 0, ..., 0).
    So when delta <= min(eig_cut, psd_slack) anchor(lam_1 - delta) / 10 and
    lam_r - delta > 10 eig_cut anchor(lam_1 + delta), :class:`Spectrum`'s
    rules, on any eigenvalues within eigh's rounding of h's, find h PSD and
    keep exactly r pairs; the result is those pairs, Spectrum(Lam,
    F W Lam^(-1/2), anchor(lam_1)).  None, early, if no pivot left is
    positive or r would reach k / 4; None if a margin fails.  Where a pivot
    left (at step 0 a diagonal entry of h) falls below -psd_slack s_lo, s_lo
    = anchor(max |h_ii|), e_i* S e_i < 0 shows that h is not PSD; by how
    much only an eigenvalue says, and :func:`_witness_spectrum` decides.
    """
    _require_finite(h)
    k = len(h)
    d = h.diagonal().real.copy()  # the pivots left: the diagonal of S
    s_lo = _diagonal_scale(h)
    rel = min(tol.eig_cut, tol.psd_slack)
    rows = np.empty((k // _FACTOR_MAX_SHARE - 1, k), dtype=complex)  # F's columns, r < k / 4
    r, low = 0, 0.0  # low = max_j ||f_j||^2 <= F* F's largest eigenvalue
    while not within(_FACTOR_MARGIN * np.abs(d).sum(), rel, low):
        if d.min() < -tol.psd_slack * s_lo:
            return _witness_spectrum(h, tol)
        p = int(np.argmax(d))
        if r == len(rows) or not d[p] > 0:
            return None
        # column p of S; h is Hermitian, so its column p is conj(row p)
        col = h[p].conj() - rows[:r].T @ rows[:r, p].conj()
        rows[r] = col / np.sqrt(d[p])
        norms = (rows[r] * rows[r].conj()).real
        d -= norms
        d[p] = 0.0
        low = max(low, float(norms.sum()))
        r += 1
    f = rows[:r].T
    rest = f @ rows[:r].conj()
    rest -= h  # -S
    delta = frob(rest)
    lam, w = np.linalg.eigh(rows[:r].conj() @ f)
    lam, w = lam[::-1].copy(), w[:, ::-1]
    top = float(lam[0]) if r else 0.0
    if not within(_FACTOR_MARGIN * delta, rel, top - delta) or (
        r and within(float(lam[-1]) - delta, _FACTOR_MARGIN * tol.eig_cut, top + delta)
    ):
        return None
    return Spectrum(lam, (f @ w) / np.sqrt(lam), anchor(np.abs(lam).max(initial=0.0)))


def _witness_spectrum(h: np.ndarray, tol: Tolerances) -> Spectrum:
    """Every eigenvalue of ``h``, Hermitian, and where h is not PSD the unit
    eigenvector of the lowest as the one column of ``u``, (k, 1), without the
    other k - 1 vectors.

    ``eigvalsh`` gives the eigenvalues; one solve of inverse iteration (Ipsen
    1997), (h - sigma 1) x = b for a fixed generic b and sigma just below the
    lowest eigenvalue, gives the vector.  Its Rayleigh quotient rho and
    residual must meet ||h x - rho x|| <= residual (lam_2 - rho), lam_2 the
    next eigenvalue, which bounds the sine of its angle to the eigenvector by
    ``residual`` (Davis-Kahan); else, or where h turns out PSD,
    :func:`_hermitian_spectrum` decides with every eigenvector.
    """
    k = len(h)
    s = _hermitian_spectrum(h, False)
    if s.psd(tol):
        return _hermitian_spectrum(h, True)
    a = h.copy()
    a.reshape(-1)[:: k + 1] -= float(s.w[-1]) - np.finfo(float).eps * s.scale
    rng = np.random.default_rng(0)
    try:
        x = np.linalg.solve(a, rng.standard_normal(k) + 1j * rng.standard_normal(k))
    except np.linalg.LinAlgError:  # sigma is an eigenvalue to the last bit
        return _hermitian_spectrum(h, True)
    x /= np.linalg.norm(x)
    hx = h @ x
    rho = float(np.vdot(x, hx).real)
    if not within(np.linalg.norm(hx - rho * x), tol.residual, float(s.w[-2]) - rho, floor=0.0):
        return _hermitian_spectrum(h, True)
    return s._replace(u=x[:, None])


def _shifted_cholesky(h: np.ndarray, shift: float) -> bool:
    """True iff ``cholesky`` factorises h + shift * 1, ``h`` Hermitian, with a
    finite factor: h's eigenvalues are then above -shift, within its backward
    error of about k eps ||h||.  h's diagonal is shifted in place through
    ``flat``, right on any layout, and restored bit for bit whatever the answer."""
    diagonal = slice(None, None, len(h) + 1)
    saved = h.flat[diagonal]  # a copy
    h.flat[diagonal] = saved + shift
    try:
        # a NaN or inf anywhere in h reaches a pivot: the factor is then no certificate
        return bool(np.isfinite(np.linalg.cholesky(h).trace()))
    except np.linalg.LinAlgError:
        return False
    finally:
        h.flat[diagonal] = saved


def _kept_by_margin(h: np.ndarray, top: float, tol: Tolerances) -> bool:
    """True iff :func:`_shifted_cholesky` puts every eigenvalue of ``h`` above
    10 eig_cut top: where top >= ``scale``, all are kept by a margin of 10."""
    return _shifted_cholesky(h, -_FACTOR_MARGIN * tol.eig_cut * top)


def is_psd(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """``spectrum(m, vectors=False).psd(tol)`` for one square matrix, with a fast exit.

    The Hermitian part h is formed once.  s_lo = anchor(max |h_ii|) <= ``scale``
    (max |h_ii| <= ||h||_2), so where :func:`_shifted_cholesky` factorises
    h + psd_slack * s_lo * 1 the answer is True with no eigenvalue computed, or
    else :meth:`Spectrum.psd` decides; they differ only within its backward error.
    """
    m = np.asarray(m, dtype=complex)
    _require_finite(m)
    h = np.conjugate(m.T, order="C")
    h += m
    h *= 0.5
    s_lo = _diagonal_scale(h)
    return _shifted_cholesky(h, tol.psd_slack * s_lo) or _hermitian_spectrum(h, False).psd(tol)


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


def _expm_rounding(m: np.ndarray, e: np.ndarray) -> float:
    """An allowance for the rounding in e = expm(m), m k x k: k eps ||m||_F
    ||e||_F.  Scaling and squaring has a backward error of order eps ||m||,
    and exp magnifies a relative perturbation of m by about ||m||.  On the
    benchmark corpus's generators at n = 3 and 4, scaled by up to 1e9, the
    law P_s P_t = P_{s+t} missed by at most 4 % of this allowance plus
    ``residual`` ||e||_F."""
    return len(m) * np.finfo(float).eps * frob(m) * frob(e)
