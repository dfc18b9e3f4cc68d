"""Canonical decomposition of semigroup generators on M_n(C).

A Hermiticity-preserving, conditionally completely positive map L can be
written as

    L(x) = P(x) + k x + x k*,

where P(x) = sum_m v_m x v_m* is completely positive with traceless,
linearly independent Kraus operators (so its metric operator space E meets
the scalars only in 0), and k is unique once the free imaginary multiple of
the identity is fixed by Im(tr k) = 0.  The number of Kraus operators,
dim E, is the rank of the generator and equals the numerical index of the
semigroup it generates.

Construction: the basis is extracted from the kept eigenpairs of the
projected Choi matrix of L (compression to the orthogonal complement of
vec(1)), whose eigenvectors are automatically orthogonal to vec(1), hence
traceless as operators.  :mod:`cpsemi.symbols` finds them, and the rank
alone (:func:`~cpsemi.symbols.rank`), on one ladder of certificates.  k is
the two-sided least-squares fit of mat(L) - mat(P), x -> a x + x b, as
k = (a + b*) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, NotHermitian
from .numerics import (
    DEFAULT_TOL, Tolerances, _require_finite, anchor, frob, is_hermitian, is_psd, within,
)
from .opspace import MetricOperatorSpace, space_from_spectrum
from .superop import (
    Flow,
    _complex_form,
    apply_superop,
    dim_of,
    kraus_to_superop,
    superop_to_choi,
    vec,
)
from .symbols import _ccp_spectrum, _require_ccp, _two_sided_fit, rank, symbols_equal

__all__ = [
    "GklsForm",
    "gkls_superop",
    "decompose",
    "rebuild",
    "rank",
    "is_unital_generator",
    "gauge_shift",
    "same_generator",
    "GaugeRelation",
    "extract_gauge",
    "gauge_check",
    "dominates",
    "hamiltonian_lindblad",
]


@dataclass(frozen=True, eq=False)
class GklsForm:
    """Canonical form of a generator: metric operator space plus drift.

    ``residual`` is the relative reconstruction error
    ||rebuild - L|| / anchor(||L||) observed at decomposition time.
    """

    n: int
    space: MetricOperatorSpace
    k: np.ndarray
    residual: float


def gkls_superop(k: np.ndarray, cp: np.ndarray = 0.0) -> np.ndarray:
    """Superoperator matrix of x -> P(x) + k x + x k*.

    :param cp: superoperator matrix of the completely positive part P, for
        example ``kraus_to_superop(ops)``; 0 for P = 0.
    """
    k = np.asarray(k, dtype=complex)
    eye = np.eye(k.shape[0])
    return np.kron(eye, k) + np.kron(k.conj(), eye) + cp


def decompose(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> GklsForm:
    """Canonical decomposition of a generator.

    One spectrum of the projected Choi matrix gives the verdict, the
    witness, the Kraus basis and the space's inner product
    (:func:`~cpsemi.symbols._ccp_spectrum`, whose rungs are described there).

    :param mat: superoperator matrix of a Hermiticity-preserving,
        conditionally completely positive map.
    :raises NotHermiticityPreserving: if the Choi matrix is not Hermitian.
    :raises NotCCP: if the projected Choi matrix has a negative eigenvalue
        beyond ``psd_slack`` (the witness eigenvector is attached, its phase
        fixed as a Kraus operator's).
    """
    n = dim_of(mat)
    s = _require_ccp(_ccp_spectrum(mat, tol), tol)
    space = space_from_spectrum(s, tol)
    cp_part = kraus_to_superop(space.basis)
    a, b = _two_sided_fit(mat - cp_part)
    k = (a + b.conj().T) / 2.0
    k = k - 1j * (np.trace(k).imag / n) * np.eye(n)  # Im tr k = 0
    rebuilt = gkls_superop(k, cp_part)
    residual = frob(rebuilt - mat) / anchor(frob(np.asarray(mat)))
    return GklsForm(n=n, space=space, k=k, residual=residual)


def rebuild(d: GklsForm) -> np.ndarray:
    """Superoperator matrix of the generator described by a canonical form."""
    return gkls_superop(d.k, kraus_to_superop(d.space.basis))


def is_unital_generator(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff L(1) = 0 within ``residual``, relative to ||L||: the
    semigroup exp(tL) is then unital.

    The bound has no floor, so the verdict is the same for L and sL at every
    s > 0, and the zero map is unital.
    """
    lone = apply_superop(mat, np.eye(dim_of(mat)))
    return within(frob(lone), tol.residual, frob(mat), floor=0.0)


def gauge_shift(d: GklsForm, lam: Sequence[complex], c: complex = 0.0) -> np.ndarray:
    """Superoperator of Q(x) = sum_m (v_m + lam_m 1) x (v_m + lam_m 1)* + Re(c) x.

    This is the paper's symbol-invariance lemma as a map: Q has the same
    symbol as the CP part of ``d``, because shifting the Kraus family by
    scalars and adding a nonnegative multiple of the identity map never
    changes the symbol.  The acceptance tests check the lemma on it, and
    :func:`gauge_check` builds its shifted CP part with it.
    """
    lam = np.asarray(list(lam), dtype=complex)
    if lam.size != d.space.dim:
        raise ValueError(
            f"need {d.space.dim} scalars, got {lam.size}"
        )
    return complex(c).real * np.eye(d.n * d.n) + kraus_to_superop(_shifted_kraus(d, lam))


def _shifted_kraus(d: GklsForm, lam: np.ndarray) -> np.ndarray:
    """The Kraus family v_m + lam_m 1 of d's basis shifted by scalars."""
    return d.space.basis + lam[:, None, None] * np.eye(d.n)


def _same_superop(m1: np.ndarray, m2: np.ndarray, tol: Tolerances) -> bool:
    """The equality rule for generators: ||m1 - m2|| within ``residual`` of
    ||m1|| and ||m2||."""
    return within(frob(m1 - m2), tol.residual, frob(m1), frob(m2))


def same_generator(d1: GklsForm, d2: GklsForm, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the two canonical forms rebuild to the same generator
    (within ``residual``, relative)."""
    return d1.n == d2.n and _same_superop(rebuild(d1), rebuild(d2), tol)


class GaugeRelation(NamedTuple):
    """How a canonical form relates to another presentation of its generator.

    ``theta`` maps coordinates over the canonical basis to coordinates over
    the other Kraus family w_1, ..., w_m (a unitary when both are canonical);
    ``v2 = sum_m gamma_m w_m`` and the real scalar ``c`` satisfy

        k2 = k1 + v2 + ((1/2) <v2, v2> + i c) 1,

    where <v2, v2> = |gamma|^2, the family being orthonormal in the inner
    product of the space it presents.  ``residual`` is the norm of what is
    left of k2 - k1 after removing the v2 and scalar parts.
    """

    theta: np.ndarray
    v2: np.ndarray
    c: float
    residual: float


def extract_gauge(
    d: GklsForm,
    ops: Sequence[np.ndarray],
    k2: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> GaugeRelation:
    """Extract the gauge relating a canonical form to another presentation
    (Kraus family ``ops``, drift ``k2``) of the same generator.

    Each basis element u_i of d's space is expanded over ``ops`` plus the
    identity, all in one solve: a QR factorisation of the design
    D = [vec(w_1) ... vec(w_m), vec(1)] and one triangular system.  D must
    have full column rank, min |r_ii| above ``eig_cut`` of max |r_ii|, with
    no floor; each u_i must leave a residual within ``eig_cut`` of ||u_i||.
    The identity components define a linear functional on span(ops),
    represented by ``v2``.  d's basis is independent and traceless, so
    passing the test makes the square coordinate matrix ``theta`` invertible.

    :raises ValueError: if ``ops`` does not have one operator per basis
        element, or the two families do not agree modulo scalars.
    :raises DimensionMismatch: if an operator is not n x n.
    :raises Overflow: if ``ops`` or ``k2`` has an entry that is not finite.
    """
    n = d.n
    dim = d.space.dim
    ops = [np.asarray(v, dtype=complex) for v in ops]
    if len(ops) != dim:
        raise ValueError(f"need {dim} Kraus operators, got {len(ops)}")
    if any(v.shape != (n, n) for v in ops):
        raise DimensionMismatch(f"Kraus operators must be {n}x{n}")
    ops = np.reshape(ops, (dim, n, n))
    k2 = np.asarray(k2, dtype=complex)
    _require_finite(ops)
    _require_finite(k2)
    design = np.column_stack([vec(ops).T, vec(np.eye(n))])
    rhs = vec(d.space.basis).T  # the columns vec(u_i), one solve for all
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diagonal(r))
    if within(diag.min(), tol.eig_cut, diag.max(), floor=0.0):
        raise ValueError("spaces do not agree modulo scalars")
    sol = np.linalg.solve(r, q.conj().T @ rhs)
    res = np.linalg.norm(design @ sol - rhs, axis=0)
    if not np.all(within(res, tol.eig_cut, np.linalg.norm(rhs, axis=0))):
        raise ValueError("spaces do not agree modulo scalars")
    theta = sol[:dim]
    gamma = np.linalg.solve(theta.T, sol[dim]).conj()
    v2 = np.tensordot(gamma, ops, axes=1)
    vv = float(np.real(np.vdot(gamma, gamma)))
    resid_mat = k2 - d.k - v2 - 0.5 * vv * np.eye(n)
    c = float(np.trace(resid_mat).imag / n)
    leftover = frob(resid_mat - 1j * c * np.eye(n))
    return GaugeRelation(theta=theta, v2=v2, c=c, residual=leftover)


def gauge_check(d: GklsForm, rng: np.random.Generator, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Check the gauge relation on a random shift of d's Kraus family.

    With scalars lam drawn from ``rng`` (complex standard normal), the family
    v_m + lam_m 1 and the drift k2 = k - u - (1/2)|lam|^2 1, u = sum_m
    conj(lam_m) v_m, present the same generator L as ``d``.  The verdicts:
    ``symbols_equal``, the shifted CP part has the symbol of the unshifted
    one; ``shift_same_generator``, the shifted presentation builds L;
    ``perturbation_detected``, adding 0.1 anchor(||L||) 1 to the drift
    changes L.  ``pass`` also needs :func:`extract_gauge` to relate ``d`` to
    the shifted presentation with a residual within ``eig_cut`` of ||k||; its
    ``ValueError``, the two families not agreeing modulo scalars, fails it.
    At rank 0 the family is empty and the same lines run on it.  Each
    family's CP superoperator is built once.
    """
    dim = d.space.dim
    lam = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    eye = np.eye(d.n)
    cp = kraus_to_superop(d.space.basis)
    mat = gkls_superop(d.k, cp)
    cp2 = gauge_shift(d, lam)
    sym_ok = symbols_equal(cp2, cp, tol)
    u = d.space.from_coords(lam.conj())
    k2 = d.k - u - 0.5 * float(np.vdot(lam, lam).real) * eye
    same = _same_superop(mat, gkls_superop(k2, cp2), tol)
    # The shifted presentation itself, not a canonical form, so that
    # extract_gauge has a nonzero v2 to recover.
    try:
        gauge = extract_gauge(d, _shifted_kraus(d, lam), k2, tol)
        gauge_ok = within(gauge.residual, tol.eig_cut, frob(d.k))
    except ValueError:
        gauge_ok = False
    bump = 0.1 * anchor(frob(mat))
    different = not _same_superop(mat, gkls_superop(d.k + bump * eye, cp), tol)
    return {
        "pass": bool(sym_ok and same and gauge_ok and different),
        "perturbation_detected": bool(different),
        "shift_same_generator": bool(same),
        "symbols_equal": bool(sym_ok),
    }


_DOMINATION_TIMES = (0.125, 0.25, 0.5, 0.75, 1.0)


def dominates(flow1: Flow, flow2: Flow) -> bool:
    """True iff exp(t L2) - exp(t L1) is completely positive at each sample,
    for the semigroups ``flow1`` of L1 and ``flow2`` of L2, which share one tolerance.

    When L2 - L1 is completely positive this holds for every t >= 0; the
    check stops at the first sampled difference that is not.  Each semigroup
    is exponentiated in its real form, so the Choi matrix of a difference is
    Hermitian bit for bit and needs no Hermiticity test: it goes straight to
    :func:`~cpsemi.numerics.is_psd`, whose Cholesky certificate keeps the rule
    and passes a CP difference without an eigenvalue.  Each semigroup reuses
    its exponentials across the times (:meth:`~cpsemi.superop.Flow.grid`);
    the grid ``_DOMINATION_TIMES`` is dyadic so that every step between
    samples is an earlier sample: one ``expm`` and four products per semigroup.
    """
    if flow1.shape != flow2.shape:
        raise ValueError("generators must act on the same algebra")
    if flow1.tol != flow2.tol:
        raise ValueError("both semigroups must share one tolerance")
    for p2, p1 in zip(flow2.grid(_DOMINATION_TIMES), flow1.grid(_DOMINATION_TIMES)):
        if not is_psd(superop_to_choi(_complex_form(p2 - p1)), flow1.tol):
            return False
    return True


def hamiltonian_lindblad(
    h: np.ndarray, ops: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Unital generator from a Hamiltonian and a family of jump operators:

        L(x) = sum_m v_m x v_m* + k x + x k*,  k = i h - (1/2) sum_m v_m v_m*.

    (Heisenberg picture: L(1) = 0.)  With W = [v_1 ... v_m], the n x mn row
    of the operators, sum_m v_m v_m* = W W*.

    :param ops: the jump operators, shape (m, n, n); ``[]`` is the empty family.
    :raises DimensionMismatch: if ``h`` is not square or ``ops`` not of shape (m, n, n).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"hamiltonian part must be square, got shape {h.shape}")
    if not is_hermitian(h, tol):
        raise NotHermitian("hamiltonian part must be Hermitian")
    n = h.shape[0]
    try:
        v = np.asarray(ops, dtype=complex)
    except ValueError as exc:
        raise DimensionMismatch(f"jump operators must be {n}x{n}") from exc
    if v.shape[1:] != (n, n) and v.shape != (0,):
        raise DimensionMismatch(f"jump operators must be {n}x{n}, got shape {v.shape}")
    v = v.reshape(-1, n, n)
    w = v.swapaxes(0, 1).reshape(n, -1)
    return gkls_superop(1j * h - 0.5 * (w @ w.conj().T), kraus_to_superop(v))
