"""The symbol of a linear map on M_n(C) and conditional complete positivity.

For a linear map L the symbol is the bilinear form

    sigma_L(x, y) = L(x y) - x L(y) - L(x) y + x L(1) y,

which vanishes identically iff L(x) = a x + x b for some fixed a, b.  The
sign conventions here are such that for a completely positive map the
quadratic form built from sigma is positive, and a Hermiticity-preserving L
generates a semigroup of completely positive maps iff the compression of its
Choi matrix to the orthogonal complement of vec(1) is PSD ("conditionally
completely positive").  That projected-Choi test is the implementation of
record; two independent routes (exponentiation, and block matrices over
constrained tuples) are provided for cross-validation.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstraintViolated
from .numerics import DEFAULT_TOL, Tolerances, frob, spectrum
from .superop import (
    apply_superop,
    dim_of,
    is_hermiticity_preserving,
    superop_to_choi,
    unvec,
    vec,
)

__all__ = [
    "symbol",
    "symbol_table",
    "symbols_equal",
    "recover_linear_form",
    "projected_choi",
    "ccp_defect",
    "is_conditionally_cp",
    "check_block_positivity",
    "block_positivity_witness",
]


def symbol(mat: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate sigma_L(x, y) for the map L with superoperator matrix ``mat``."""
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


def _unit_images(mat: np.ndarray) -> np.ndarray:
    """Tensor LE with LE[i, j] = L(E_ij) as an n x n block."""
    n = dim_of(mat)
    le = np.empty((n, n, n, n), dtype=complex)
    m = np.asarray(mat, dtype=complex)
    for i in range(n):
        for j in range(n):
            le[i, j] = unvec(m[:, j * n + i], n)
    return le


def symbol_table(mat: np.ndarray) -> np.ndarray:
    """All symbol values on pairs of matrix units.

    :return: tensor ``T`` of shape (n, n, n, n, n, n) with
        ``T[i, j, k, l] = sigma_L(E_ij, E_kl)``.
    """
    n = dim_of(mat)
    le = _unit_images(mat)
    lone = apply_superop(mat, np.eye(n))
    eye = np.eye(n)
    t1 = np.einsum("jk,ilab->ijklab", eye, le)
    t2 = np.einsum("ai,kljb->ijklab", eye, le)
    t3 = np.einsum("ijak,bl->ijklab", le, eye)
    t4 = np.einsum("jk,ai,bl->ijklab", lone, eye, eye)
    return t1 - t2 - t3 + t4


def _partial_traces(mat: np.ndarray):
    """Partial traces (S1, S2) of a superoperator matrix over its first and
    second tensor factor, the data of every two-sided least-squares fit."""
    n = dim_of(mat)
    m4 = np.asarray(mat, dtype=complex).reshape(n, n, n, n)
    s1 = np.einsum("iaib->ab", m4)
    s2 = np.einsum("iaja->ij", m4)
    return s1, s2


def _two_sided_fit(mat: np.ndarray):
    """Least-squares fit L(x) ~ a x + x b: ``(a, b, ||fit - mat||)``.

    The minimum-norm solution of the normal equations, in closed form

        a = (Tr_1(mat) - tau * 1) / n,   b = (Tr_2(mat).T - tau * 1) / n,

    with tau = tr(mat) / (2n), makes tr(a) = tr(b), so b = a* whenever L is
    Hermiticity-preserving.
    """
    n = dim_of(mat)
    s1, s2 = _partial_traces(mat)
    tau = np.trace(np.asarray(mat, dtype=complex)) / (2.0 * n)
    a = (s1 - tau * np.eye(n)) / n
    b = (s2.T - tau * np.eye(n)) / n
    rebuilt = np.kron(np.eye(n), a) + np.kron(b.T, np.eye(n))
    return a, b, frob(rebuilt - mat)


def symbols_equal(
    mat1: np.ndarray, mat2: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """True iff the two maps have the same symbol.

    The symbol is linear in L and vanishes exactly on the two-sided maps
    x -> a x + x b, so the symbols agree iff L1 - L2 is two-sided: the
    residual of its two-sided fit is at most ``residual`` times
    max(1, ||mat1||, ||mat2||).  :func:`symbol_table` gives the same verdict
    from the n^6 symbol values.
    """
    m1 = np.asarray(mat1, dtype=complex)
    m2 = np.asarray(mat2, dtype=complex)
    _, _, err = _two_sided_fit(m1 - m2)
    return err <= tol.residual * max(1.0, frob(m1), frob(m2))


def recover_linear_form(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """If L(x) = a x + x b for some a, b, recover such a pair; else None.

    The pair is only determined up to (a + z*1, b - z*1); the gauge is fixed
    by the minimum-norm least-squares solution of :func:`_two_sided_fit`,
    which returns b = a* whenever L is Hermiticity-preserving.
    """
    a, b, err = _two_sided_fit(mat)
    if err > tol.residual * max(1.0, frob(np.asarray(mat))):
        return None
    return a, b


def projected_choi(mat: np.ndarray) -> np.ndarray:
    """Compression of the Choi matrix to the orthogonal complement of vec(1),
    hermitized."""
    n = dim_of(mat)
    j = superop_to_choi(mat)
    omega = vec(np.eye(n))
    proj = np.eye(n * n, dtype=complex) - np.outer(omega, omega.conj()) / n
    jp = proj @ j @ proj
    return (jp + jp.conj().T) / 2.0


def ccp_defect(mat: np.ndarray):
    """Smallest eigenvalue of the projected Choi matrix along with a matching
    eigenvector and the comparison scale max(1, largest |eigenvalue|)."""
    s = spectrum(projected_choi(mat))
    return float(s.w[-1]), s.u[:, -1].copy(), s.scale


def is_conditionally_cp(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff ``mat`` generates a semigroup of completely positive maps:
    the map is Hermiticity-preserving and its projected Choi matrix is PSD
    within ``psd_slack``.  This is the test :func:`~cpsemi.generator.decompose`
    applies before it raises NotCCP."""
    if not is_hermiticity_preserving(mat, tol):
        return False
    return spectrum(projected_choi(mat)).psd(tol)


def check_block_positivity(
    mat: np.ndarray,
    xs: list[np.ndarray],
    as_: list[np.ndarray],
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """Constrained positivity test over one tuple.

    Requires sum_k x_k a_k = 0; then checks that the operator

        S = sum_{j,k} a_j* L(x_j* x_k) a_k

    is PSD.  Conditional complete positivity of L is equivalent to this
    holding for every constrained tuple.

    :raises ConstraintViolated: if the tuple does not satisfy the constraint.
    """
    if len(xs) != len(as_) or not xs:
        raise ConstraintViolated("need equally many x's and a's, at least one each")
    n = dim_of(mat)
    xs = [np.asarray(x, dtype=complex) for x in xs]
    as_ = [np.asarray(a, dtype=complex) for a in as_]
    total = sum(x @ a for x, a in zip(xs, as_))
    scale = max(1.0, sum(frob(x) * frob(a) for x, a in zip(xs, as_)))
    if frob(total) > tol.residual * scale:
        raise ConstraintViolated(
            f"sum_k x_k a_k has norm {frob(total):.3e}, expected 0"
        )
    s = np.zeros((n, n), dtype=complex)
    for j, (xj, aj) in enumerate(zip(xs, as_)):
        for xk, ak in zip(xs, as_):
            mid = apply_superop(mat, xj.conj().T @ xk)
            s += aj.conj().T @ mid @ ak
    return spectrum(s, vectors=False).psd(tol)


def _defect_tuple(mat: np.ndarray):
    """Constrained tuple built from the projected-Choi defect direction.

    If the projected Choi matrix has a negative eigenvalue with eigenvector
    u, the tuple x_k = E_0k, a_k = (column k of unvec(u)) e_0* violates the
    block positivity test, because the quadratic form of the block matrix at
    (e_0, ..., e_0) equals u* J u.
    """
    n = dim_of(mat)
    _, u, _ = ccp_defect(mat)
    omega = vec(np.eye(n))
    u = u - omega * (omega.conj() @ u) / n  # enforce the traceless constraint
    bigu = unvec(u, n)
    xs = []
    as_ = []
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    for k in range(n):
        x = np.zeros((n, n), dtype=complex)
        x[0, k] = 1.0
        xs.append(x)
        as_.append(np.outer(bigu[:, k], e0.conj()))
    return xs, as_


def block_positivity_witness(
    mat: np.ndarray,
    n_tuples: int = 50,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
):
    """Search for a constrained tuple violating block positivity.

    Tries ``n_tuples`` random constrained tuples, then the deterministic
    tuple derived from the projected-Choi defect direction.  Returns the
    violating ``(xs, as_)`` or None if everything checks out positive.
    """
    from .sampling import random_constrained_tuple

    rng = np.random.default_rng(seed)
    n = dim_of(mat)
    for _ in range(n_tuples):
        xs, as_ = random_constrained_tuple(rng, n)
        if not check_block_positivity(mat, xs, as_, tol):
            return xs, as_
    xs, as_ = _defect_tuple(mat)
    if not check_block_positivity(mat, xs, as_, tol):
        return xs, as_
    return None
