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

from .errors import ConstraintViolated, NotHermiticityPreserving
from .numerics import DEFAULT_TOL, Spectrum, Tolerances, anchor, frob, spectrum, within
from .sampling import random_constrained_tuples
from .superop import (
    _operator,
    apply_superop,
    dim_of,
    is_hermiticity_preserving,
    superop_to_choi,
    unvec,
    vec,
)

__all__ = [
    "symbol",
    "symbols_equal",
    "recover_linear_form",
    "projected_choi",
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


def _two_sided_fit(mat: np.ndarray):
    """Least-squares fit L(x) ~ a x + x b: ``(a, b, ||fit - mat||)``.

    The minimum-norm solution of the normal equations, in closed form

        a = (Tr_1(mat) - tau * 1) / n,   b = (Tr_2(mat).T - tau * 1) / n,

    with Tr_1, Tr_2 the partial traces over the first and second tensor
    factor and tau = tr(mat) / (2n), makes tr(a) = tr(b), so b = a* whenever
    L is Hermiticity-preserving.
    """
    n = dim_of(mat)
    m4 = np.asarray(mat, dtype=complex).reshape(n, n, n, n)
    s1, s2 = np.einsum("iaib->ab", m4), np.einsum("iaja->ij", m4)
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
    residual of its two-sided fit is within ``residual`` of ||mat1|| and
    ||mat2||.  The tests hold this verdict against the n^6 symbol values on
    pairs of matrix units.
    """
    m1 = np.asarray(mat1, dtype=complex)
    m2 = np.asarray(mat2, dtype=complex)
    _, _, err = _two_sided_fit(m1 - m2)
    return within(err, tol.residual, frob(m1), frob(m2))


def recover_linear_form(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """If L(x) = a x + x b for some a, b, recover such a pair; else None.

    Kept as API (unused here) for the paper's two-sided lemma.  The pair is
    only determined up to (a + z*1, b - z*1); the gauge is fixed by the
    minimum-norm least-squares solution of :func:`_two_sided_fit`, which
    returns b = a* whenever L is Hermiticity-preserving.
    """
    a, b, err = _two_sided_fit(mat)
    if not within(err, tol.residual, frob(np.asarray(mat))):
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


def _require_hermiticity_preserving(mat: np.ndarray, tol: Tolerances) -> None:
    """The one Hermiticity-preservation guard of the CCP routes."""
    if not is_hermiticity_preserving(mat, tol):
        raise NotHermiticityPreserving(
            "generator does not preserve Hermiticity (Choi matrix not Hermitian)"
        )


def _ccp_spectrum(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """Spectrum of the projected Choi matrix of a Hermiticity-preserving map,
    the one CCP decision: the map is CCP iff the spectrum is PSD within
    ``psd_slack``, and otherwise its last eigenvector is the defect direction.
    :func:`is_conditionally_cp` takes the eigenvectors too, so that its
    eigenvalues are bit for bit those that ``decompose`` reads.

    :raises NotHermiticityPreserving: if the Choi matrix is not Hermitian.
    """
    _require_hermiticity_preserving(mat, tol)
    return spectrum(projected_choi(mat))


def is_conditionally_cp(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff ``mat`` generates a semigroup of completely positive maps:
    the map is Hermiticity-preserving and its projected Choi matrix is PSD
    within ``psd_slack``.  This is the test :func:`~cpsemi.generator.decompose`
    applies before it raises NotCCP."""
    try:
        return _ccp_spectrum(mat, tol).psd(tol)
    except NotHermiticityPreserving:
        return False


def _block_operators(
    mat: np.ndarray, xs: np.ndarray, as_: np.ndarray, tol: Tolerances
) -> np.ndarray:
    """S = sum_{j,k} a_j* L(x_j* x_k) a_k for each tuple of a stack, shape
    (count, n, n); ``xs`` and ``as_`` have shape (count, r, n, n).

    With X = [x_1 ... x_r] the blocks x_j* x_k are those of X* X; L acts on
    all their vecs in one product, and S = A* M A for the column
    A = [a_1; ...; a_r] and the block matrix M of the images L(x_j* x_k).

    :raises ConstraintViolated: if a tuple has sum_k x_k a_k != 0, beyond
        ``residual`` relative to sum_k ||x_k|| ||a_k||; the message names the
        worst one.
    """
    count, r, n, _ = xs.shape
    mat = np.asarray(mat, dtype=complex)
    total = np.linalg.norm(np.matmul(xs, as_).sum(axis=1), axis=(-2, -1))
    sizes = np.linalg.norm(xs, axis=(-2, -1)) * np.linalg.norm(as_, axis=(-2, -1))
    scale = anchor(sizes.sum(axis=1))
    if not np.all(within(total, tol.residual, scale)):
        worst = int(np.argmax(total / scale))
        raise ConstraintViolated(
            f"sum_k x_k a_k has norm {total[worst]:.3e}, expected 0"
            + (f" (tuple {worst} of {count})" if count > 1 else "")
        )
    big_x = xs.transpose(0, 2, 1, 3).reshape(count, n, r * n)
    gram = big_x.conj().swapaxes(-1, -2) @ big_x
    vecs = gram.reshape(count, r, n, r, n).transpose(0, 1, 3, 4, 2)
    images = (vecs.reshape(count, r, r, n * n) @ mat.T).reshape(count, r, r, n, n)
    blocks = images.transpose(0, 1, 4, 2, 3).reshape(count, r * n, r * n)
    col = as_.reshape(count, r * n, n)
    return col.conj().swapaxes(-1, -2) @ blocks @ col


def _block_psd(
    mat: np.ndarray, xs: np.ndarray, as_: np.ndarray, tol: Tolerances
) -> np.ndarray:
    """One PSD verdict per tuple of the stack, from one stacked spectrum."""
    return spectrum(_block_operators(mat, xs, as_, tol), vectors=False).psd(tol)


def check_block_positivity(
    mat: np.ndarray,
    xs: list[np.ndarray],
    as_: list[np.ndarray],
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """Constrained positivity test over one tuple.

    Requires sum_k x_k a_k = 0; then checks that the operator

        S = sum_{j,k} a_j* L(x_j* x_k) a_k

    is PSD.  For a Hermiticity-preserving L, conditional complete positivity
    is equivalent to this holding for every constrained tuple.

    :raises ConstraintViolated: if the lists differ in length or are empty,
        or the tuple does not satisfy the constraint.
    :raises DimensionMismatch: if an operator is not n x n.
    :raises NotHermiticityPreserving: if L is not Hermiticity-preserving.
    """
    if len(xs) != len(as_) or len(xs) == 0:
        raise ConstraintViolated("need equally many x's and a's, at least one each")
    n = dim_of(mat)
    ops = [_operator(op, n) for op in (*xs, *as_)]
    _require_hermiticity_preserving(mat, tol)
    stack = np.stack(ops).reshape(2, 1, len(xs), n, n)
    return bool(_block_psd(mat, stack[0], stack[1], tol)[0])


def _defect_tuple(mat: np.ndarray):
    """Constrained tuple built from the projected-Choi defect direction, as
    two arrays of shape (n, n, n).

    If the projected Choi matrix has a negative eigenvalue with eigenvector
    u, the tuple x_k = E_0k, a_k = (column k of unvec(u)) e_0* violates the
    block positivity test, because the quadratic form of the block matrix at
    (e_0, ..., e_0) equals u* J u.
    """
    n = dim_of(mat)
    u = spectrum(projected_choi(mat)).u[:, -1]
    omega = vec(np.eye(n))
    u = u - omega * (omega.conj() @ u) / n  # enforce the traceless constraint
    bigu = unvec(u, n)
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    xs = np.zeros((n, n, n), dtype=complex)
    xs[np.arange(n), 0, np.arange(n)] = 1.0
    as_ = bigu.T[:, :, None] * e0.conj()
    return xs, as_


def block_positivity_witness(
    mat: np.ndarray,
    n_tuples: int = 50,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
):
    """Search for a constrained tuple violating block positivity.

    Draws ``n_tuples`` random constrained tuples at once and decides them as
    one stack, then tries the deterministic tuple derived from the
    projected-Choi defect direction.  Returns the first violating
    ``(xs, as_)`` in that order, as two lists, or None if everything checks
    out positive.

    :raises NotHermiticityPreserving: if L is not Hermiticity-preserving;
        the tuple criterion cannot see an anti-Hermitian part such as i c id.
    """
    _require_hermiticity_preserving(mat, tol)
    n = dim_of(mat)
    xs, as_ = random_constrained_tuples(np.random.default_rng(seed), n, n_tuples)
    verdicts = _block_psd(mat, xs, as_, tol)
    if not verdicts.all():
        first = int(np.argmin(verdicts))
        return list(xs[first]), list(as_[first])
    xs, as_ = _defect_tuple(mat)
    if not _block_psd(mat, xs[None], as_[None], tol)[0]:
        return list(xs), list(as_)
    return None
