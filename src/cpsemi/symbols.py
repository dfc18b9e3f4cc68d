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

from .errors import ConstraintViolated, NotCCP, NotHermiticityPreserving
from .numerics import (
    _FACTOR_MARGIN, DEFAULT_TOL, Spectrum, Tolerances, _diagonal_scale, _factor_spectrum,
    _hermitian_spectrum, _kept_by_margin, _require_finite, anchor, frob, is_hermitian,
    spectrum, within,
)
from .sampling import random_constrained_tuples
from .superop import _fix_phases, _operator, dim_of, superop_to_choi, unvec, vec

__all__ = [
    "symbols_equal",
    "projected_choi",
    "is_conditionally_cp",
    "rank",
    "check_block_positivity",
    "block_positivity_witness",
]


def _two_sided_fit(mat: np.ndarray):
    """Least-squares fit L(x) ~ a x + x b: ``(a, b)``.

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
    return a, b


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
    diff = m1 - m2
    a, b = _two_sided_fit(diff)
    n = dim_of(diff)
    rebuilt = np.kron(np.eye(n), a) + np.kron(b.T, np.eye(n))
    return within(frob(rebuilt - diff), tol.residual, frob(m1), frob(m2))


def projected_choi(j: np.ndarray) -> np.ndarray:
    """P J P, P = 1 - omega omega* / n the projection onto vec(1)^perp, hermitized
    (Hermitian bit for bit), written over the complex Choi matrix ``j``.  omega
    is 1 at the positions ``::n+1``, so J P is J less the mean of those columns
    in each of them, and P J P is J P less the mean of those rows in each: O(n^3).
    Each mean is taken off twice, the second time the first's rounding residue,
    so that omega stays in the kernel where x -> a x + x b puts a large J there."""
    n = dim_of(j)
    cols, rows = j[:, :: n + 1], j[:: n + 1]
    mean = np.full((n, 1), 1.0 / n, dtype=complex)
    for _ in range(2):
        cols -= cols @ mean  # J P
    for _ in range(2):
        rows -= mean.T @ rows  # P J P
    j += j.conj().T
    j *= 0.5
    return j


def _require_hermiticity_preserving(mat: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The one Hermiticity-preservation guard of the CCP routes; returns the
    Choi matrix of ``mat``, a fresh array (Overflow if it is not finite)."""
    j = superop_to_choi(mat)
    if not is_hermitian(j, tol):
        raise NotHermiticityPreserving(
            "generator does not preserve Hermiticity (Choi matrix not Hermitian)"
        )
    return j


# Below n = 8 the certificates cost as much as the eigendecomposition
# (35-70 us at n <= 4), and the goldens at n <= 4 keep the eigendecomposition's
# signs of zero (the factor path writes the dephasing golden's -0.0 as +0.0):
# there one eigendecomposition answers every question.
_FACTOR_MIN_N = 8


def _projected(mat: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The projected Choi matrix of a Hermiticity-preserving map, written over
    the guard's Choi matrix.

    :raises NotHermiticityPreserving: if the Choi matrix is not Hermitian.
    """
    return projected_choi(_require_hermiticity_preserving(mat, tol))


def _ccp_spectrum(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """Spectrum of the projected Choi matrix h of a Hermiticity-preserving
    map, as much of it as a Kraus basis or a witness reads: the map is CCP
    iff it is PSD within ``psd_slack`` (:func:`_require_ccp`).

    From n = 8 a pivoted Cholesky factor is tried, which certifies the kept
    pairs of a PSD h (:func:`~cpsemi.numerics._factor_spectrum`); a pivot
    below -psd_slack s_lo at any step sends h to its eigenvalues alone and
    one solve for the lowest eigenvector
    (:func:`~cpsemi.numerics._witness_spectrum`).  Below n = 8, or where the
    factor declines, one full eigendecomposition gives every pair: the one
    fallback of every rank, CCP verdict and Kraus basis.

    :raises NotHermiticityPreserving: if the Choi matrix is not Hermitian.
    """
    h = _projected(mat, tol)
    s = _factor_spectrum(h, tol) if dim_of(mat) >= _FACTOR_MIN_N else None
    return _hermitian_spectrum(h, True) if s is None else s


def _full_rank_certified(h: np.ndarray, tol: Tolerances) -> bool:
    """True iff one Cholesky factorisation certifies that ``h``, Hermitian and
    n^2 x n^2, is PSD with n^2 - 1 eigenvalues kept and the one along omega =
    vec(1) (1 at ``::n+1``) dropped by :class:`Spectrum`'s rules: rank n^2 - 1.

    With w = omega / sqrt(n) and U = anchor(||h||_F) >= ``scale``, a factor of
    h + U w w* - c 1, c = 10 eig_cut U (:func:`~cpsemi.numerics._kept_by_margin`),
    puts every eigenvalue of h + U w w* above c, and by rank-one interlacing
    (the i-th eigenvalue of h is at least the (i + 1)-th of h + U w w*) the
    n^2 - 1 largest of h too: kept, by a margin of 10.  h has an eigenvalue
    within ||h w|| of 0, and when ||h w|| <= min(eig_cut, psd_slack) s_lo / 10
    < c it can only be the last: dropped and PSD, by a margin of 10 again
    (s_lo = anchor(max |h_ii|) <= ``scale``).  That test, a column sum, is first.
    """
    _require_finite(h)
    n = dim_of(h)
    ones = slice(None, None, n + 1)  # omega's support
    hw = np.linalg.norm(h[:, ones].sum(axis=1)) / np.sqrt(n)
    if not within(_FACTOR_MARGIN * hw, min(tol.eig_cut, tol.psd_slack), _diagonal_scale(h)):
        return False
    top = anchor(frob(h))
    g = h.copy()
    g[ones, ones] += top / n
    return _kept_by_margin(g, top, tol)


def rank(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Rank of a generator: the dimension of its metric operator space, the
    rank of its projected Choi matrix h.  It is also the numerical index of
    the semigroup the generator generates (the index of its minimal dilation
    to a semigroup of *-endomorphisms), so :func:`cpsemi.semigroup.index` is
    this function.

    It counts the kept pairs of :func:`_ccp_spectrum`, the spectrum that
    :func:`~cpsemi.generator.decompose` reads, so the two agree at every
    tolerance, and builds no canonical form.  One more certificate comes
    before the eigendecomposition: from n = 8, where the factor declines and
    one Cholesky factorisation certifies it (:func:`_full_rank_certified`),
    the rank is n^2 - 1, the largest, with no eigenvalue computed.

    :raises NotHermiticityPreserving: if the Choi matrix is not Hermitian.
    :raises NotCCP: as :func:`_require_ccp`.
    :raises Overflow: if the Choi matrix, or a norm a decision is anchored at, is not finite.
    """
    h = _projected(mat, tol)
    if dim_of(mat) < _FACTOR_MIN_N:
        s = _hermitian_spectrum(h, True)
    elif (s := _factor_spectrum(h, tol)) is None:
        if _full_rank_certified(h, tol):
            return len(h) - 1
        s = _hermitian_spectrum(h, True)
    return int(_require_ccp(s, tol).kept(tol).sum())


def _require_ccp(s: Spectrum, tol: Tolerances) -> Spectrum:
    """``s``, a spectrum of :func:`_ccp_spectrum` or :func:`rank`, if it
    is PSD within ``psd_slack``.

    :raises NotCCP: if it is not; the witness attached is its lowest
        eigenvector, with the phase that :func:`~cpsemi.superop.kraus_from_spectrum`
        gives a Kraus operator, so that it does not depend on how it was found.
    """
    if s.psd(tol):
        return s
    low = float(s.w[-1])
    raise NotCCP(
        f"projected Choi matrix has negative eigenvalue {low:.3e}",
        witness=vec(_fix_phases(unvec(s.u[:, -1])[None])[0]),
        eigenvalue=low,
    )


def is_conditionally_cp(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff ``mat`` generates a semigroup of completely positive maps:
    the map is Hermiticity-preserving and its projected Choi matrix is PSD
    within ``psd_slack``.  This is the verdict of :func:`rank`, the test
    that :func:`~cpsemi.generator.decompose` applies before it raises NotCCP."""
    try:
        rank(mat, tol)
    except (NotCCP, NotHermiticityPreserving):
        return False
    return True


def _block_operators(
    mat: np.ndarray, xs: np.ndarray, as_: np.ndarray, tol: Tolerances
) -> np.ndarray:
    """S = sum_{j,k} a_j* L(x_j* x_k) a_k for each tuple of a stack, shape
    (count, n, n); ``xs`` and ``as_`` have shape (count, r, n, n).

    With X = [x_1 ... x_r] and the column A = [a_1; ...; a_r], the constraint
    is X A = 0, the blocks x_j* x_k are those of X* X, and S = A* M A for the
    block matrix M of the images L(x_j* x_k).  L acts on the vecs of all
    count r^2 blocks as one (count r^2) x n^2 by n^2 x n^2 product.

    :raises ConstraintViolated: if a tuple has sum_k x_k a_k != 0, beyond
        ``residual`` relative to sum_k ||x_k|| ||a_k||; the message names the
        worst one.
    """
    count, r, n, _ = xs.shape
    mat = np.asarray(mat, dtype=complex)
    big_x = xs.transpose(0, 2, 1, 3).reshape(count, n, r * n)
    col = as_.reshape(count, r * n, n)
    total = np.linalg.norm(big_x @ col, axis=(-2, -1))
    sizes = np.linalg.norm(xs, axis=(-2, -1)) * np.linalg.norm(as_, axis=(-2, -1))
    scale = anchor(sizes.sum(axis=1))
    if not np.all(within(total, tol.residual, scale)):
        worst = int(np.argmax(total / scale))
        raise ConstraintViolated(
            f"sum_k x_k a_k has norm {total[worst]:.3e}, expected 0"
            + (f" (tuple {worst} of {count})" if count > 1 else "")
        )
    gram = big_x.conj().swapaxes(-1, -2) @ big_x
    vecs = gram.reshape(count, r, n, r, n).transpose(0, 1, 3, 4, 2)
    images = (vecs.reshape(count * r * r, n * n) @ mat.T).reshape(count, r, r, n, n)
    blocks = images.transpose(0, 1, 4, 2, 3).reshape(count, r * n, r * n)
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


def _defect_tuple(mat: np.ndarray, choi: np.ndarray):
    """Constrained tuple built from the projected-Choi defect direction, as
    two arrays of shape (n, n, n), from the guard's Choi matrix ``choi``.

    If the projected Choi matrix has a negative eigenvalue with eigenvector
    u, the tuple x_k = E_0k, a_k = (column k of unvec(u)) e_0* violates the
    block positivity test, because the quadratic form of the block matrix at
    (e_0, ..., e_0) equals u* J u.  That lowest eigenvector is only in the
    full eigendecomposition, never in the factor certificate.
    """
    n = dim_of(mat)
    u = _hermitian_spectrum(projected_choi(choi), True).u[:, -1]
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
    choi = _require_hermiticity_preserving(mat, tol)
    n = dim_of(mat)
    xs, as_ = random_constrained_tuples(np.random.default_rng(seed), n, n_tuples)
    verdicts = _block_psd(mat, xs, as_, tol)
    if not verdicts.all():
        first = int(np.argmin(verdicts))
        return list(xs[first]), list(as_[first])
    xs, as_ = _defect_tuple(mat, choi)
    if not _block_psd(mat, xs[None], as_[None], tol)[0]:
        return list(xs), list(as_)
    return None
