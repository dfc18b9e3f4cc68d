"""Metric operator spaces attached to completely positive maps.

A CP map P(x) = sum_m v_m x v_m* determines a subspace E of M_n(C) spanned by
its Kraus operators, together with an inner product under which any linearly
independent Kraus family representing P is an orthonormal basis.  Concretely,
for a in E the squared norm <a, a>_E is the least c >= 0 such that
c*P - (x -> a x a*) is completely positive, and is computed here as
vec(a)* J^+ vec(a) with J the Choi matrix of P and J^+ its pseudo-inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import NotCP, NotMember, NotPSD
from .numerics import DEFAULT_TOL, Spectrum, Tolerances, spectrum
from .superop import choi_spectrum, kraus_from_spectrum, kraus_to_choi, superop_to_choi, vec

__all__ = ["MetricOperatorSpace", "space_from_spectrum", "space_from_cp_map", "space_from_kraus"]


@dataclass(frozen=True, eq=False)
class MetricOperatorSpace:
    """A subspace of M_n(C) with the inner product induced by a CP map.

    ``basis`` is an orthonormal basis in the space's own inner product (not,
    in general, in the Frobenius one).  ``u`` and ``w`` are the eigenvectors
    (n^2 x dim) and eigenvalues kept from the Choi matrix of the associated CP
    map sum_m v_m x v_m* over the basis.  ``choi`` is that Choi matrix,
    ``choi_pinv`` its pseudo-inverse and ``range_proj`` the orthogonal
    projection onto its range; each is built from ``u`` and ``w`` on first
    use and then kept, because every membership and inner-product query uses
    them.
    """

    n: int
    dim: int
    basis: tuple[np.ndarray, ...]
    u: np.ndarray
    w: np.ndarray

    @cached_property
    def choi(self) -> np.ndarray:
        return (self.u * self.w) @ self.u.conj().T

    @cached_property
    def choi_pinv(self) -> np.ndarray:
        return (self.u / self.w) @ self.u.conj().T

    @cached_property
    def range_proj(self) -> np.ndarray:
        return self.u @ self.u.conj().T

    def membership(self, a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float | None:
        """Squared norm <a, a>_E if ``a`` lies in the space, else None.

        ``a`` counts as a member when the component of vec(a) orthogonal to
        the range of the Choi matrix has norm <= eig_cut * ||vec(a)||.
        """
        r = vec(a)
        rn = float(np.linalg.norm(r))
        if rn == 0.0:
            return 0.0
        defect = float(np.linalg.norm(r - self.range_proj @ r))
        if defect > tol.eig_cut * rn:
            return None
        value = float(np.real(r.conj() @ self.choi_pinv @ r))
        return max(value, 0.0)

    def inner(self, a: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> complex:
        """Inner product <a, b>_E, linear in ``a`` and conjugate-linear in ``b``.

        :raises NotMember: if either operand is not in the space.
        """
        if self.membership(a, tol) is None:
            raise NotMember("first operand is not in the metric operator space")
        if self.membership(b, tol) is None:
            raise NotMember("second operand is not in the metric operator space")
        return complex(vec(b).conj() @ self.choi_pinv @ vec(a))

    def coords(self, a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Coordinates of a member with respect to the stored basis."""
        return np.array([self.inner(a, v, tol) for v in self.basis], dtype=complex)

    def from_coords(self, coords: Sequence[complex]) -> np.ndarray:
        """Linear combination of the stored basis with the given coordinates."""
        out = np.zeros((self.n, self.n), dtype=complex)
        for c, v in zip(coords, self.basis):
            out = out + complex(c) * v
        return out

    def split_identity(self, tol: Tolerances = DEFAULT_TOL):
        """Split off the identity direction when 1 is a member.

        Returns ``(E0, c)`` where E0 = {v in E : <v, 1>_E = 0} and c > 0 is
        the weight of the identity direction, so that the CP maps satisfy
        P_E = P_E0 + c * id.  If 1 is not a member, returns ``(self, 0.0)``.
        """
        one = np.eye(self.n, dtype=complex)
        m = self.membership(one, tol)
        if m is None or self.dim == 0:
            return self, 0.0
        gamma = self.coords(one, tol)
        nrm = float(np.linalg.norm(gamma))
        c = 1.0 / (nrm * nrm)
        if self.dim == 1:
            return _empty_space(self.n), c
        # Orthonormal coordinate vectors orthogonal to the identity direction.
        comp = scipy.linalg.null_space(gamma.conj().reshape(1, -1))
        ops = [self.from_coords(comp[:, j]) for j in range(comp.shape[1])]
        return space_from_kraus(ops, tol), c


def _empty_space(n: int) -> MetricOperatorSpace:
    return MetricOperatorSpace(
        n=n, dim=0, basis=(), u=np.zeros((n * n, 0), dtype=complex), w=np.zeros(0)
    )


def space_from_spectrum(
    s: Spectrum, tol: Tolerances = DEFAULT_TOL, basis: Sequence[np.ndarray] | None = None
) -> MetricOperatorSpace:
    """Metric operator space of the CP map whose Choi matrix has spectrum ``s``.

    The eigenpairs above the cut give everything at once: the dimension, the
    Choi matrix restricted to them, its pseudo-inverse and its range
    projection (the last three built when first queried).  The basis
    defaults to the Kraus operators read off the same eigenpairs
    (:func:`kraus_from_spectrum`); a caller that already holds an independent
    Kraus family of the map passes it as ``basis``.
    """
    keep = s.kept(tol)
    u, w = s.u[:, keep], s.w[keep]
    if basis is None:
        basis = kraus_from_spectrum(s, tol)
    return MetricOperatorSpace(
        n=int(round(np.sqrt(s.w.size))),
        dim=int(w.size),
        basis=tuple(np.asarray(v, dtype=complex).copy() for v in basis),
        u=u,
        w=w,
    )


def space_from_cp_map(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> MetricOperatorSpace:
    """Metric operator space of a completely positive map given by its
    superoperator matrix.

    The basis is read off from the eigendecomposition of the Choi matrix;
    eigenvalues at or below the cut contribute nothing.

    :raises NotCP: if the map is not completely positive within tolerance.
    """
    try:
        s = choi_spectrum(superop_to_choi(mat), tol)
    except NotPSD as exc:
        raise NotCP(f"map is not completely positive: {exc}") from exc
    return space_from_spectrum(s, tol)


def space_from_kraus(
    ops: Sequence[np.ndarray], tol: Tolerances = DEFAULT_TOL
) -> MetricOperatorSpace:
    """Metric operator space presented by an explicit Kraus family.

    The operators must be linearly independent, which is tested on the
    spectrum of their Choi matrix: it must keep one eigenvalue per operator.
    They then form an orthonormal basis of the space in its own inner product
    and are stored as given.
    """
    ops = [np.asarray(v, dtype=complex) for v in ops]
    if not ops:
        raise ValueError("need at least one Kraus operator (or use an empty space)")
    s = spectrum(kraus_to_choi(ops))
    kept = int(np.sum(s.kept(tol)))
    if kept != len(ops):
        raise ValueError(f"Kraus family is linearly dependent: the cut keeps {kept} of {len(ops)}")
    return space_from_spectrum(s, tol, basis=ops)
