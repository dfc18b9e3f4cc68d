"""Metric operator spaces attached to completely positive maps.

A CP map P(x) = sum_m v_m x v_m* determines a subspace E of M_n(C) spanned by
its Kraus operators, together with an inner product under which any linearly
independent Kraus family representing P is an orthonormal basis.  Concretely,
for a in E the squared norm <a, a>_E is the least c >= 0 such that
c*P - (x -> a x a*) is completely positive; it is read off the eigenpairs
kept from the Choi matrix of P, without forming a pseudo-inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NotMember
from .numerics import DEFAULT_TOL, Spectrum, Tolerances, within
from .superop import _operator, choi_spectrum, kraus_from_spectrum, superop_to_choi, vec

__all__ = ["MetricOperatorSpace", "space_from_spectrum", "space_from_cp_map"]


@dataclass(frozen=True, eq=False)
class MetricOperatorSpace:
    """A subspace of M_n(C) with the inner product induced by a CP map.

    ``basis`` is an orthonormal basis in the space's own inner product (not,
    in general, in the Frobenius one), a Kraus family of shape (dim, n, n):
    (0, n, n) for the zero space.  ``u`` and ``w`` are the eigenvectors
    (n^2 x dim) and eigenvalues kept from the Choi matrix J of the associated
    CP map sum_m v_m x v_m* over the basis.  Every query projects vec(a) on
    the kept eigenvectors once, c = u* vec(a): membership is read off the
    remainder vec(a) - u c, and <a, b>_E = sum_k c_a,k conj(c_b,k) / w_k,
    which equals vec(b)* J^+ vec(a) without forming the n^2 x n^2
    pseudo-inverse J^+.
    """

    n: int
    dim: int
    basis: np.ndarray
    u: np.ndarray
    w: np.ndarray

    def _project(self, a: np.ndarray, tol: Tolerances) -> np.ndarray | None:
        """c = u* vec(a) if ``a`` is a member, else None.

        ``a`` counts as a member when the component of vec(a) orthogonal to
        the kept eigenvectors, vec(a) - u c, has norm <= eig_cut * ||vec(a)||,
        with no floor: the verdict does not change when ``a`` is scaled.

        :raises DimensionMismatch: if ``a`` is not n x n.
        """
        r = vec(_operator(a, self.n))
        c = self.u.conj().T @ r
        if not within(np.linalg.norm(r - self.u @ c), tol.eig_cut, np.linalg.norm(r), floor=0.0):
            return None
        return c

    def _member(self, a: np.ndarray, tol: Tolerances, what: str) -> np.ndarray:
        c = self._project(a, tol)
        if c is None:
            raise NotMember(f"{what} is not in the metric operator space")
        return c

    def membership(self, a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float | None:
        """Squared norm <a, a>_E if ``a`` lies in the space, else None.

        :raises DimensionMismatch: if ``a`` is not n x n.
        """
        c = self._project(a, tol)
        return None if c is None else float(np.sum(np.abs(c) ** 2 / self.w))

    def inner(self, a: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> complex:
        """Inner product <a, b>_E, linear in ``a`` and conjugate-linear in ``b``.

        :raises NotMember: if either operand is not in the space.
        """
        ca = self._member(a, tol, "first operand")
        cb = self._member(b, tol, "second operand")
        return complex(np.vdot(cb, ca / self.w))

    def coords(self, a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Coordinates <a, b_j>_E of a member over the stored basis b_j.

        With B the matrix of columns vec(b_j) they are (u* B)* (c / w), taken
        here as B* (u (c / w)).

        :raises NotMember: if ``a`` is not in the space.
        """
        c = self._member(a, tol, "operand")
        return vec(self.basis).conj() @ (self.u @ (c / self.w))

    def from_coords(self, coords: Sequence[complex]) -> np.ndarray:
        """Linear combination of the stored basis with the given coordinates.

        :raises DimensionMismatch: unless there is one coordinate per basis
            element.
        """
        coords = np.asarray(coords, dtype=complex)
        if coords.shape != (self.dim,):
            raise DimensionMismatch(f"need {self.dim} coordinates, got shape {coords.shape}")
        return np.tensordot(coords, self.basis, 1)


def space_from_spectrum(s: Spectrum, tol: Tolerances = DEFAULT_TOL) -> MetricOperatorSpace:
    """Metric operator space of the CP map whose Choi matrix has spectrum ``s``.

    The eigenpairs above the cut give everything at once: the dimension,
    the basis (the Kraus operators :func:`kraus_from_spectrum` reads off
    them) and every membership and inner-product query.
    """
    keep = s.kept(tol)
    u, w = s.u[:, keep], s.w[keep]
    return MetricOperatorSpace(
        n=int(round(np.sqrt(s.w.size))),
        dim=int(w.size),
        basis=kraus_from_spectrum(s, tol),
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
    return space_from_spectrum(choi_spectrum(superop_to_choi(mat), tol), tol)
