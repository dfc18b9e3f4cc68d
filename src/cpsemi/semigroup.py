"""Semigroups exp(tL), their metric operator spaces, units and covariance.

A unit of the semigroup P_t = exp(tL) is the family

    T(t) = exp(c t) * exp(t (v + k)),

for a scalar c and a member v of the generator's metric operator space E;
e^{alpha t} P_t - (x -> T x T*) is CP for alpha = <v, v> + 2 Re c, so T(t)
lies in the space of P_t, with squared norm at most e^{alpha t}.  The
covariance of two units has the closed form c1 + conj(c2) + <v1, v2>, and
is recovered numerically by the uniform-partition estimator

    (m / t) * Log <T1(t/m), T2(t/m)>_{E(t/m)}

with the principal logarithm.  The dimension of E is the rank of the
generator and the numerical index of the minimal dilation of the semigroup
to a semigroup of *-endomorphisms; it is also recovered as the rank of the
centered Gram matrix of the covariance kernel over any spanning sample of
units.

A decision about one semigroup is made at the tolerance of its :class:`Flow`,
and one about a space at the tolerance that space was cut at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, LogBranch, NotMember, OwnerMismatch, Overflow
from .generator import GklsForm
from .numerics import (
    DEFAULT_TOL, Tolerances, _expm_rounding, _kept_by_margin, anchor, expm, frob, is_psd,
    spectrum, within,
)
from .opspace import MetricOperatorSpace, space_from_cp_map
from .superop import Flow, _complex_form, choi_spectrum, superop_to_choi, vec
from .symbols import rank as index  # the numerical index is the generator's rank

__all__ = [
    "evolve",
    "space_at",
    "product_system_check",
    "Unit",
    "make_unit",
    "unit_matrix",
    "verify_units",
    "covariance",
    "covariance_estimate",
    "index",
    "covariance_kernel",
    "gram_dimension",
    "sample_units",
]

# Guard zone around the branch cut of the principal logarithm.
_BRANCH_ANGLE = 1e-8
_BRANCH_MODULUS = 1e-300


def evolve(mat: np.ndarray, t: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Superoperator matrix of exp(t L), taken of L's real form (:meth:`Flow.at`) so
    that it preserves Hermiticity exactly; raises NotHermiticityPreserving if L does
    not, and ValueError unless 0 <= t < inf."""
    return _complex_form(Flow(mat, tol).at(t))


def space_at(flow: Flow, t: float) -> MetricOperatorSpace:
    """Metric operator space of exp(t L) for t > 0, cut at ``flow.tol``.

    :raises NotCP: if exp(t L) is not completely positive within tolerance
        (i.e. L was not a generator to begin with).
    """
    if t <= 0:
        raise ValueError("the space is defined for strictly positive times")
    return space_from_cp_map(_complex_form(flow.at(t)), flow.tol)


def product_system_check(flow: Flow, s: float, t: float) -> bool:
    """Check the semigroup law P_s P_t = P_{s+t} and that E(s) E(t) spans E(s + t).

    The law holds when ||P_s P_t - P_{s+t}||_F, less the rounding that
    exp((s + t) L) itself may carry (:func:`~cpsemi.numerics._expm_rounding`,
    which grows with ||(s + t) L||), is within ``residual`` of
    anchor(||P_s P_t||_F, ||P_{s+t}||_F), compared in L's real form, whose
    Frobenius norms are those of the maps.  Every decision is taken with
    ``flow.tol``.

    Products of Kraus operators of P_s and P_t are Kraus operators of
    P_s P_t, so E(s) E(t) spans the range of A = J(P_s P_t) and E(s + t) that
    of B = J(P_{s+t}).  Both are PSD, so the range of A + B is the sum of
    their ranges: the spans are equal iff the ranks of A, B and A + B agree.
    No rank is computed where :func:`~cpsemi.numerics._kept_by_margin` finds
    every eigenvalue of J = A, B above 10 eig_cut U_J, U_J = anchor(||J||_F):
    all n^2 of each are kept, and of A + B, as lambda_min(A + B) >=
    lambda_min(A) + lambda_min(B) > 10 eig_cut (U_A + U_B) >= 10 eig_cut
    anchor(||A + B||_F); A and B, Hermitian bit for bit, are then positive
    definite, so :func:`~cpsemi.superop.choi_spectrum` would raise no NotCP.
    On its own this tests the semigroup law of the exponential at the level
    of Choi ranges; it does not test the Kraus bases :func:`space_at`
    extracts from those ranges, which ``test_space_at_goldens`` and
    acceptance criterion 2 cover.

    Each time of {s, t, s + t} is read from :meth:`Flow.at`, which holds one
    direct exponential of L's real form per time (two when s == t) and
    never a product of :meth:`Flow.grid`, and the product is taken in that
    form.  The check never derives exp((s + t) L) from the factors: the law
    it tests would then hold by construction.  Where the law fails, no
    factorisation and no rank is computed.

    :raises NotCP: if exp(s L) exp(t L) or exp((s + t) L) is not completely
        positive within tolerance (i.e. L was not a generator to begin with).
    """
    if s <= 0 or t <= 0:
        raise ValueError("the spaces are defined for strictly positive times")
    tol = flow.tol
    p_s, p_t, p_st = flow.at(s), flow.at(t), flow.at(s + t)
    prod = p_s @ p_t
    error = frob(prod - p_st) - _expm_rounding((s + t) * flow.real, p_st)
    if not within(error, tol.residual, frob(prod), frob(p_st)):
        return False
    j_prod = superop_to_choi(_complex_form(prod))
    j_target = superop_to_choi(_complex_form(p_st))
    if all(_kept_by_margin(j, anchor(frob(j)), tol) for j in (j_prod, j_target)):
        return True
    r_prod = choi_spectrum(j_prod, tol, vectors=False).kept(tol).sum()
    r_target = choi_spectrum(j_target, tol, vectors=False).kept(tol).sum()
    r_union = spectrum(j_prod + j_target, vectors=False).kept(tol).sum()
    return bool(r_prod == r_target == r_union)


@dataclass(frozen=True, eq=False)
class Unit:
    """A unit of exp(tL), recorded by its scalar part and the coordinates of
    its vector part over the owner's space basis."""

    c: complex
    v_coords: np.ndarray
    owner: GklsForm


def make_unit(d: GklsForm, c: complex, v_coords: Sequence[complex]) -> Unit:
    coords = np.asarray(list(v_coords), dtype=complex)
    if coords.size != d.space.dim:
        raise DimensionMismatch(
            f"need {d.space.dim} coordinates, got {coords.size}"
        )
    return Unit(c=complex(c), v_coords=coords, owner=d)


def unit_matrix(u: Unit, t: float) -> np.ndarray:
    """The operator T(t) = exp(c t) exp(t (v + k)) of a unit, computed as
    the one exponential exp(t (v + k + c 1)), since c 1 commutes.

    :raises Overflow: if its norm is not finite.
    """
    d = u.owner
    v = d.space.from_coords(u.v_coords)
    return expm(t * (v + d.k + u.c * np.eye(d.n)))


def verify_units(
    flow: Flow,
    units: Sequence[Unit],
    t_samples: Sequence[float] = (0.1, 0.5, 1.0),
) -> bool:
    """Verify the defining property of every unit against ``flow``, the
    semigroup of L: at each sampled t, the Choi matrix of e^{alpha t} exp(tL) -
    (x -> T x T*) is PSD within the ``psd_slack`` of ``flow.tol``,
    alpha = <v, v> + 2 Re c.
    ||a||^2_E(t) is the least c >= 0 for which c P_t - (x -> a x a*) is CP,
    and only members of E(t) have one: the test also says that T(t) lies in
    E(t), and no membership is tested.  :func:`~cpsemi.numerics.is_psd`
    decides it, so a passing unit costs no eigenvalue.  The Choi matrix of
    x -> T x T* is vec(T) vec(T)*, so each unit is checked against the one
    Choi matrix J_t of exp(tL).  A single unit is ``[u]``; to lower every
    alpha by s, pass ``Flow(L - s id)`` (its semigroup is e^{-st} exp(tL)).

    exp(tL) is computed once per sampled t for all units, reusing earlier
    times' exponentials (:meth:`Flow.grid`).  Returns False at the first
    failure; raises Overflow if a difference is not finite, and ValueError
    at the first time that is not 0 <= t < inf.
    """
    alphas = [float(np.vdot(u.v_coords, u.v_coords).real + 2.0 * u.c.real) for u in units]
    for t, big in zip(t_samples, map(_complex_form, flow.grid(t_samples))):
        choi = superop_to_choi(big)
        for u, a in zip(units, alphas):
            r = vec(unit_matrix(u, t))
            with np.errstate(over="ignore", invalid="ignore"):  # is_psd raises Overflow
                diff = np.exp(a * t) * choi - np.outer(r, r.conj())
            if not is_psd(diff, flow.tol):
                return False
    return True


def covariance(d: GklsForm, u1: Unit, u2: Unit) -> complex:
    """Closed-form covariance c1 + conj(c2) + <v1, v2> of two units over ``d``."""
    if u1.owner is not d or u2.owner is not d:
        raise OwnerMismatch("both units must be built over the given form")
    return complex(u1.c + np.conj(u2.c) + np.vdot(u2.v_coords, u1.v_coords))


def covariance_estimate(flow: Flow, u1: Unit, u2: Unit, t: float = 1.0, m: int = 512) -> complex:
    """Uniform-partition estimate of the covariance of two units.

    Evaluates (m / t) * Log <T1(t/m), T2(t/m)> in the space of exp((t/m) L),
    :func:`space_at` of the semigroup ``flow``, with the principal logarithm.

    :raises NotMember: if a unit operator leaves the step space (the step
        t/m is too coarse for the membership tolerance).
    :raises LogBranch: if the inner product lands on or too close to the
        branch cut of the principal logarithm.
    :raises Overflow: if an exponential or the estimate is not finite.
    """
    if u1.owner is not u2.owner:
        raise OwnerMismatch("units must share an owner")
    if t <= 0 or m < 1:
        raise ValueError("need t > 0 and m >= 1")
    delta = t / m
    step_space = space_at(flow, delta)
    c1 = step_space._project(unit_matrix(u1, delta))
    if c1 is None:
        raise NotMember("first unit operator is not in the step space")
    c2 = step_space._project(unit_matrix(u2, delta))
    if c2 is None:
        raise NotMember("second unit operator is not in the step space")
    z = complex(np.vdot(c2, c1 / step_space.w))  # the inner product <T1, T2> in E(t/m)
    if abs(z) < _BRANCH_MODULUS:
        raise LogBranch("inner product vanished; logarithm undefined")
    if np.pi - abs(np.angle(z)) < _BRANCH_ANGLE:
        raise LogBranch("inner product too close to the negative real axis")
    with np.errstate(over="ignore", invalid="ignore"):
        estimate = complex(m / t) * np.log(z)
    if not np.isfinite(estimate):
        raise Overflow("covariance estimate overflows: (m / t) * Log z is not finite")
    return estimate


def covariance_kernel(d: GklsForm, units: Sequence[Unit]) -> np.ndarray:
    """Matrix of the closed-form covariances :func:`covariance` of every
    pair of units over ``d``, as one product: with c the scalar parts and V
    the rows of vector coordinates, K = c 1^T + 1 c^* + V V^*, so
    K[i, j] = c_i + conj(c_j) + <v_i, v_j>."""
    if any(u.owner is not d for u in units):
        raise OwnerMismatch("all units must be built over the given form")
    c = np.array([u.c for u in units], dtype=complex)
    v = np.array([u.v_coords for u in units], dtype=complex).reshape(c.size, d.space.dim)
    return c[:, None] + c.conj()[None, :] + v @ v.conj().T


def gram_dimension(kernel: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Rank of the centered Gram matrix of a covariance kernel matrix.

    With base point x0 (the first sample) the centered matrix is
    G[m, m'] = c(x_m, x_m') - c(x_m, x0) - c(x0, x_m') + c(x0, x0), the
    Gram matrix of the differences v_m - v_0 of the vector parts.  It is
    Hermitian PSD, so its rank is read off its eigenvalues; it recovers the
    dimension of the space spanned by the vector parts, i.e. the index.
    """
    c = np.asarray(kernel, dtype=complex)
    if c.shape[0] < 2:
        raise ValueError("need at least two sampled units")
    g = c[1:, 1:] - c[1:, :1] - c[:1, 1:] + c[0, 0]
    return int(spectrum(g, vectors=False).kept(tol).sum())


def sample_units(d: GklsForm, count: int, seed: int = 0) -> list[Unit]:
    """Deterministic spanning sample of units over a canonical form.

    The first unit is trivial (c = 0, v = 0); the next dim(E) units run
    through the basis directions with scalar parts cycling over {0, 1, i};
    the remainder use random coordinate vectors from the seeded generator.
    """
    if count < 1:
        raise ValueError("need at least one unit")
    rng = np.random.default_rng(seed)
    grid = [0.0, 1.0, 1j]
    dim = d.space.dim
    units = [make_unit(d, 0.0, np.zeros(dim))]
    j = 0
    while len(units) < count and j < dim:
        coords = np.zeros(dim, dtype=complex)
        coords[j] = 1.0
        units.append(make_unit(d, grid[j % 3], coords))
        j += 1
    while len(units) < count:
        coords = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        units.append(make_unit(d, grid[len(units) % 3], coords))
    return units
