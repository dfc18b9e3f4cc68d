"""Seeded benchmark inputs whose expected answers are known by construction.

Everything here is plain numpy written for the benchmark; nothing is taken
from the package under test, so the expected outcome of each input does not
depend on the code being measured.

Conventions match the package: column-stacking ``vec``, the superoperator of
``x -> a x b`` is ``kron(b.T, a)``, and the Choi matrix has ``P(E_ij)`` as its
``(i, j)`` block.

* A generator ``L(x) = sum_m v_m x v_m* + k x + x k*`` built from ``m``
  generic Kraus operators (``1 <= m <= n^2 - 1``) has rank = index = ``m``:
  the traceless parts of ``m <= n^2 - 1`` generic matrices are independent.
* ``L - s ad(v)`` with ``v`` traceless and ``s ||v||^2`` above the spectral
  norm of the projected Choi matrix of ``L`` is not conditionally completely
  positive: the projected Choi form is negative at ``vec(v)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


def cnormal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = cnormal(rng, (n, n))
    return (m + m.conj().T) / 2.0


def kraus_superop(ops) -> np.ndarray:
    n = ops[0].shape[0]
    out = np.zeros((n * n, n * n), dtype=complex)
    for v in ops:
        out += np.kron(v.conj(), v)
    return out


def two_sided(k: np.ndarray) -> np.ndarray:
    eye = np.eye(k.shape[0])
    return np.kron(eye, k) + np.kron(k.conj(), eye)


def reshuffle(m: np.ndarray) -> np.ndarray:
    n = int(round(np.sqrt(m.shape[0])))
    return m.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n)


def projected_choi(mat: np.ndarray) -> np.ndarray:
    n = int(round(np.sqrt(mat.shape[0])))
    omega = np.eye(n).reshape(-1, order="F")
    proj = np.eye(n * n) - np.outer(omega, omega) / n
    j = proj @ reshuffle(mat) @ proj
    return (j + j.conj().T) / 2.0


def traceless(rng: np.random.Generator, n: int) -> np.ndarray:
    v = cnormal(rng, (n, n))
    return v - (np.trace(v) / n) * np.eye(n)


@dataclass
class Generator:
    """A generator and its canonical ingredients (Kraus family and drift)."""

    n: int
    ops: list
    k: np.ndarray
    h: np.ndarray | None  # set for unital generators built as i h - (1/2) sum v v*
    mat: np.ndarray = field(init=False)

    def __post_init__(self):
        self.mat = kraus_superop(self.ops) + two_sided(self.k)


def make_generator(rng: np.random.Generator, n: int, m: int, unital: bool) -> Generator:
    """Generator with ``m`` generic Kraus operators (rank = index = m).

    The operators are scaled so that ``E[sum_m v_m v_m*] = 1`` at every rank:
    the dissipative strength, and with it the partition error of the
    covariance estimator, then does not grow with the rank.
    """
    if not 1 <= m <= n * n - 1:
        raise ValueError(f"rank {m} outside [1, {n * n - 1}] at n = {n}")
    ops = [cnormal(rng, (n, n)) / np.sqrt(n * m) for _ in range(m)]
    if unital:
        h = hermitian(rng, n)
        k = 1j * h - 0.5 * sum(v @ v.conj().T for v in ops)
        return Generator(n=n, ops=ops, k=k, h=h)
    return Generator(n=n, ops=ops, k=cnormal(rng, (n, n)), h=None)


def make_non_ccp(rng: np.random.Generator, mat: np.ndarray) -> np.ndarray:
    """``L - s ad(v)`` with ``s ||v||^2 = 2 ||P J(L) P|| + 2``: not CCP, since
    the projected Choi form at ``vec(v) / ||v||`` is at most
    ``-||P J(L) P|| - 2``."""
    n = int(round(np.sqrt(mat.shape[0])))
    v = traceless(rng, n)
    norm_pjp = float(np.linalg.norm(projected_choi(mat), 2))
    s = (2.0 * norm_pjp + 2.0) / float(np.linalg.norm(v) ** 2)
    return mat - s * np.kron(v.conj(), v)


def make_hp_map(rng: np.random.Generator, n: int) -> np.ndarray:
    """Generic Hermiticity-preserving map (a random Hermitian Choi matrix),
    made non-CCP by :func:`make_non_ccp`."""
    return make_non_ccp(rng, reshuffle(hermitian(rng, n * n)))


# ---------------------------------------------------------------------------
# JSON specs in the CLI's input format


def c2j(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def m2j(m: np.ndarray) -> list:
    return [[c2j(z) for z in row] for row in np.asarray(m, dtype=complex)]


def spec_superop(mat: np.ndarray) -> dict:
    n = int(round(np.sqrt(mat.shape[0])))
    return {"type": "superop", "n": n, "matrix": m2j(mat)}


def spec_gkls(gen: Generator) -> dict:
    return {"type": "gkls", "n": gen.n, "kraus": [m2j(v) for v in gen.ops], "k": m2j(gen.k)}


def spec_hamiltonian_lindblad(gen: Generator) -> dict:
    if gen.h is None:
        raise ValueError("hamiltonian_lindblad specs describe unital generators")
    return {
        "type": "hamiltonian_lindblad",
        "n": gen.n,
        "h": m2j(gen.h),
        "lindblad": [m2j(v) for v in gen.ops],
    }


@dataclass(frozen=True)
class UnitPair:
    """Two units given by scalar part and coordinates over the canonical basis."""

    c1: complex
    v1: np.ndarray
    c2: complex
    v2: np.ndarray

    @property
    def closed(self) -> complex:
        """Closed-form covariance c1 + conj(c2) + <v1, v2> (orthonormal basis)."""
        return complex(self.c1 + np.conj(self.c2) + np.vdot(self.v2, self.v1))

    def to_json(self) -> dict:
        return {
            "units": [
                {"c": c2j(self.c1), "v": [c2j(z) for z in self.v1]},
                {"c": c2j(self.c2), "v": [c2j(z) for z in self.v2]},
            ]
        }


def make_unit_pair(rng: np.random.Generator, dim: int, radius: float = 0.5) -> UnitPair:
    """Units with coordinate vectors of norm ``radius`` and small scalar parts."""
    def coords():
        v = cnormal(rng, dim)
        return radius * v / np.linalg.norm(v)

    return UnitPair(
        c1=complex(*(0.2 * rng.standard_normal(2))),
        v1=coords(),
        c2=complex(*(0.2 * rng.standard_normal(2))),
        v2=coords(),
    )


def write_json(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


