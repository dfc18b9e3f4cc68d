"""Acceptance suite: nine numbered end-to-end criteria.

Each criterion is one test, so ``pytest -v tests/test_acceptance.py`` prints
one pass/fail line per criterion.  Sample sizes, seeds and tolerances are
frozen; everything runs at desk scale (n <= 4) in well under a minute.

1. The projected-Choi verdict on conditional complete positivity agrees
   with exponentiation and with randomized constrained-tuple checks.
2. decompose/rebuild is an identity within 1e-10 and ranks stay in bounds.
3. The partition estimator reproduces the closed-form covariance.
4. Sampled units verify: e^(alpha t) P_t dominates conjugation by T(t).
5. The centered covariance Gram matrix recovers the index = rank.
6. Step spaces multiply into the span of the combined-step space.
7. Gauge shifts preserve the symbol and, compensated, the generator.
8. Adding a CP map to a generator dominates the original semigroup.
9. Known closed-form examples come out exactly.
"""

import time

import numpy as np
from conftest import SX, SY, SZ, dephasing_generator, random_ccp_generator, random_hp_map

from cpsemi.generator import decompose, gauge_shift, rebuild, same_generator
from cpsemi.numerics import Tolerances, expm
from cpsemi.sampling import random_cp_map
from cpsemi.semigroup import (
    covariance_estimate,
    covariance_kernel,
    evolve,
    gram_dimension,
    index,
    make_unit,
    product_system_check,
    sample_units,
    verify_units,
)
from cpsemi.superop import (
    ad_superop,
    apply_superop,
    identity_superop,
    is_completely_positive,
    kraus_to_superop,
    superop_to_choi,
)
from cpsemi.symbols import block_positivity_witness, is_conditionally_cp, symbols_equal

T_GRID = tuple(np.linspace(0.1, 1.0, 10))


def two_sided(a, b):
    n = a.shape[0]
    return np.kron(np.eye(n), a) + np.kron(b.T, np.eye(n))


def test_criterion_1_ccp_verdicts_agree_across_routes():
    # 200 seeded Hermiticity-preserving maps (half generic, half built as
    # generators), n in {2, 3}; three independent verdicts, zero
    # disagreements at tolerance 1e-8, under 60 seconds.
    tol = Tolerances(1e-8)
    rng = np.random.default_rng(101)
    start = time.monotonic()
    disagreements = 0
    for i in range(200):
        n = 2 if i % 2 == 0 else 3
        mat = random_hp_map(rng, n) if i % 4 < 2 else random_ccp_generator(rng, n)
        projected = is_conditionally_cp(mat, tol)
        exponentiated = all(
            is_completely_positive(expm(t * mat), tol)
            for t in (1e-3, 1e-2, 1e-1, 1.0)
        )
        witness = block_positivity_witness(mat, n_tuples=50, seed=1000 + i, tol=tol)
        tuples_clear = witness is None
        if not (projected == exponentiated == tuples_clear):
            disagreements += 1
    assert disagreements == 0
    assert time.monotonic() - start <= 60.0


def test_criterion_2_decompose_rebuild_and_rank_bounds():
    # 102 seeded generators over n in {2, 3, 4}, half of them unital;
    # relative rebuild error <= 1e-10 and rank within [0, n^2 - 1]
    # ([1, n^2 - 1] for the unital, non-automorphism samples).
    rng = np.random.default_rng(202)
    for n in (2, 3, 4):
        for _ in range(17):
            for unital in (False, True):
                mat = random_ccp_generator(rng, n, unital=unital)
                d = decompose(mat)
                err = np.linalg.norm(rebuild(d) - mat)
                assert err <= 1e-10 * np.linalg.norm(mat)
                lower = 1 if unital else 0
                assert lower <= d.space.dim <= n * n - 1


def test_criterion_3_covariance_estimator_matches_closed_form():
    # dephasing units (0, sz) and (0, -sz): estimates within 1e-3 of the
    # closed forms +1 and -1 at t=1, m=512, with errors nonincreasing in m.
    deph = dephasing_generator()
    d = decompose(deph)
    uz = make_unit(d, 0.0, [1.0])
    uminus = make_unit(d, 0.0, [-1.0])
    for target, pair in [(1.0, (uz, uz)), (-1.0, (uz, uminus))]:
        errors = [
            abs(covariance_estimate(deph, pair[0], pair[1], t=1.0, m=m) - target)
            for m in (8, 32, 128, 512)
        ]
        assert errors[-1] <= 1e-3
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse + 1e-6


def test_criterion_4_sampled_units_verify():
    # 20 seeded units over 10 random unital generators (n in {2, 3}):
    # Choi(e^(alpha t) P_t - Ad T(t)) stays PSD within 1e-9 relative slack
    # on ten sampled times, which by the definition of the metric of E(t)
    # also makes T(t) a member of the space of P_t.
    rng = np.random.default_rng(404)
    checked = 0
    for i in range(10):
        n = 2 if i < 5 else 3
        mat = random_ccp_generator(rng, n, unital=True)
        d = decompose(mat)
        for u in sample_units(d, 3, seed=40 + i)[1:]:
            assert verify_units(mat, [u], t_samples=T_GRID)
            checked += 1
    assert checked == 20


def test_criterion_5_gram_dimension_equals_index_equals_rank():
    # 20 random generators: the centered Gram matrix of the covariance
    # kernel over dim E + 3 seeded units has rank equal to the index and
    # to the rank of the generator.
    rng = np.random.default_rng(505)
    for i in range(20):
        n = 2 if i % 2 == 0 else 3
        mat = random_ccp_generator(rng, n)
        d = decompose(mat)
        units = sample_units(d, d.space.dim + 3, seed=50 + i)
        assert gram_dimension(covariance_kernel(d, units)) == index(mat) == d.space.dim


def test_criterion_6_product_system_property():
    # 20 random generators: products of step-space bases span the space of
    # the combined step, for (s, t) = (0.5, 0.5) and (0.3, 0.7).
    rng = np.random.default_rng(606)
    for i in range(20):
        n = 2 if i % 2 == 0 else 3
        mat = random_ccp_generator(rng, n)
        assert product_system_check(mat, 0.5, 0.5)
        assert product_system_check(mat, 0.3, 0.7)


def test_criterion_7_gauge_invariance():
    # 20 random canonical forms with seeded scalar shifts: the shifted CP
    # part keeps the symbol (within 1e-10); with the compensating drift it
    # keeps the generator; an uncompensated 0.1*identity drift change is
    # detected.
    rng = np.random.default_rng(707)
    for i in range(20):
        n = 2 if i % 2 == 0 else 3
        mat = random_ccp_generator(rng, n)
        d = decompose(mat)
        dim = d.space.dim
        lam = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        c = float(rng.uniform(0.0, 1.0))
        shifted = gauge_shift(d, lam, c=c)
        assert symbols_equal(shifted, kraus_to_superop(d.space.basis))
        u = sum(l.conjugate() * v for l, v in zip(lam, d.space.basis))
        k2 = d.k - u - 0.5 * (float(np.vdot(lam, lam).real) + c) * np.eye(n)
        compensated = shifted + two_sided(k2, k2.conj().T)
        assert same_generator(d, decompose(compensated))
        perturbed = decompose(
            rebuild(d) + two_sided(0.1 * np.eye(n), 0.1 * np.eye(n))
        )
        assert not same_generator(d, perturbed)


def test_criterion_8_cp_perturbation_dominates():
    # 20 seeded pairs (L1, L1 + R) with R completely positive: the Choi
    # matrix of exp(t L2) - exp(t L1) has minimum eigenvalue >= -1e-9 on
    # ten sampled times.
    rng = np.random.default_rng(808)
    for i in range(20):
        n = 2 if i % 2 == 0 else 3
        l1 = random_ccp_generator(rng, n)
        l2 = l1 + random_cp_map(rng, n)
        for t in T_GRID:
            diff = expm(t * l2) - expm(t * l1)
            choi = superop_to_choi(diff)
            low = float(np.linalg.eigvalsh((choi + choi.conj().T) / 2).min())
            assert low >= -1e-9


def test_criterion_9_known_value_goldens(rng):
    # closed-form examples: dephasing, the three-Pauli generator, and a
    # commutator generator with its multiplicative semigroup.
    deph = dephasing_generator()
    d = decompose(deph)
    assert d.space.dim == 1
    np.testing.assert_allclose(d.k, -0.5 * np.eye(2), atol=1e-10)
    assert index(deph) == 1

    pauli = sum(ad_superop(s) for s in (SX, SY, SZ)) - 3 * identity_superop(2)
    assert decompose(pauli).space.dim == 3

    h = np.array([[0.7, 0.2 - 0.4j], [0.2 + 0.4j, -0.7]])
    commutator = two_sided(1j * h, -1j * h)
    assert decompose(commutator).space.dim == 0
    p = evolve(commutator, 0.8)
    for _ in range(5):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_allclose(
            apply_superop(p, x @ y),
            apply_superop(p, x) @ apply_superop(p, y),
            atol=1e-9,
        )
