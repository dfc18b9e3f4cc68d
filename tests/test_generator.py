import sys

import numpy as np
import pytest
from conftest import (
    SX,
    SY,
    SZ,
    bench_corpus,
    dephasing_generator,
    expm_spy,
    linalg_spy,
    random_ccp_generator,
    transpose_superop,
)

import cpsemi.generator as generator
import cpsemi.numerics as numerics
from cpsemi.errors import (
    DimensionMismatch, NotCCP, NotHermitian, NotHermiticityPreserving, Overflow
)
from cpsemi.generator import (
    _DOMINATION_TIMES,
    GklsForm,
    decompose,
    dominates,
    extract_gauge,
    gauge_check,
    gauge_shift,
    gkls_superop,
    hamiltonian_lindblad,
    is_unital_generator,
    rank,
    rebuild,
    same_generator,
)
from cpsemi.numerics import Tolerances, expm, spectrum
from cpsemi.opspace import space_from_cp_map
from cpsemi.sampling import random_cp_map, random_matrix
from cpsemi.semigroup import evolve, index
from cpsemi.superop import (
    Flow,
    ad_superop,
    apply_superop,
    identity_superop,
    kraus_to_superop,
    superop_to_choi,
    vec,
)
from cpsemi.symbols import symbols_equal


def two_sided(a, b):
    n = a.shape[0]
    return np.kron(np.eye(n), a) + np.kron(b.T, np.eye(n))


def test_decompose_dephasing_golden(dephasing):
    d = decompose(dephasing)
    assert d.space.dim == 1
    np.testing.assert_allclose(d.space.basis[0], SZ, atol=1e-10)
    np.testing.assert_allclose(d.k, -0.5 * np.eye(2), atol=1e-10)
    assert d.residual <= 1e-12


def test_decompose_pauli_triple_golden():
    mat = sum(ad_superop(s) for s in (SX, SY, SZ)) - 3 * identity_superop(2)
    d = decompose(mat)
    assert d.space.dim == 3
    np.testing.assert_allclose(d.k, -1.5 * np.eye(2), atol=1e-10)


def test_decompose_commutator_golden():
    h = np.array([[0.25, 1.0 - 0.5j], [1.0 + 0.5j, -0.25]])
    mat = two_sided(1j * h, -1j * h)
    d = decompose(mat)
    assert d.space.dim == 0
    np.testing.assert_allclose(d.k, 1j * h, atol=1e-10)


def test_decompose_zero_map():
    d = decompose(np.zeros((9, 9)))
    assert d.space.dim == 0
    np.testing.assert_allclose(d.k, 0, atol=1e-14)


def test_decompose_rebuild_round_trip(rng):
    for n in (2, 3, 4):
        for _ in range(4):
            mat = random_ccp_generator(rng, n)
            d = decompose(mat)
            np.testing.assert_allclose(
                rebuild(d), mat, atol=1e-10 * max(1.0, np.linalg.norm(mat))
            )
            assert d.residual <= 1e-10
            assert 0 <= d.space.dim <= n * n - 1
            np.testing.assert_allclose(np.trace(d.k).imag, 0.0, atol=1e-10)
            for v in d.space.basis:
                assert abs(np.trace(v)) <= 1e-9


def test_decompose_rejects_non_ccp():
    with pytest.raises(NotCCP) as info:
        decompose(transpose_superop(2))
    assert info.value.eigenvalue == pytest.approx(-1.0)
    assert info.value.witness.shape == (4,)
    with pytest.raises(NotCCP):
        decompose(-ad_superop(SZ))


def test_decompose_rejects_non_hermiticity_preserving():
    with pytest.raises(NotHermiticityPreserving):
        decompose(1j * identity_superop(2))


def test_rank_goldens(dephasing):
    assert rank(dephasing) == 1
    h = np.array([[1.0, 0.2], [0.2, -1.0]])
    assert rank(two_sided(1j * h, -1j * h)) == 0


def test_rank_invariant_under_regauging(rng):
    mat = random_ccp_generator(rng, 3)
    d = decompose(mat)
    lam = rng.normal(size=d.space.dim) + 1j * rng.normal(size=d.space.dim)
    u = sum(l.conjugate() * v for l, v in zip(lam, d.space.basis))
    k2 = d.k - u - 0.5 * float(np.vdot(lam, lam).real) * np.eye(3)
    mat2 = gauge_shift(d, lam) + two_sided(k2, k2.conj().T)
    assert rank(mat2) == d.space.dim


def test_unitality_equivalences(rng):
    mat = random_ccp_generator(rng, 2, unital=True)
    d = decompose(mat)
    eye = np.eye(2)
    np.testing.assert_allclose(apply_superop(evolve(mat, 0.8), eye), eye, atol=1e-11)
    np.testing.assert_allclose(apply_superop(mat, np.eye(2)), 0, atol=1e-11)
    total = sum(v @ v.conj().T for v in d.space.basis) + d.k + d.k.conj().T
    np.testing.assert_allclose(total, 0, atol=1e-10)
    assert is_unital_generator(mat)
    assert not is_unital_generator(random_ccp_generator(rng, 2, unital=False))


def test_unital_verdict_is_scale_invariant():
    unital = random_ccp_generator(np.random.default_rng(3), 2, unital=True)
    nonunital = random_ccp_generator(np.random.default_rng(3), 2, unital=False)
    for s in (1e-12, 1.0, 1e12):
        assert is_unital_generator(s * unital)
        assert not is_unital_generator(s * nonunital)
    assert is_unital_generator(np.zeros((4, 4), dtype=complex))


def test_rank_zero_semigroup_is_multiplicative(rng):
    h = np.diag([0.4, -0.1, -0.3]) + 0j
    h[0, 1] = 0.2 + 0.1j
    h[1, 0] = 0.2 - 0.1j
    p = evolve(two_sided(1j * h, -1j * h), 0.6)
    for _ in range(5):
        x = random_matrix(rng, 3)
        y = random_matrix(rng, 3)
        np.testing.assert_allclose(
            apply_superop(p, x @ y),
            apply_superop(p, x) @ apply_superop(p, y),
            atol=1e-9,
        )


def test_gauge_shift_trivial_is_cp_part(dephasing):
    d = decompose(dephasing)
    np.testing.assert_allclose(
        gauge_shift(d, [0.0]), kraus_to_superop(d.space.basis), atol=1e-12
    )


def test_gauge_shift_goldens(dephasing):
    d = decompose(dephasing)
    q = gauge_shift(d, [1.0])
    np.testing.assert_allclose(q, ad_superop(SZ + np.eye(2)), atol=1e-10)
    assert symbols_equal(q, kraus_to_superop(d.space.basis))
    q2 = gauge_shift(d, [0.0], c=2.0)
    np.testing.assert_allclose(
        q2, kraus_to_superop(d.space.basis) + 2 * identity_superop(2), atol=1e-12
    )
    assert symbols_equal(q2, kraus_to_superop(d.space.basis))


def test_gauge_shift_checks_length(dephasing):
    with pytest.raises(ValueError):
        gauge_shift(decompose(dephasing), [1.0, 2.0])


def test_compensated_shift_keeps_generator(rng):
    mat = random_ccp_generator(rng, 2)
    d = decompose(mat)
    lam = rng.normal(size=d.space.dim) + 1j * rng.normal(size=d.space.dim)
    c = float(rng.uniform(0.0, 1.0))
    u = sum(l.conjugate() * v for l, v in zip(lam, d.space.basis))
    k2 = d.k - u - 0.5 * (float(np.vdot(lam, lam).real) + c) * np.eye(2)
    mat2 = gauge_shift(d, lam, c=c) + two_sided(k2, k2.conj().T)
    np.testing.assert_allclose(mat2, mat, atol=1e-10)
    assert same_generator(d, decompose(mat2))


def test_same_generator_detects_drift_perturbation(rng):
    mat = random_ccp_generator(rng, 2)
    d = decompose(mat)
    shifted = decompose(mat + two_sided(0.1 * np.eye(2), 0.1 * np.eye(2)))
    assert not same_generator(d, shifted)


def test_extract_gauge_trivial(dephasing):
    d = decompose(dephasing)
    rel = extract_gauge(d, d.space.basis, d.k)
    np.testing.assert_allclose(rel.theta, np.eye(1), atol=1e-12)
    np.testing.assert_allclose(rel.v2, 0, atol=1e-12)
    assert rel.c == pytest.approx(0.0, abs=1e-12)
    assert rel.residual <= 1e-12


def test_extract_gauge_recovers_shift(rng):
    mat = random_ccp_generator(rng, 2)
    d1 = decompose(mat)
    dim = d1.space.dim
    lam = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    eye = np.eye(2, dtype=complex)
    shifted_ops = [v + l * eye for v, l in zip(d1.space.basis, lam)]
    u = sum(l.conjugate() * v for l, v in zip(lam, d1.space.basis))
    k2 = d1.k - u - 0.5 * float(np.vdot(lam, lam).real) * eye
    d2 = GklsForm(n=2, space=space_from_cp_map(kraus_to_superop(shifted_ops)), k=k2, residual=0.0)
    assert same_generator(d1, d2)
    rel = extract_gauge(d1, shifted_ops, k2)
    # theta carries coordinates isometrically between the two presentations
    np.testing.assert_allclose(rel.theta @ rel.theta.conj().T, np.eye(dim), atol=1e-9)
    assert rel.c == pytest.approx(0.0, abs=1e-8)
    assert rel.residual <= 1e-8
    inner_v2 = d2.space.membership(rel.v2)
    relation = d1.k + rel.v2 + (0.5 * inner_v2 + 1j * rel.c) * eye
    np.testing.assert_allclose(relation, k2, atol=1e-8)


def test_dominates(rng):
    mat = random_ccp_generator(rng, 2)
    assert dominates(Flow(mat), Flow(mat))
    h = np.array([[0.5, 0.1], [0.1, -0.5]])
    lower = two_sided(1j * h, -1j * h)
    upper = lower + ad_superop(random_matrix(rng, 2))
    assert dominates(Flow(lower), Flow(upper))
    assert not dominates(Flow(upper), Flow(lower))


def test_dominates_compares_shapes_and_tolerances_before_any_real_form(rng):
    mat = random_ccp_generator(rng, 2)
    not_hp = 1j * identity_superop(3)
    for flow1, flow2 in ((Flow(not_hp), Flow(mat)), (Flow(mat), Flow(np.zeros((5, 5))))):
        with pytest.raises(ValueError, match="same algebra"):
            dominates(flow1, flow2)
        assert "real" not in vars(flow1) and "real" not in vars(flow2)
    with pytest.raises(ValueError, match="one tolerance"):
        dominates(Flow(mat), Flow(mat, Tolerances(rel=1e-6)))


def test_dominates_makes_one_expm_per_semigroup(monkeypatch):
    # every step of the dyadic grid is an earlier sample time
    rng = np.random.default_rng(3)
    mat = random_ccp_generator(rng, 3)
    bigger = mat + random_cp_map(rng, 3, m=1)
    flow, flow_bigger = Flow(mat), Flow(bigger)
    calls = expm_spy(monkeypatch)
    assert dominates(flow, flow_bigger)
    assert len(calls) == 2
    assert np.array_equal(calls[0], 0.125 * flow_bigger.real)
    assert np.array_equal(calls[1], 0.125 * flow.real)


def test_passing_dominates_computes_no_eigenvalue(monkeypatch):
    # each CP difference is certified by one Cholesky factorisation
    rng = np.random.default_rng(3)
    mat = random_ccp_generator(rng, 4, unital=True)
    bigger = mat + random_cp_map(rng, 4, m=1)  # as verify's domination check
    eig_calls = linalg_spy(monkeypatch, "eigvalsh")
    chol_calls = linalg_spy(monkeypatch, "cholesky")
    assert dominates(Flow(mat), Flow(bigger))
    assert eig_calls == []
    assert chol_calls == [(16, 16)] * len(_DOMINATION_TIMES)
    # the first difference that is not CP fails its factorisation and is
    # decided by its spectrum, and no later one is tried
    chol_calls.clear()
    assert not dominates(Flow(bigger), Flow(mat))
    assert eig_calls == [(16, 16)] and chol_calls == [(16, 16)]


@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_dominates_decides_differences_that_are_hermitian_bit_for_bit(monkeypatch, scale):
    # each sampled exp(t L2) - exp(t L1) comes back from the real form with a
    # Choi matrix that is exactly Hermitian, so it passes the Hermiticity test
    # of the one complete-positivity rule at any scale, and is_psd decides it
    rng = np.random.default_rng(3)
    mat = scale * random_ccp_generator(rng, 3, unital=True)
    bigger = mat + random_cp_map(rng, 3, m=1)  # as verify's domination check
    seen = []
    real = generator.is_psd
    monkeypatch.setattr(generator, "is_psd", lambda m, tol: seen.append(m) or real(m, tol))
    assert dominates(Flow(mat), Flow(bigger))
    assert len(seen) == len(_DOMINATION_TIMES)
    for j in seen:
        assert np.array_equal(j, j.conj().T)
    with pytest.raises(NotHermiticityPreserving):
        dominates(Flow(mat), Flow(bigger + 1e-3j * scale * identity_superop(3)))


def _dominates_oracle(mat1, mat2):
    """Every sampled exponential computed on its own."""
    return all(
        spectrum(superop_to_choi(expm(t * mat2) - expm(t * mat1)), vectors=False).psd()
        for t in _DOMINATION_TIMES
    )


def test_dominates_agrees_with_per_time_expm():
    verdicts = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = (2, 3, 4)[seed % 3]
        mat = random_ccp_generator(rng, n, unital=bool(seed % 2))
        cp = random_cp_map(rng, n)
        v = random_matrix(rng, n)
        for s in (1e-12, 1e-9, 1e-6, 1e-3, 1.0):
            for other in (mat + s * cp, mat - s * ad_superop(v)):
                for m1, m2 in ((mat, other), (other, mat)):
                    want = _dominates_oracle(m1, m2)
                    assert dominates(Flow(m1), Flow(m2)) == want, (seed, s)
                    verdicts.append(want)
    assert len(verdicts) == 240
    assert 50 < verdicts.count(False) < 190


def _extract_gauge_oracle(d1, d2):
    """The gauge with one least-squares solve per basis element of d1."""
    n, dim = d1.n, d1.space.dim
    design = np.column_stack([vec(v) for v in d2.space.basis] + [vec(np.eye(n))])
    theta = np.zeros((dim, dim), dtype=complex)
    f = np.zeros(dim, dtype=complex)
    for i, u in enumerate(d1.space.basis):
        sol = np.linalg.lstsq(design, vec(u), rcond=None)[0]
        theta[:, i] = sol[:dim]
        f[i] = sol[dim]
    gamma = np.linalg.lstsq(theta.T, f, rcond=None)[0].conj()
    v2 = d2.space.from_coords(gamma)
    resid_mat = d2.k - d1.k - v2 - 0.5 * float(np.vdot(gamma, gamma).real) * np.eye(n)
    c = float(np.trace(resid_mat).imag / n)
    return theta, v2, c, float(np.linalg.norm(resid_mat - 1j * c * np.eye(n)))


def _regauged(d, rng):
    """A second canonical form of the generator of ``d``, with its Kraus
    family shifted by random scalars and the drift compensated."""
    dim = d.space.dim
    lam = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    u = sum(np.conj(l) * v for l, v in zip(lam, d.space.basis))
    k2 = d.k - u - 0.5 * float(np.vdot(lam, lam).real) * np.eye(d.n)
    return decompose(gkls_superop(k2, gauge_shift(d, lam)))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("which", ["1", "2", "n^2-1"])
def test_extract_gauge_matches_per_column_solves(n, which):
    m = {"1": 1, "2": 2, "n^2-1": n * n - 1}[which]
    rng = np.random.default_rng(10 * n + m)
    d1 = decompose(random_ccp_generator(rng, n, m=m, unital=bool(m % 2)))
    assert d1.space.dim == m
    d2 = _regauged(d1, rng)
    rel = extract_gauge(d1, d2.space.basis, d2.k)
    theta, v2, c, residual = _extract_gauge_oracle(d1, d2)
    np.testing.assert_allclose(rel.theta, theta, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rel.v2, v2, rtol=0, atol=1e-12)
    assert abs(rel.c - c) <= 1e-12
    assert abs(rel.residual - residual) <= 1e-12
    assert rel.residual <= 1e-8


def _corpus_form(form, tol):
    """The corpus's unital generator at (n, rank), or a rank-0 form."""
    if form == (2, 0):
        return decompose(hamiltonian_lindblad(SX + 0.5 * SZ, []), tol)
    return decompose(bench_corpus().make_generator(np.random.default_rng(7), *form, True).mat, tol)


@pytest.mark.parametrize("rel", [1e-2, 1e-6])
@pytest.mark.parametrize("form", [(3, 2), (8, 32), (4, 15), (2, 0)], ids=str)
def test_extract_gauge_does_not_depend_on_the_size_of_the_shift(form, rel):
    """The family v_m + lam_m 1, with |lam_m| from 1e-3 to 1e3 of max ||v_m||,
    is related to d's basis with the shift it was made with.  Fitted with
    the identity as a design column, it read as dependent modulo scalars
    from |lam_m| = 10 max ||v_m|| at 1e-2, and from 1e3 max ||v_m|| at 1e-6."""
    d = _corpus_form(form, Tolerances(rel))
    n, basis = d.n, d.space.basis
    eye = np.eye(n)
    phases = np.exp(2j * np.pi * np.random.default_rng(3).random(d.space.dim))
    top = max((np.linalg.norm(v) for v in basis), default=1.0)
    for j in range(-3, 4):
        lam = 10.0**j * top * phases
        ll = float(np.vdot(lam, lam).real)
        u = np.tensordot(lam.conj(), basis, axes=1)
        g = extract_gauge(d, basis + lam[:, None, None] * eye, d.k - u - 0.5 * ll * eye)
        assert g.residual <= rel * max(1.0, np.linalg.norm(d.k)), j
        np.testing.assert_allclose(g.v2, -u - ll * eye, rtol=0, atol=1e-12 * max(1.0, ll))
        assert abs(g.c) <= 1e-12 * max(1.0, ll), j


def test_extract_gauge_decides_at_the_tolerance_of_the_form():
    # a family within 1e-5 (relative) of the basis of a form decomposed at
    # 1e-2 agrees with it modulo scalars at that tolerance
    d = decompose(random_ccp_generator(np.random.default_rng(1), 3, m=2), Tolerances(1e-2))
    rng = np.random.default_rng(2)
    ops = []
    for v in d.space.basis:
        z = random_matrix(rng, 3)
        ops.append(v + 1e-5 * np.linalg.norm(v) / np.linalg.norm(z) * z)
    rel = extract_gauge(d, ops, d.k)
    np.testing.assert_allclose(rel.theta, np.eye(d.space.dim), atol=1e-4)


def test_extract_gauge_rejects_one_column_outside_span():
    rng = np.random.default_rng(5)
    d1 = decompose(random_ccp_generator(rng, 3, m=4))
    # d2's space keeps all of d1's basis but the last element
    ops = list(d1.space.basis[:-1]) + [random_matrix(rng, 3)]
    with pytest.raises(ValueError, match="modulo scalars"):
        extract_gauge(d1, ops, d1.k)
    # every other column is in the span, so the same families pass without it
    keep_space = space_from_cp_map(kraus_to_superop(d1.space.basis[:-1]))
    keep = GklsForm(n=3, space=keep_space, k=d1.k, residual=0.0)
    assert extract_gauge(keep, ops[:-1], d1.k).residual <= 1e-12


def test_extract_gauge_rejects_a_dependent_family():
    # one operator a scalar shift of another: dependent modulo scalars, so
    # the residual test rejects it with no separate independence test
    rng = np.random.default_rng(5)
    d1 = decompose(random_ccp_generator(rng, 3, m=2))
    v = d1.space.basis[0]
    with pytest.raises(ValueError, match="modulo scalars"):
        extract_gauge(d1, [v, v + 2.0 * np.eye(3)], d1.k)
    # a zero operator leaves R an exact zero pivot: the rank rule rejects the
    # design before the triangular solve could raise LinAlgError
    with pytest.raises(ValueError, match="modulo scalars"):
        extract_gauge(d1, [v, np.zeros((3, 3))], d1.k)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_extract_gauge_refuses_input_that_is_not_finite(bad, recwarn):
    # Overflow, as every other verdict on such input; before the check a NaN
    # family failed "modulo scalars" and an inf drift gave residual inf
    d = decompose(random_ccp_generator(np.random.default_rng(5), 3, m=2))
    ops = d.space.basis.copy()
    ops[1, 0, 2] = bad
    with pytest.raises(Overflow, match="not finite"):
        extract_gauge(d, ops, d.k)
    k2 = d.k.copy()
    k2[1, 1] = bad
    with pytest.raises(Overflow, match="not finite"):
        extract_gauge(d, d.space.basis, k2)
    assert not recwarn.list


def test_extract_gauge_checks_the_family_shape(dephasing):
    d = decompose(dephasing)
    with pytest.raises(ValueError, match="need 1 Kraus operators"):
        extract_gauge(d, [SZ, SX], d.k)
    with pytest.raises(DimensionMismatch):
        extract_gauge(d, [np.eye(3)], d.k)


@pytest.mark.parametrize("rank_", [1, 0])
def test_gauge_check_passes_on_dephasing_and_hamiltonian_only_forms(rank_):
    # rank 1: dephasing; rank 0: a Hamiltonian-only form, whose empty
    # family goes through the same checks
    mat = dephasing_generator() if rank_ else hamiltonian_lindblad(SX + 0.5 * SZ, [])
    d = decompose(mat)
    assert d.space.dim == rank_
    assert gauge_check(d, np.random.default_rng(2)) == {
        "pass": True,
        "perturbation_detected": True,
        "shift_same_generator": True,
        "symbols_equal": True,
    }


def test_hamiltonian_lindblad_matches_hand_built():
    h = np.array([[0.2, 0.3j], [-0.3j, -0.2]])
    ops = [SZ, 0.5 * SX]
    mat = hamiltonian_lindblad(h, ops)
    k = 1j * h - 0.5 * sum(v @ v.conj().T for v in ops)
    np.testing.assert_allclose(mat, kraus_to_superop(ops) + two_sided(k, k.conj().T), atol=1e-12)
    np.testing.assert_allclose(apply_superop(mat, np.eye(2)), 0, atol=1e-12)
    assert rank(mat) == 2


def test_hamiltonian_lindblad_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hamiltonian_lindblad(np.array([[0.0, 1.0], [0.0, 0.0]]), [SZ])


@pytest.mark.parametrize("h", [np.zeros((2, 3)), np.zeros(2)], ids=["2x3", "vector"])
def test_hamiltonian_lindblad_rejects_a_hamiltonian_that_is_not_square(h):
    # checked before Hermiticity, which cannot be tested on such an h
    with pytest.raises(DimensionMismatch, match="hamiltonian part must be square"):
        hamiltonian_lindblad(h, [])


@pytest.mark.parametrize(
    "ops", [[np.eye(3)], [np.eye(2), np.eye(3)], np.zeros((1, 4, 4))],
    ids=["3x3", "ragged", "1x4x4"],
)
def test_hamiltonian_lindblad_rejects_jump_operators_that_are_not_n_by_n(ops):
    # a (1, 4, 4) family is not read as four 2 x 2 operators
    with pytest.raises(DimensionMismatch):
        hamiltonian_lindblad(np.eye(2), ops)


@pytest.mark.parametrize("rank_", [2, 0])
def test_space_basis_is_one_kraus_array(rank_):
    mat = (
        random_ccp_generator(np.random.default_rng(3), 3, m=2)
        if rank_ else hamiltonian_lindblad(SX + 0.5 * SZ, [])
    )
    space = decompose(mat).space
    n = space.n
    assert isinstance(space.basis, np.ndarray)
    assert space.basis.shape == (rank_, n, n)
    if not rank_:
        np.testing.assert_array_equal(space.from_coords([]), np.zeros((n, n)))


def test_gkls_superop_adds_drift_to_cp_part(rng):
    ops = [random_matrix(rng, 3) for _ in range(2)]
    k = random_matrix(rng, 3)
    x = random_matrix(rng, 3)
    want = sum(v @ x @ v.conj().T for v in ops) + k @ x + x @ k.conj().T
    np.testing.assert_allclose(
        apply_superop(gkls_superop(k, kraus_to_superop(ops)), x), want, atol=1e-12
    )
    np.testing.assert_allclose(
        apply_superop(gkls_superop(k), x), k @ x + x @ k.conj().T, atol=1e-12
    )


def test_decompose_uses_one_eigendecomposition(rng, monkeypatch):
    # The verdict, witness, Kraus basis and inner product all come from one
    # eigendecomposition of the projected Choi matrix.
    channel = evolve(dephasing_generator(), 0.5)  # expm has its own eigh
    calls = []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or eigvalsh(*a, **k)
    )
    d = decompose(random_ccp_generator(rng, 3, m=4))
    assert d.space.dim == len(d.space.basis) == 4
    assert len(calls) == 1
    with pytest.raises(NotCCP):
        decompose(transpose_superop(2))
    assert len(calls) == 2
    space_from_cp_map(channel)
    assert len(calls) == 3


def test_index_is_rank():
    assert index is rank


@pytest.mark.parametrize("rank_", [2, 0])
def test_gauge_check_builds_each_cp_superoperator_once(monkeypatch, rank_):
    """One CP superoperator per Kraus family (at rank 0 the empty family and
    its empty shift), and no eigendecomposition: the shifted family is never
    made a space."""
    mat = (
        random_ccp_generator(np.random.default_rng(3), 3, m=2)
        if rank_ else hamiltonian_lindblad(SX + 0.5 * SZ, [])
    )
    d = decompose(mat)
    assert d.space.dim == rank_
    counts = {"kraus_to_superop": 0, "spectrum": 0}

    def counting(name, real):
        def spy(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(
        generator, "kraus_to_superop", counting("kraus_to_superop", generator.kraus_to_superop)
    )
    real_spectrum = numerics.spectrum
    for name, module in list(sys.modules.items()):
        if name.startswith("cpsemi") and getattr(module, "spectrum", None) is real_spectrum:
            monkeypatch.setattr(module, "spectrum", counting("spectrum", real_spectrum))
    verdicts = gauge_check(d, np.random.default_rng(4))
    assert verdicts["pass"] is True
    assert counts == {"kraus_to_superop": 2, "spectrum": 0}


def test_gauge_makes_no_svd(monkeypatch):
    # extract_gauge solves by one QR and one solve, at every rank
    calls = []
    for name in ("lstsq", "svd"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k)
        )
    rng = np.random.default_rng(6)
    for m in (0, 1, 8):
        mat = (
            random_ccp_generator(rng, 3, m=m)
            if m else hamiltonian_lindblad(SX + 0.5 * SZ, [])
        )
        d = decompose(mat)
        assert d.space.dim == m
        assert gauge_check(d, rng)["pass"] is True
    assert calls == []


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("which", ["1", "2", "n^2-1"])
def test_gauge_check_passes_at_every_scale(n, which):
    # the rank rule on R's diagonal has no floor, so scaling L leaves it alone
    m = {"1": 1, "2": 2, "n^2-1": n * n - 1}[which]
    rng = np.random.default_rng(20 * n + m)
    mat = random_ccp_generator(rng, n, m=m, unital=bool(m % 2))
    for j in range(-12, 13, 3):
        verdicts = gauge_check(decompose(10.0**j * mat), rng)
        assert verdicts["pass"] is True, (j, verdicts)
