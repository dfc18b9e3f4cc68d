import itertools

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    SX,
    SY,
    SZ,
    bench_corpus,
    dephasing_generator,
    expm_spy,
    linalg_spy,
    random_ccp_generator,
)

from cpsemi.errors import (
    LogBranch,
    NotCP,
    NotHermiticityPreserving,
    NotMember,
    Overflow,
    OwnerMismatch,
)
from cpsemi.generator import decompose, hamiltonian_lindblad, rebuild
from cpsemi.numerics import DEFAULT_TOL, Tolerances, _kept_by_margin, anchor, frob, is_hermitian
from cpsemi.semigroup import (
    covariance,
    covariance_estimate,
    covariance_kernel,
    evolve,
    gram_dimension,
    index,
    make_unit,
    product_system_check,
    sample_units,
    space_at,
    unit_matrix,
    verify_units,
)
from cpsemi.superop import (
    Flow,
    _complex_form,
    ad_superop,
    apply_superop,
    choi_spectrum,
    identity_superop,
    superop_to_choi,
    vec,
)
from cpsemi.errors import DimensionMismatch


def two_sided(a, b):
    n = a.shape[0]
    return np.kron(np.eye(n), a) + np.kron(b.T, np.eye(n))


def commutator_generator():
    h = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]])
    return two_sided(1j * h, -1j * h)


def test_evolve_at_zero_is_identity(dephasing):
    np.testing.assert_allclose(evolve(dephasing, 0.0), identity_superop(2), atol=1e-14)


def test_evolve_semigroup_law(rng):
    mat = random_ccp_generator(rng, 3)
    for s, t in [(0.2, 0.5), (0.7, 0.7), (1.1, 0.3)]:
        np.testing.assert_allclose(
            evolve(mat, s) @ evolve(mat, t), evolve(mat, s + t), atol=1e-10
        )


def test_evolve_dephasing_eigenrelation(dephasing):
    for t in (0.1, 0.8, 2.0):
        p = evolve(dephasing, t)
        np.testing.assert_allclose(apply_superop(p, SX), np.exp(-2 * t) * SX, atol=1e-12)
        np.testing.assert_allclose(apply_superop(p, np.eye(2)), np.eye(2), atol=1e-12)


def test_evolve_rejects_negative_time(dephasing):
    # and every time that is not finite: Flow.at checks each one
    for t in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            evolve(dephasing, t)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_evolve_matches_the_complex_exponential(n):
    rng = np.random.default_rng(n)
    for m, unital in ((1, True), (2, False), (n * n - 1, True)):
        mat = bench_corpus().make_generator(rng, n, m, unital).mat
        for t in (0.1, 1.0):
            expected = scipy.linalg.expm(t * mat)
            assert frob(evolve(mat, t) - expected) <= 1e-13 * frob(expected)


def test_evolve_rejects_a_map_that_does_not_preserve_hermiticity(dephasing):
    with pytest.raises(NotHermiticityPreserving):
        evolve(dephasing + 1e-3j * identity_superop(2), 0.5)
    # the tolerance is the caller's
    evolve(dephasing + 1e-3j * identity_superop(2), 0.5, Tolerances(1e-1))


def test_space_at_goldens(dephasing):
    assert space_at(Flow(np.zeros((4, 4))), 0.5).dim == 1
    e = space_at(Flow(dephasing), 0.7)
    assert e.dim == 2
    b = (1 - np.exp(-2 * 0.7)) / 2
    assert e.membership(SZ) == pytest.approx(1 / b)
    for t in (0.2, 1.0, 3.0):
        assert space_at(Flow(commutator_generator()), t).dim == 1


def test_space_at_rejects_non_generator():
    with pytest.raises(NotCP):
        space_at(Flow(-ad_superop(SZ)), 1.0)
    for t in (0.0, np.nan):
        with pytest.raises(ValueError):
            space_at(Flow(dephasing_generator()), t)


def test_product_system_check(dephasing):
    assert product_system_check(Flow(np.zeros((4, 4))), 0.3, 0.9)
    assert product_system_check(Flow(dephasing), 0.5, 0.5)
    assert product_system_check(Flow(dephasing), 0.3, 0.7)
    # strong commuting dephasing: products of its Kraus operators include
    # roundoff-sized ones, which must not count as new directions
    strong = hamiltonian_lindblad(np.zeros((2, 2)), [np.diag([10, 10j])])
    assert product_system_check(Flow(strong), 0.5, 0.5)
    for s, t in ((0.0, 0.5), (np.nan, 0.5), (0.5, np.nan)):
        with pytest.raises(ValueError):
            product_system_check(Flow(dephasing), s, t)
    with pytest.raises(NotCP):
        product_system_check(Flow(-ad_superop(SZ)), 0.5, 0.5)


def test_sampled_checks_read_the_one_tolerance_of_their_flow(dephasing):
    # the real form and the checks' own decisions take the same flow.tol
    skewed = dephasing + 1e-6j * identity_superop(2)
    unit = [make_unit(decompose(dephasing), 0.0, [0.0])]
    with pytest.raises(NotHermiticityPreserving):
        product_system_check(Flow(skewed), 0.5, 0.5)
    with pytest.raises(NotHermiticityPreserving):
        verify_units(Flow(skewed), unit)
    loose = Tolerances(rel=1e-3)
    assert product_system_check(Flow(skewed, loose), 0.5, 0.5)
    assert verify_units(Flow(skewed, loose), unit)


def test_product_system_check_evolves_each_distinct_time_once(monkeypatch):
    # the second pair reads exp(1.0 L) that the first one made
    flow = Flow(random_ccp_generator(np.random.default_rng(4), 3, m=2, unital=True))
    calls = expm_spy(monkeypatch)
    for s, t, times in ((0.5, 0.5, [0.5, 1.0]), (0.3, 0.7, [0.3, 0.7])):
        calls.clear()
        assert product_system_check(flow, s, t)
        assert len(calls) == len(times)
        assert all(np.array_equal(m, x * flow.real) for m, x in zip(calls, times))


def test_product_system_check_reads_no_product_of_a_grid(monkeypatch):
    # verify_units' grid makes exp(1.0 L) as exp(0.5 L) exp(0.5 L); the law
    # test still exponentiates 1.0 on its own, or it would hold by construction
    mat = random_ccp_generator(np.random.default_rng(4), 3, m=2, unital=True)
    flow = Flow(mat)
    assert verify_units(flow, sample_units(decompose(mat), 2, seed=1))
    calls = expm_spy(monkeypatch)
    assert product_system_check(flow, 0.5, 0.5)
    assert len(calls) == 1 and np.array_equal(calls[0], 1.0 * flow.real)


def test_product_system_check_reads_no_eigenvectors(monkeypatch):
    # its three ranks are eigenvalue counts: eigvalsh only, never eigh
    mat = random_ccp_generator(np.random.default_rng(4), 3, m=2, unital=True)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    assert product_system_check(Flow(mat), 0.5, 0.5)
    assert product_system_check(Flow(mat), 0.3, 0.7)
    assert calls == []


def test_product_system_check_ranks_where_a_choi_matrix_is_not_full_rank(monkeypatch, dephasing):
    # J(id) has rank 1, and dephasing's Choi matrices rank 2 of 4: the
    # certificate declines and the three eigvalsh ranks decide
    calls = linalg_spy(monkeypatch, "eigvalsh")
    for mat in (np.zeros((4, 4)), dephasing):
        for s, t in ((0.5, 0.5), (0.3, 0.7)):
            calls.clear()
            assert product_system_check(Flow(mat), s, t)
            assert len(calls) == 3


@pytest.mark.parametrize("n", [2, 3, 4, 8, 12])
def test_product_system_certificate_keeps_what_eigvalsh_keeps(n):
    # wherever the Choi matrix of P_s P_t or P_{s+t} is certified full rank,
    # Spectrum's rule keeps every eigenvalue; every corpus case certifies up
    # to n = 8, and at n = 12, rank 1 (down to 1.3 times the cut) some decline
    corpus = bench_corpus()
    ranks = [1] if n == 12 else sorted({1, 2, n * n // 4, n * n - 1})
    certified = []
    for m, unital, seed in itertools.product(ranks, (True, False), range(6)):
        flow = Flow(corpus.make_generator(np.random.default_rng(seed), n, m, unital).mat)
        for s, t in ((0.5, 0.5), (0.3, 0.7)):
            for p in (flow.at(s) @ flow.at(t), flow.at(s + t)):
                j = superop_to_choi(_complex_form(p))
                certified.append(_kept_by_margin(j, anchor(frob(j)), DEFAULT_TOL))
                assert not certified[-1] or choi_spectrum(j, vectors=False).kept().all()
    assert all(certified) if n <= 8 else 0 < sum(certified) < len(certified)


def test_make_unit_checks_dimensions(dephasing):
    d = decompose(dephasing)
    with pytest.raises(DimensionMismatch):
        make_unit(d, 0.0, [1.0, 2.0])


def test_unit_matrix_goldens(dephasing):
    d = decompose(dephasing)
    t = 0.9
    np.testing.assert_allclose(
        unit_matrix(make_unit(d, 0.0, [0.0]), t),
        np.diag([np.exp(-t / 2), np.exp(-t / 2)]),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        unit_matrix(make_unit(d, 0.0, [1.0]), t),
        np.diag([np.exp(t / 2), np.exp(-3 * t / 2)]),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        unit_matrix(make_unit(d, 1j, [0.0]), t),
        np.exp(1j * t) * unit_matrix(make_unit(d, 0.0, [0.0]), t),
        atol=1e-12,
    )


def test_verify_units_shares_each_time_between_units(monkeypatch):
    import cpsemi.semigroup as semigroup

    mat = random_ccp_generator(np.random.default_rng(4), 3, m=4, unital=True)
    d = decompose(mat)
    units = sample_units(d, 3, seed=1)
    spied, spaces = expm_spy(monkeypatch), []

    def calls():
        # the exponentials of the semigroup, not the n x n unit operators
        return [m for m in spied if len(m) == 9]

    real_space = semigroup.space_from_cp_map
    monkeypatch.setattr(
        semigroup,
        "space_from_cp_map",
        lambda big, tol: spaces.append(big) or real_space(big, tol),
    )
    flow = Flow(mat)
    assert verify_units(flow, units)
    # no space of exp(tL) is built; exp(1.0 L) = exp(0.5 L) exp(0.5 L)
    assert len(calls()) == 2
    assert np.array_equal(calls()[0], 0.1 * flow.real)
    assert np.array_equal(calls()[1], 0.5 * flow.real)
    spied.clear()
    assert all(verify_units(Flow(mat), [u]) for u in units)
    assert len(calls()) == 6
    # one flow makes each time once, however many calls read it
    spied.clear()
    assert all(verify_units(flow, [u]) for u in units)
    assert calls() == []
    # alpha = -1 for every unit breaks positivity; the first failure stops it.
    # exp(t (L - s id)) = e^(-st) exp(tL) lowers every unit's alpha by s.
    alphas = [np.vdot(u.v_coords, u.v_coords).real + 2.0 * u.c.real for u in units]
    shifted = Flow(mat - (max(alphas) + 1.0) * identity_superop(3))
    spied.clear()
    assert not verify_units(shifted, units)
    assert len(calls()) == 1 and np.array_equal(calls()[0], 0.1 * shifted.real)
    assert not verify_units(Flow(mat - (alphas[0] + 1.0) * identity_superop(3)), [units[0]])
    assert spaces == []


def test_passing_verify_units_computes_no_eigenvalue(monkeypatch):
    # each unit's positivity at each time is certified by one Cholesky
    # factorisation, and nothing is eigendecomposed
    mat = random_ccp_generator(np.random.default_rng(4), 4, m=8, unital=True)
    units = sample_units(decompose(mat), 3, seed=1)
    eig_calls = linalg_spy(monkeypatch, "eigvalsh")
    eigh_calls = linalg_spy(monkeypatch, "eigh")
    chol_calls = linalg_spy(monkeypatch, "cholesky")
    assert verify_units(Flow(mat), units)
    assert eig_calls == [] and eigh_calls == []
    assert chol_calls == [(16, 16)] * 9
    # the first unit of the first time fails: one factorisation, one spectrum
    chol_calls.clear()
    assert not verify_units(Flow(mat - 10.0 * identity_superop(4)), units)
    assert eig_calls == [(16, 16)] and chol_calls == [(16, 16)]
    assert eigh_calls == []


def test_verify_units_accepts_units_the_membership_cut_rejected():
    # ROADMAP item 2: a linear membership cut on the space of exp(tL) rejected
    # true units of these generators, and of s L at small s; the CP test that
    # defines the metric of E(t) accepts every one of them
    def generator(seed, n, m, s=1.0):
        return s * bench_corpus().make_generator(np.random.default_rng(seed), n, m, True).mat

    cases = [
        (seed, generator(seed, n, m)) for n, m in ((4, 1), (8, 1), (8, 2)) for seed in range(10)
    ]
    cases += [
        (seed, generator(seed, n, m, s))
        for s in (1e-8, 1e-4)
        for n, m in ((2, 1), (2, 2), (3, 2))
        for seed in range(4)
    ]
    for i, (seed, mat) in enumerate(cases):
        for u in sample_units(decompose(mat), 3, seed=seed)[1:]:
            assert verify_units(Flow(mat), [u]), i


@pytest.mark.parametrize("n", [3, 4, 8])
def test_verify_units_rejects_units_of_another_generator(n):
    # the negative control of the test above: with E(t) all of M_n (rank
    # n^2 - 1) membership says nothing, and the CP test still rejects
    rng = np.random.default_rng(n)
    for m in (1, 2, n * n - 1):
        mat, other = (bench_corpus().make_generator(rng, n, m, True).mat for _ in range(2))
        units = sample_units(decompose(other), 3, seed=n)[1:]
        assert all(verify_units(Flow(other), [u]) for u in units)
        assert not any(verify_units(Flow(mat), [u]) for u in units)


@pytest.mark.filterwarnings("error")
def test_verify_units_refuses_a_difference_that_is_not_finite(dephasing):
    # e^(alpha t) overflows while T(t) does not: the difference map holds
    # inf - inf, which is a numerical limit, not a verdict
    d = decompose(dephasing)
    with pytest.raises(Overflow, match="not finite"):
        verify_units(Flow(dephasing), [make_unit(d, 354.9, [0.0])], t_samples=(1.0,))
    with pytest.raises(Overflow, match="overflows"):
        verify_units(Flow(dephasing), [make_unit(d, 355.5, [0.0])], t_samples=(1.0,))


def test_verify_units_rejects_negative_time(dephasing):
    d = decompose(dephasing)
    for t in (-0.1, np.nan):
        with pytest.raises(ValueError):
            verify_units(Flow(dephasing), [make_unit(d, 0.0, [0.0])], (0.5, t))


def test_verify_unit(dephasing):
    d = decompose(dephasing)
    assert verify_units(Flow(dephasing), [make_unit(d, 0.0, [0.0])])
    u = make_unit(d, 0.0, [1.0])
    assert verify_units(Flow(dephasing), [u], t_samples=tuple(np.linspace(0.1, 1.0, 10)))
    # alpha = <v,v> + 2 Re c = 1 is minimal: lowering it by 0.5, as the
    # shifted generator does, breaks positivity
    assert not verify_units(Flow(dephasing - 0.5 * identity_superop(2)), [u])


def test_covariance_goldens(dephasing):
    d = decompose(dephasing)
    uz = make_unit(d, 0.0, [1.0])
    assert covariance(d, uz, uz) == pytest.approx(1.0)
    assert covariance(d, uz, make_unit(d, 0.0, [-1.0])) == pytest.approx(-1.0)
    assert covariance(d, uz, make_unit(d, 1j, [0.0])) == pytest.approx(-1j)
    a, b = 0.4 + 0.2j, -1.1 + 0.7j
    got = covariance(d, make_unit(d, a, [0.0]), make_unit(d, b, [0.0]))
    assert got == pytest.approx(a + b.conjugate())


def test_covariance_hermitian_symmetry(rng):
    d = decompose(random_ccp_generator(rng, 2))
    us = sample_units(d, d.space.dim + 2, seed=3)
    for u in us:
        for w in us:
            assert covariance(d, u, w) == pytest.approx(
                covariance(d, w, u).conjugate(), abs=1e-12
            )


def test_covariance_owner_mismatch(dephasing):
    d1 = decompose(dephasing)
    d2 = decompose(dephasing)
    with pytest.raises(OwnerMismatch):
        covariance(d1, make_unit(d1, 0.0, [1.0]), make_unit(d2, 0.0, [1.0]))
    with pytest.raises(OwnerMismatch):
        covariance_kernel(d1, [make_unit(d1, 0.0, [1.0]), make_unit(d2, 0.0, [1.0])])


def test_covariance_kernel_is_the_pairwise_closed_form(rng):
    d = decompose(random_ccp_generator(rng, 3))
    units = sample_units(d, d.space.dim + 3, seed=5)
    kern = covariance_kernel(d, units)
    pairwise = np.array([[covariance(d, u, w) for w in units] for u in units])
    assert kern.shape == pairwise.shape == (len(units), len(units))
    assert np.abs(kern - pairwise).max() <= 1e-13 * np.abs(pairwise).max()
    assert is_hermitian(kern, DEFAULT_TOL)


def test_covariance_estimate_matches_closed_form(dephasing):
    d = decompose(dephasing)
    uz = make_unit(d, 0.0, [1.0])
    uminus = make_unit(d, 0.0, [-1.0])
    assert covariance_estimate(Flow(dephasing), uz, uz, t=1.0, m=512) == pytest.approx(
        1.0, abs=1e-3
    )
    assert covariance_estimate(Flow(dephasing), uz, uminus, t=1.0, m=512) == pytest.approx(
        -1.0, abs=1e-3
    )


def test_covariance_estimate_trivial_unit_tends_to_zero(dephasing):
    d = decompose(dephasing)
    u0 = make_unit(d, 0.0, [0.0])
    coarse = abs(covariance_estimate(Flow(dephasing), u0, u0, t=1.0, m=8))
    fine = abs(covariance_estimate(Flow(dephasing), u0, u0, t=1.0, m=512))
    assert fine < coarse
    assert fine <= 2e-3


def test_covariance_estimate_branch_cut(dephasing):
    d = decompose(dephasing)
    u1 = make_unit(d, 0.0, [0.0])
    u2 = make_unit(d, 8j * np.pi, [0.0])
    with pytest.raises(LogBranch):
        covariance_estimate(Flow(dephasing), u1, u2, t=1.0, m=8)


@pytest.mark.filterwarnings("error")
def test_covariance_estimate_that_overflows_is_overflow(dephasing):
    # the step t / m is positive, but m / t is beyond the float range
    d = decompose(dephasing)
    u1, u2 = make_unit(d, 0.0, [1.0]), make_unit(d, 0.0, [-1.0])
    with pytest.raises(Overflow, match="covariance estimate overflows"):
        covariance_estimate(Flow(dephasing), u1, u2, t=1e-10, m=10**300)


def test_covariance_estimate_foreign_units(dephasing):
    other = ad_superop(SX) - identity_superop(2)
    d_other = decompose(other)
    u = make_unit(d_other, 0.0, [1.0])
    with pytest.raises(NotMember):
        covariance_estimate(Flow(dephasing), u, u, t=1.0, m=64)


def test_index_goldens(dephasing):
    assert index(commutator_generator()) == 0
    assert index(dephasing) == 1
    pauli = sum(ad_superop(s) for s in (SX, SY, SZ)) - 3 * identity_superop(2)
    assert index(pauli) == 3


def test_gram_dimension_scalar_units_collapse(dephasing):
    d = decompose(dephasing)
    units = [make_unit(d, 0.0, [0.0]), make_unit(d, 1.0, [0.0])]
    assert gram_dimension(covariance_kernel(d, units)) == 0


def test_gram_dimension_dephasing_triple(dephasing):
    d = decompose(dephasing)
    units = [
        make_unit(d, 0.0, [0.0]),
        make_unit(d, 0.0, [1.0]),
        make_unit(d, 1.0, [1.0]),
    ]
    assert gram_dimension(covariance_kernel(d, units)) == 1


def test_gram_dimension_needs_two_units(dephasing):
    d = decompose(dephasing)
    with pytest.raises(ValueError):
        gram_dimension(covariance_kernel(d, [make_unit(d, 0.0, [0.0])]))


def test_kernel_is_conditionally_positive_definite(rng):
    d = decompose(random_ccp_generator(rng, 3))
    c = covariance_kernel(d, sample_units(d, d.space.dim + 3, seed=5))
    g = c[1:, 1:] - c[1:, :1] - c[:1, 1:] + c[0, 0]
    assert np.linalg.eigvalsh((g + g.conj().T) / 2).min() >= -1e-9


def test_weighted_covariance_equals_weighted_inner(rng):
    # for purely vector units the kernel quadratic form is the metric one
    d = decompose(random_ccp_generator(rng, 2))
    dim = d.space.dim
    units, vs = [], []
    for _ in range(4):
        coeff = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        units.append(make_unit(d, 0.0, coeff))
        vs.append(d.space.from_coords(coeff))
    lam = rng.normal(size=4) + 1j * rng.normal(size=4)
    quad_cov = sum(
        lam[i] * lam[j].conjugate() * covariance(d, units[i], units[j])
        for i in range(4)
        for j in range(4)
    )
    quad_inner = sum(
        lam[i] * lam[j].conjugate() * d.space.inner(vs[i], vs[j])
        for i in range(4)
        for j in range(4)
    )
    assert quad_cov == pytest.approx(quad_inner, abs=1e-10)
    assert quad_cov.real >= -1e-10


def test_diagonal_covariance_equals_membership(rng):
    # units with purely imaginary scalar part: c_P(T,T) = <v,v>
    d = decompose(random_ccp_generator(rng, 2))
    coeff = rng.normal(size=d.space.dim) + 1j * rng.normal(size=d.space.dim)
    u = make_unit(d, 0.6j, coeff)
    v = d.space.from_coords(coeff)
    assert covariance(d, u, u) == pytest.approx(d.space.membership(v), abs=1e-10)


def test_sample_units_reproducible(dephasing):
    d = decompose(dephasing)
    a = sample_units(d, 5, seed=11)
    b = sample_units(d, 5, seed=11)
    assert len(a) == 5
    assert a[0].c == 0.0 and np.all(a[0].v_coords == 0)
    for u, w in zip(a, b):
        assert u.c == w.c
        np.testing.assert_array_equal(u.v_coords, w.v_coords)


def test_covariance_invariant_under_redecomposition(rng):
    # re-deriving the canonical form leaves unit data and covariances intact
    mat = random_ccp_generator(rng, 2)
    d1 = decompose(mat)
    d2 = decompose(rebuild(d1))
    s1 = np.column_stack([vec(v) for v in d1.space.basis] + [vec(np.eye(2))])
    s2 = np.column_stack([vec(v) for v in d2.space.basis] + [vec(np.eye(2))])
    both = np.hstack([s1, s2])
    rank = np.linalg.matrix_rank
    assert rank(both) == rank(s1) == rank(s2)
    us1 = sample_units(d1, d1.space.dim + 2, seed=2)
    us2 = [
        make_unit(d2, u.c, d2.space.coords(d1.space.from_coords(u.v_coords)))
        for u in us1
    ]
    for i, u in enumerate(us1):
        for j, w in enumerate(us1):
            assert covariance(d1, u, w) == pytest.approx(
                covariance(d2, us2[i], us2[j]), abs=1e-9
            )
