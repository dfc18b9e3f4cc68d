import json

import numpy as np
import pytest
from conftest import (
    SX,
    SZ,
    bench_corpus,
    dense_projected_choi,
    dephasing_generator,
    linalg_spy,
    loop_constrained_tuple,
    random_ccp_generator,
    random_hermitian,
    random_hp_map,
    symbol,
    transpose_superop,
)

import cpsemi.cli as cli
import cpsemi.generator as generator
import cpsemi.numerics as numerics
import cpsemi.symbols as symbols
from cpsemi.errors import (
    ConstraintViolated, DimensionMismatch, NotCCP, NotHermiticityPreserving, Overflow
)
from cpsemi.generator import decompose, is_unital_generator
from cpsemi.numerics import (
    DEFAULT_TOL, Tolerances, _factor_spectrum, _hermitian_spectrum, spectrum
)
from cpsemi.sampling import random_constrained_tuples, random_cp_map, random_matrix
from cpsemi.superop import (
    ad_superop,
    apply_superop,
    dim_of,
    identity_superop,
    superop_to_choi,
    unvec,
    vec,
)
from cpsemi.symbols import (
    _block_operators,
    _ccp_spectrum,
    _two_sided_fit,
    block_positivity_witness,
    check_block_positivity,
    is_conditionally_cp,
    projected_choi,
    symbols_equal,
)


def _unit_images(mat):
    """Tensor LE with LE[i, j] = L(E_ij) as an n x n block."""
    n = dim_of(mat)
    le = np.empty((n, n, n, n), dtype=complex)
    m = np.asarray(mat, dtype=complex)
    for i in range(n):
        for j in range(n):
            le[i, j] = unvec(m[:, j * n + i], n)
    return le


def symbol_table(mat):
    """All symbol values on pairs of matrix units, the n^6 oracle:
    ``T[i, j, k, l] = sigma_L(E_ij, E_kl)``, shape (n, n, n, n, n, n)."""
    n = dim_of(mat)
    le = _unit_images(mat)
    lone = apply_superop(mat, np.eye(n))
    eye = np.eye(n)
    t1 = np.einsum("jk,ilab->ijklab", eye, le)
    t2 = np.einsum("ai,kljb->ijklab", eye, le)
    t3 = np.einsum("ijak,bl->ijklab", le, eye)
    t4 = np.einsum("jk,ai,bl->ijklab", lone, eye, eye)
    return t1 - t2 - t3 + t4


def loop_block_operator(mat, xs, as_):
    """Reference S = sum_{j,k} a_j* L(x_j* x_k) a_k, one pair at a time."""
    n = dim_of(mat)
    s = np.zeros((n, n), dtype=complex)
    for xj, aj in zip(xs, as_):
        for xk, ak in zip(xs, as_):
            mid = apply_superop(mat, xj.conj().T @ xk)
            s += aj.conj().T @ mid @ ak
    return s


def loop_defect_tuple(mat):
    """Reference defect tuple, operator by operator: x_k = E_0k and
    a_k = (column k of unvec(u)) e_0*, u the traceless defect direction."""
    n = dim_of(mat)
    u = _ccp_spectrum(mat).u[:, -1]
    omega = vec(np.eye(n))
    bigu = unvec(u - omega * (omega.conj() @ u) / n, n)
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    xs, as_ = [], []
    for k in range(n):
        x = np.zeros((n, n), dtype=complex)
        x[0, k] = 1.0
        xs.append(x)
        as_.append(np.outer(bigu[:, k], e0.conj()))
    return xs, as_


def loop_witness(mat, n_tuples, seed, tol=DEFAULT_TOL):
    """Reference witness search: draw and decide one tuple at a time, stop
    at the first violation, then try the defect tuple.  Returns the tuple
    and whether it is the defect tuple, or None."""
    rng = np.random.default_rng(seed)
    n = dim_of(mat)
    candidates = [loop_constrained_tuple(rng, n) for _ in range(n_tuples)]
    for i, (xs, as_) in enumerate(candidates + [loop_defect_tuple(mat)]):
        if not spectrum(loop_block_operator(mat, xs, as_), vectors=False).psd(tol):
            return (xs, as_), i == n_tuples
    return None


def two_sided(a, b):
    """Superoperator of x -> a x + x b."""
    n = a.shape[0]
    return np.kron(np.eye(n), a) + np.kron(b.T, np.eye(n))


def test_symbol_of_identity_map_vanishes(rng):
    x = random_matrix(rng, 2)
    y = random_matrix(rng, 2)
    np.testing.assert_allclose(symbol(identity_superop(2), x, y), 0, atol=1e-12)


def test_symbol_golden_value():
    np.testing.assert_allclose(symbol(ad_superop(SZ), SX, SX), 4 * np.eye(2), atol=1e-12)


def test_symbol_vanishes_on_linear_forms(rng):
    a = random_matrix(rng, 3)
    b = random_matrix(rng, 3)
    mat = two_sided(a, b)
    x = random_matrix(rng, 3)
    y = random_matrix(rng, 3)
    np.testing.assert_allclose(symbol(mat, x, y), 0, atol=1e-11)


def test_symbol_table_matches_pointwise_evaluation(rng):
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    table = symbol_table(mat)
    assert table.shape == (2, 2, 2, 2, 2, 2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    eij = np.zeros((2, 2), dtype=complex)
                    eij[i, j] = 1.0
                    ekl = np.zeros((2, 2), dtype=complex)
                    ekl[k, l] = 1.0
                    np.testing.assert_allclose(
                        table[i, j, k, l], symbol(mat, eij, ekl), atol=1e-12
                    )


def test_symbols_equal_under_linear_shift(rng):
    mat = ad_superop(random_matrix(rng, 2))
    shifted = mat + two_sided(random_matrix(rng, 2), random_matrix(rng, 2))
    assert symbols_equal(mat, shifted)
    assert not symbols_equal(ad_superop(SZ), ad_superop(SX))


def test_recover_linear_form_round_trip():
    # the fit recovers a two-sided map, with b = a* when it preserves Hermiticity
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    mat = two_sided(a, a.conj().T)
    ra, rb = _two_sided_fit(mat)
    np.testing.assert_allclose(two_sided(ra, rb), mat, atol=1e-10)
    np.testing.assert_allclose(rb, ra.conj().T, atol=1e-10)


def test_recover_linear_form_zero_map():
    ra, rb = _two_sided_fit(np.zeros((9, 9)))
    np.testing.assert_allclose(ra, 0, atol=1e-14)
    np.testing.assert_allclose(rb, 0, atol=1e-14)


def test_two_sided_fit_commutator():
    h = np.array([[0.3, 0.4 - 0.2j], [0.4 + 0.2j, -0.3]])
    ra, rb = _two_sided_fit(two_sided(1j * h, -1j * h))
    np.testing.assert_allclose(ra, 1j * h, atol=1e-10)
    np.testing.assert_allclose(rb, -1j * h, atol=1e-10)


def test_linear_form_presence_agrees_with_symbol_vanishing(rng):
    # 50 pure linear forms and 50 generic maps: the symbol is zero exactly on
    # the former, at a random pair and by symbols_equal against the zero map
    for _ in range(50):
        n = int(rng.integers(2, 4))
        mat = two_sided(random_matrix(rng, n), random_matrix(rng, n))
        x, y = random_matrix(rng, n), random_matrix(rng, n)
        np.testing.assert_allclose(symbol(mat, x, y), 0, atol=1e-10)
        assert symbols_equal(mat, np.zeros_like(mat))
    for _ in range(50):
        n = int(rng.integers(2, 4))
        mat = ad_superop(random_matrix(rng, n))
        x, y = random_matrix(rng, n), random_matrix(rng, n)
        assert np.linalg.norm(symbol(mat, x, y)) > 1e-3
        assert not symbols_equal(mat, np.zeros_like(mat))


def test_conditionally_cp_verdicts(rng):
    assert is_conditionally_cp(random_cp_map(rng, 3))
    assert is_conditionally_cp(-identity_superop(2))
    assert is_conditionally_cp(dephasing_generator())
    assert not is_conditionally_cp(transpose_superop(2))
    assert not is_conditionally_cp(-ad_superop(SZ))


def test_projected_choi_defect_goldens():
    s = _ccp_spectrum(transpose_superop(2))
    assert s.w[-1] == pytest.approx(-1.0)
    assert s.u[:, -1].shape == (4,)
    assert _ccp_spectrum(-ad_superop(SZ)).w[-1] == pytest.approx(-2.0)


@pytest.mark.parametrize("n", range(2, 17))
def test_projected_choi_matches_the_dense_products(n):
    rng = np.random.default_rng(n)
    omega = vec(np.eye(n))
    maps = {
        "hermiticity-preserving": random_hp_map(rng, n),
        "generator": random_ccp_generator(rng, n, 2),
        "general": random_matrix(rng, n * n),
        "large": 1e6 * random_matrix(rng, n * n),
    }
    for name, mat in maps.items():
        j = superop_to_choi(mat)
        ref = dense_projected_choi(j)
        h = projected_choi(j.copy())
        assert np.linalg.norm(h - ref) <= 1e-14 * np.linalg.norm(ref), name
        assert np.array_equal(h, h.conj().T), name
        assert np.linalg.norm(h @ omega) <= 1e-14 * np.linalg.norm(h), name


def test_projected_choi_keeps_vec1_in_its_kernel_under_a_large_hamiltonian():
    # i[h, .] puts J's large entries in the rows and columns of vec(1), where the
    # projection cancels them; a second pass takes the first's rounding residue
    eps = np.finfo(float).eps
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        mat = random_ccp_generator(rng, n, 2)
        h = random_hermitian(rng, n)
        h *= 1e8 * np.linalg.norm(mat) / np.linalg.norm(h)
        eye = np.eye(n)
        j = superop_to_choi(mat + 1j * (np.kron(eye, h) - np.kron(h.T, eye)))
        p = projected_choi(j.copy())
        assert np.linalg.norm(p @ vec(eye)) <= 0.25 * eps * np.linalg.norm(j), seed


def test_projected_choi_overwrites_its_input(rng):
    j = superop_to_choi(random_hp_map(rng, 3))
    h = projected_choi(j)
    assert h is j


def test_ccp_spectrum_builds_the_choi_matrix_once(monkeypatch, rng):
    import cpsemi.symbols as symbols

    calls = []
    real = symbols.superop_to_choi
    monkeypatch.setattr(symbols, "superop_to_choi", lambda m: calls.append(1) or real(m))
    mat = random_ccp_generator(rng, 3, 2)
    w = _ccp_spectrum(mat).w
    assert len(calls) == 1
    ref = spectrum(dense_projected_choi(real(mat)), vectors=False).w
    np.testing.assert_allclose(w, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ccp_routes_refuse_a_map_that_is_not_finite(bad, recwarn):
    mat = dephasing_generator()
    mat[1, 2] = bad
    for route in (_ccp_spectrum, is_conditionally_cp, lambda m: block_positivity_witness(m, 5)):
        with pytest.raises(Overflow, match="not finite"):
            route(mat)
    assert not recwarn.list


def test_block_positivity_on_cp_map(rng):
    mat = random_cp_map(rng, 2)
    for _ in range(20):
        (xs,), (as_,) = random_constrained_tuples(rng, 2, 1)
        assert check_block_positivity(mat, xs, as_)


def test_block_positivity_on_dephasing(rng):
    mat = dephasing_generator()
    for _ in range(200):
        (xs,), (as_,) = random_constrained_tuples(rng, 2, 1)
        assert check_block_positivity(mat, xs, as_)


def test_block_positivity_requires_constraint(rng):
    xs = [random_matrix(rng, 2), random_matrix(rng, 2)]
    as_ = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]
    with pytest.raises(ConstraintViolated):
        check_block_positivity(dephasing_generator(), xs, as_)


def test_witness_search_on_transpose():
    found = block_positivity_witness(transpose_superop(2), seed=1)
    assert found is not None
    xs, as_ = found
    assert not check_block_positivity(transpose_superop(2), xs, as_)


def test_witness_search_clears_ccp_generator():
    assert block_positivity_witness(dephasing_generator(), n_tuples=20, seed=1) is None


def _frozen_maps():
    """Seeded (map, seed) pairs at n in {2, 3, 4, 6}: CCP generators, generic
    Hermiticity-preserving maps, and CCP generators pushed just outside the
    cone, which only the defect tuple catches."""
    rng = np.random.default_rng(20261018)
    for n in (2, 3, 4, 6):
        for i in range(3):
            yield random_ccp_generator(rng, n), 100 + i
            yield random_hp_map(rng, n), 200 + i
            near = random_ccp_generator(rng, n, m=2) - 1e-4 * ad_superop(random_matrix(rng, n))
            yield near, 300 + i


def _one_term_tuples(rng, n, count):
    """``count`` tuples of length 1 with x a = 0 and a != 0, shape (count, 1,
    n, n): x is random but for a zero first column, and a = e_0 w* for a
    random w.  (A random x is invertible, and forces a = 0.)"""
    xs = np.stack([random_matrix(rng, n) for _ in range(count)])
    xs[:, :, 0] = 0.0
    as_ = np.zeros_like(xs)
    as_[:, 0] = np.stack([random_matrix(rng, n)[0] for _ in range(count)])
    return xs[:, None], as_[:, None]


def test_block_operators_match_the_pairwise_loop():
    # every S of a stacked evaluation agrees with the one-pair-at-a-time
    # reference to 1e-12 relative, for tuples of length r = 1..4 in stacks
    # of 1 and 20, whose count r^2 blocks L maps as the rows of one product
    for mat, seed in _frozen_maps():
        n = dim_of(mat)
        rng = np.random.default_rng(seed)
        stacks = [_one_term_tuples(rng, n, count) for count in (1, 20)]
        stacks += [random_constrained_tuples(rng, n, count, r)
                   for r in (2, 3, 4) for count in (1, 20)]
        for xs, as_ in stacks:
            count, r = xs.shape[:2]
            stacked = _block_operators(mat, xs, as_, DEFAULT_TOL)
            assert stacked.shape == (count, n, n)
            for i in range(count):
                ref = loop_block_operator(mat, xs[i], as_[i])
                assert np.linalg.norm(stacked[i] - ref) <= 1e-12 * np.linalg.norm(ref), (r, i)
        # the defect tuple, r = n: its S is u* J u e_0 e_0*, near 0 for a CCP
        # map, so 1e-12 relative to ||L||_F (sum_k ||x_k|| ||a_k||)^2 >= ||S||
        xs, as_ = symbols._defect_tuple(mat, superop_to_choi(mat))
        size = np.linalg.norm(xs, axis=(1, 2)) @ np.linalg.norm(as_, axis=(1, 2))
        stacked = _block_operators(mat, xs[None], as_[None], DEFAULT_TOL)[0]
        ref = loop_block_operator(mat, xs, as_)
        assert np.linalg.norm(stacked - ref) <= 1e-12 * np.linalg.norm(mat) * size**2


def test_witness_search_returns_the_reference_tuple_bitwise():
    # the same first violating tuple in draw order, then the same defect
    # tuple, as the one-tuple-at-a-time search; None exactly when it is None
    kinds = set()
    for mat, seed in _frozen_maps():
        found = block_positivity_witness(mat, 50, seed=seed)
        ref = loop_witness(mat, 50, seed)
        assert (found is None) == (ref is None)
        if found is None:
            kinds.add("none")
            continue
        (ref_xs, ref_as), from_defect = ref
        kinds.add("defect" if from_defect else "drawn")
        assert len(found[0]) == len(ref_xs) and len(found[1]) == len(ref_as)
        for got, want in zip((*found[0], *found[1]), (*ref_xs, *ref_as)):
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    assert kinds == {"none", "drawn", "defect"}


def test_witness_search_rejects_maps_that_are_not_hermiticity_preserving():
    # for L = i c id, S = i c |sum_k x_k a_k|^2 vanishes on every constrained
    # tuple, so no tuple could witness that L is not CCP
    ccp = random_ccp_generator(np.random.default_rng(0), 3, 2)
    for mat in (1j * identity_superop(3), ccp + 0.3j * identity_superop(3)):
        assert not is_conditionally_cp(mat)
        with pytest.raises(NotHermiticityPreserving):
            block_positivity_witness(mat, 50, seed=1)
        (xs,), (as_,) = random_constrained_tuples(np.random.default_rng(1), 3, 1)
        with pytest.raises(NotHermiticityPreserving):
            check_block_positivity(mat, xs, as_)
    assert block_positivity_witness(ccp, 50, seed=1) is None


def test_witness_search_checks_hermiticity_preservation_once(monkeypatch):
    # a CCP map has no random witness, so the search also builds the defect
    # tuple; that step projects the guard's Choi matrix without a second guard
    import cpsemi.symbols as symbols

    calls = []
    real = symbols.is_hermitian

    def counting(m, tol=DEFAULT_TOL):
        calls.append(1)
        return real(m, tol)

    monkeypatch.setattr(symbols, "is_hermitian", counting)
    ccp = random_ccp_generator(np.random.default_rng(0), 3, 2)
    assert block_positivity_witness(ccp, 50, seed=1) is None
    assert len(calls) == 1


def test_block_positivity_input_contract(rng):
    mat = dephasing_generator()
    xs, as_ = (list(ops[0]) for ops in random_constrained_tuples(rng, 2, 1))
    with pytest.raises(ConstraintViolated):
        check_block_positivity(mat, xs, as_[:2])
    with pytest.raises(ConstraintViolated):
        check_block_positivity(mat, [], [])
    # wrong and ragged shapes are a dimension error, not a numpy one
    with pytest.raises(DimensionMismatch):
        check_block_positivity(mat, [np.eye(3)] * 3, [np.eye(3)] * 3)
    with pytest.raises(DimensionMismatch):
        check_block_positivity(mat, xs[:2] + [np.eye(3)], as_)
    with pytest.raises(DimensionMismatch):
        check_block_positivity(mat, xs, as_[:2] + [np.ones(2)])


def test_constraint_violation_names_the_worst_tuple(rng):
    xs, as_ = random_constrained_tuples(rng, 2, 4)
    as_ = as_.copy()
    as_[1, 0] += 1e-6
    as_[2, 0] += 1e-3
    with pytest.raises(ConstraintViolated, match=r"tuple 2 of 4"):
        _block_operators(dephasing_generator(), xs, as_, DEFAULT_TOL)


def test_symbol_norm_bound(rng):
    # ||sigma(x, y)|| <= 4 ||L|| ||x|| ||y|| with the certified upper bound
    # ||L|| <= n * ||mat(L)||_2
    for n in (2, 3):
        mat = np.asarray(
            rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
        )
        bound = 4.0 * n * np.linalg.norm(mat, 2)
        for _ in range(20):
            x = random_matrix(rng, n)
            y = random_matrix(rng, n)
            x = x / np.linalg.norm(x, 2)
            y = y / np.linalg.norm(y, 2)
            assert np.linalg.norm(symbol(mat, x, y), 2) <= bound + 1e-12


def test_symbols_equal_respects_hermitian_drift(rng):
    # adding k x + x k* never changes the symbol, for any k
    mat = dephasing_generator()
    k = random_matrix(rng, 2)
    assert symbols_equal(mat, mat + two_sided(k, k.conj().T))


def _table_distance(mat1, mat2, residual):
    """The n^6 oracle: distance of the symbol tables over its bound."""
    t1 = symbol_table(mat1)
    t2 = symbol_table(mat2)
    bound = residual * max(1.0, np.linalg.norm(t1), np.linalg.norm(t2))
    return np.linalg.norm(t1 - t2) / bound


def _fit_distance(mat1, mat2, residual):
    """What symbols_equal compares: the two-sided fit residual over its bound."""
    a, b = _two_sided_fit(mat1 - mat2)
    err = np.linalg.norm(two_sided(a, b) - (mat1 - mat2))
    return err / (residual * max(1.0, np.linalg.norm(mat1), np.linalg.norm(mat2)))


def test_symbols_equal_agrees_with_symbol_table_oracle():
    # 300 frozen pairs at n <= 4 and scales 1e-6 .. 1e6: two-sided shifts
    # (equal symbols), CP perturbations of relative size 1e-14 .. 1
    # (straddling the threshold) and unrelated maps (different symbols).
    # The two tests measure the symbol difference in equivalent norms, so
    # they may only disagree where both distances sit near their bounds.
    rng = np.random.default_rng(20261017)
    residual = DEFAULT_TOL.residual
    disagree = 0
    for i in range(300):
        n = int(rng.integers(2, 5))
        s = 10.0 ** rng.uniform(-6, 6)
        mat1 = s * random_matrix(rng, n * n)
        if i % 3 == 0:
            mat2 = mat1 + s * two_sided(random_matrix(rng, n), random_matrix(rng, n))
        elif i % 3 == 1:
            eps = 10.0 ** rng.uniform(-14, 0)
            mat2 = mat1 + s * eps * ad_superop(random_matrix(rng, n))
        else:
            mat2 = s * random_matrix(rng, n * n)
        verdict = symbols_equal(mat1, mat2)
        oracle = _table_distance(mat1, mat2, residual)
        if verdict != (oracle <= 1.0):
            disagree += 1
            assert 0.1 <= oracle <= 10.0
            assert 0.1 <= _fit_distance(mat1, mat2, residual) <= 10.0
        if i % 3 == 0:
            assert verdict
        elif i % 3 == 2:
            assert not verdict
    assert disagree <= 6


# ---------------------------------------------------------------------------
# The factor certificate of _ccp_spectrum (numerics._factor_spectrum)


def _weighted_jumps(weights, n=8, seed=3):
    """L(x) = sum_i w_i v_i x v_i* with the v_i traceless and orthonormal in
    the Frobenius product: P J P = sum_i w_i vec(v_i) vec(v_i)* exactly."""
    rng = np.random.default_rng(seed)
    shape = (n * n, len(weights))
    draws = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, _ = np.linalg.qr(np.column_stack([vec(np.eye(n)), draws]))
    vs = [unvec(col, n) for col in q[:, 1:].T]
    return sum(w * np.kron(v.conj(), v) for w, v in zip(weights, vs))


def _projected(mat):
    return projected_choi(superop_to_choi(mat))


def _certified(s):
    """True iff ``s``, a result of the factor, is a certified spectrum: every
    pair it holds is kept, where any other spectrum of a projected Choi
    matrix holds the eigenvalue 0 along vec(1)."""
    return s is not None and bool(s.kept().all())


_CUT = DEFAULT_TOL.eig_cut * 4.0  # the cut at scale 4, the largest weight
# (third weight, rank by the eigendecomposition or None for not CCP, certified)
_NEAR_THE_CUT = [
    (20 * _CUT, 3, True),
    (3 * _CUT, 3, False),  # kept, within 10x of the cut
    (0.3 * _CUT, 2, False),  # dropped, within 10x of the cut
    (0.05 * _CUT, 2, True),  # the pivots stop against max ||f_j||^2, not max |h_ii|
    (0.005 * _CUT, 2, True),
    (-0.3 * _CUT, 2, False),  # PSD within the slack, within 10x of it
    (-3 * _CUT, None, False),
]


@pytest.mark.parametrize("third, rank, certified", _NEAR_THE_CUT)
def test_factor_certificate_declines_near_the_cut(third, rank, certified):
    mat = _weighted_jumps([4.0, 1.0, third])
    h = _projected(mat)
    assert _certified(_factor_spectrum(h.copy(), DEFAULT_TOL)) == certified
    ref = _hermitian_spectrum(h, True)
    got = _ccp_spectrum(mat)
    assert bool(got.psd()) == bool(ref.psd()) == (rank is not None)
    if rank is not None:
        assert got.kept().sum() == ref.kept().sum() == rank


def test_factor_certificate_sees_an_indefinite_remainder():
    # P J P = 4 e_p e_p* + e_q e_q* + eps (e_s e_t* + e_t e_s*): the pivots
    # left are all 0 after two steps, but the remainder has eigenvalue -eps,
    # beyond the slack; only the explicit ||S||_F finds it
    def unit(i, j):
        e = np.zeros((8, 8), dtype=complex)
        e[i, j] = 1.0
        return e

    eps = 3 * _CUT
    a, b = unit(0, 1), unit(2, 3)
    mat = (4 * np.kron(unit(4, 5).conj(), unit(4, 5)) + np.kron(unit(6, 7).conj(), unit(6, 7))
           + eps * (np.kron(b.conj(), a) + np.kron(a.conj(), b)))
    assert _factor_spectrum(_projected(mat), DEFAULT_TOL) is None
    assert not is_conditionally_cp(mat)
    assert _ccp_spectrum(mat).w[-1] == pytest.approx(-eps)


def _reports_with_and_without_factor(tmp_path, monkeypatch, mat, *flags):
    """`cpsemi analyze` on the superop spec of ``mat``: (exit code, report
    bytes) with the factor certificate, then with it disabled."""
    corpus = bench_corpus()
    spec = corpus.write_json(str(tmp_path / "gen.json"), corpus.spec_superop(mat))
    out = tmp_path / "out.json"
    reports = []
    for disable in (False, True):
        if disable:
            monkeypatch.setattr(symbols, "_factor_spectrum", lambda h, tol, **kw: None)
        code = cli.main(["analyze", "--input", spec, "--output", str(out), *flags])
        reports.append((code, out.read_bytes()))
    return reports


def test_factor_certificate_declines_a_tight_tolerance(tmp_path, monkeypatch):
    mat = bench_corpus().make_generator(np.random.default_rng(7), 8, 2, True).mat
    h = _projected(mat)
    assert _factor_spectrum(h, DEFAULT_TOL) is not None
    assert _factor_spectrum(h, Tolerances(1e-15)) is None
    with_factor, without = _reports_with_and_without_factor(
        tmp_path, monkeypatch, mat, "--tol", "1e-15"
    )
    assert with_factor == without and with_factor[0] == 0


def test_a_generator_that_is_not_ccp_keeps_its_witness(tmp_path, monkeypatch):
    # the factor meets a negative pivot (a diagonal entry of h) and sends h
    # to its eigenvalues and one solve: the report is the eigendecomposition's
    # but for the last bits of the witness and its eigenvalue
    corpus = bench_corpus()
    rng = np.random.default_rng(11)
    mat = corpus.make_non_ccp(rng, corpus.make_generator(rng, 16, 3, False).mat)
    assert not _certified(_factor_spectrum(_projected(mat), DEFAULT_TOL))
    with_factor, without = _reports_with_and_without_factor(tmp_path, monkeypatch, mat)
    assert with_factor[0] == without[0] == 2
    got, want = (json.loads(report) for _, report in (with_factor, without))
    u, v = (np.array([complex(*pair) for pair in doc.pop("witness")]) for doc in (got, want))
    assert np.linalg.norm(u - v) <= 1e-12
    assert got.pop("projected_eigenvalue") == pytest.approx(want.pop("projected_eigenvalue"),
                                                            rel=1e-12)
    assert got == want


# make_non_ccp of the corpus's generators at n = 16 whose factor meets a
# pivot below -psd_slack s_lo only after step 0, as (seed, rank): one rng
# per seed and size, drawing ranks 1, 2, 16, 64 and 255 in turn.  They are
# all 8 such maps among n in {8, 12, 16} and seeds 0-5.
_LATE_NEGATIVE_PIVOTS = [(0, 255), (1, 64), (1, 255), (2, 255), (3, 255), (4, 64),
                         (5, 64), (5, 255)]


def test_a_late_negative_pivot_takes_the_witness_route(monkeypatch):
    # rank and decompose both find the witness by eigvalsh and one solve,
    # the same bytes, and decompose makes no eigh at the side n^2
    corpus = bench_corpus()
    eigh = linalg_spy(monkeypatch, "eigh")
    for seed in range(6):
        rng = np.random.default_rng(seed)
        for m in (1, 2, 16, 64, 255):
            mat = corpus.make_non_ccp(rng, corpus.make_generator(rng, 16, m, seed % 2 == 0).mat)
            if (seed, m) not in _LATE_NEGATIVE_PIVOTS:
                continue
            assert _projected(mat).diagonal().real.min() > -DEFAULT_TOL.psd_slack
            with pytest.raises(NotCCP) as by_rank:
                generator.rank(mat)
            eigh.clear()
            with pytest.raises(NotCCP) as by_decompose:
                decompose(mat)
            assert [shape for shape in eigh if shape[-1] == 256] == [], (seed, m)
            assert by_rank.value.witness.tobytes() == by_decompose.value.witness.tobytes()
            assert by_rank.value.eigenvalue == by_decompose.value.eigenvalue


@pytest.mark.parametrize("n", [8, 12])
def test_factor_certificate_agrees_with_the_eigendecomposition(n, monkeypatch):
    corpus = bench_corpus()
    cases = []
    for seed in range(20):
        for m in (1, 2, n, n * n // 4, n * n - 1):
            rng = np.random.default_rng([seed, m])
            cases.append(random_ccp_generator(rng, n, m, unital=seed % 2 == 0))
        cases.append(corpus.make_non_ccp(rng, cases[-4]))

    def answers():
        # index, ccp and unital, as `cpsemi analyze` reports them
        out = []
        for mat in cases:
            try:
                index = decompose(mat).space.dim
            except NotCCP:
                index = None
            out.append((index, is_unital_generator(mat)))
        return out

    real, certified = symbols._factor_spectrum, []
    monkeypatch.setattr(
        symbols, "_factor_spectrum",
        lambda h, tol, **kw: certified.append(real(h, tol, **kw)) or certified[-1],
    )
    with_factor = answers()
    # the 60 CCP cases of ranks 1, 2 and n; rank n^2 / 4 is the limit
    assert sum(map(_certified, certified)) == 60
    monkeypatch.setattr(symbols, "_factor_spectrum", lambda h, tol, **kw: None)
    assert answers() == with_factor


def test_a_certified_spectrum_holds_the_kept_eigenpairs():
    corpus = bench_corpus()
    for m in (1, 2, 8, 15):
        h = _projected(corpus.make_generator(np.random.default_rng(m), 8, m, True).mat)
        s = _factor_spectrum(h, DEFAULT_TOL)
        ref = _hermitian_spectrum(h, True)
        assert s.w.shape == (m,) and s.u.shape == (64, m)
        np.testing.assert_allclose(s.w, ref.w[:m], rtol=0, atol=1e-13 * ref.scale)
        assert s.scale == pytest.approx(ref.scale, rel=1e-13)
        assert np.abs(s.u.conj().T @ s.u - np.eye(m)).max() <= 1e-13
        # the same span: each projector reproduces the other's vectors
        assert np.linalg.norm(s.u @ (s.u.conj().T @ ref.u[:, :m]) - ref.u[:, :m]) <= 1e-12


def _spy_on_the_ladder(monkeypatch):
    """Record, per call, which step of the CCP ladder answered: 'factor',
    'full rank', 'witness' (the eigenvalues and one solve, which the factor
    itself asks for at a negative pivot) or 'eigh' (the one fallback)."""
    steps = []

    def spy(name, module, real, answered):
        def call(*args, **kw):
            out = real(*args, **kw)
            steps.append((name, answered(out)))
            return out
        monkeypatch.setattr(module, real.__name__, call)

    spy("factor", symbols, symbols._factor_spectrum, _certified)
    spy("full rank", symbols, symbols._full_rank_certified, bool)
    spy("witness", numerics, numerics._witness_spectrum, lambda s: True)
    spy("eigh", symbols, symbols._hermitian_spectrum, lambda s: True)

    def path():
        answered = [name for name, done in steps if done]
        steps.clear()
        return answered[-1] if answered else None
    return path


def _or_none(count, mat):
    """count(mat), or None where it raises NotCCP."""
    try:
        return count(mat)
    except NotCCP:
        return None


@pytest.mark.parametrize("n", [8, 16])
def test_rank_is_decomposes_dimension_by_the_expected_certificate(n, monkeypatch):
    corpus = bench_corpus()
    expected = {1: "factor", 2: "factor", n * n // 4: "eigh",
                n * n - 2: "eigh", n * n - 1: "full rank"}
    for seed in range(10):
        for m, step in expected.items():
            mat = corpus.make_generator(np.random.default_rng(seed), n, m, seed % 2 == 0).mat
            path = _spy_on_the_ladder(monkeypatch)
            assert generator.rank(mat) == m
            assert path() == step, (seed, m)
            assert decompose(mat).space.dim == m
            monkeypatch.undo()


@pytest.mark.parametrize("third, rank, certified", _NEAR_THE_CUT)
def test_rank_near_the_cut_is_decomposes_dimension(third, rank, certified, monkeypatch):
    mat = _weighted_jumps([4.0, 1.0, third])
    path = _spy_on_the_ladder(monkeypatch)
    assert _or_none(generator.rank, mat) == rank
    # a map that is not CCP meets a negative pivot; any other the factor declines
    assert path() == ("factor" if certified else "eigh" if rank else "witness")
    assert _or_none(lambda m: decompose(m).space.dim, mat) == rank


def test_rank_at_a_tight_tolerance_is_decomposes_dimension():
    # at --tol 1e-15 the cut lies within rounding of the eigenvalue along
    # vec(1); eigvalsh counted 65 here where eigh counts 64, so a count
    # reads eigh wherever the certificates decline
    mat = bench_corpus().make_generator(np.random.default_rng(5), 16, 64, False).mat
    for rel in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3):
        tol = Tolerances(rel)
        assert generator.rank(mat, tol) == decompose(mat, tol).space.dim, rel
