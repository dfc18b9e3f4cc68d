import numpy as np
import pytest
from conftest import SX, SZ, dephasing_generator, transpose_superop

from cpsemi.errors import ConstraintViolated
from cpsemi.numerics import DEFAULT_TOL
from cpsemi.sampling import (
    random_constrained_tuple,
    random_cp_map,
    random_hermitian,
    random_matrix,
)
from cpsemi.superop import (
    ad_superop,
    identity_superop,
    kraus_to_superop,
)
from cpsemi.symbols import (
    _two_sided_fit,
    block_positivity_witness,
    ccp_defect,
    check_block_positivity,
    is_conditionally_cp,
    recover_linear_form,
    symbol,
    symbol_table,
    symbols_equal,
)


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
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    mat = two_sided(a, a.conj().T)
    out = recover_linear_form(mat)
    assert out is not None
    ra, rb = out
    np.testing.assert_allclose(two_sided(ra, rb), mat, atol=1e-10)
    np.testing.assert_allclose(rb, ra.conj().T, atol=1e-10)


def test_recover_linear_form_commutator():
    h = np.array([[0.3, 0.4 - 0.2j], [0.4 + 0.2j, -0.3]])
    mat = two_sided(1j * h, -1j * h)
    ra, rb = recover_linear_form(mat)
    np.testing.assert_allclose(ra, 1j * h, atol=1e-10)
    np.testing.assert_allclose(rb, -1j * h, atol=1e-10)


def test_recover_linear_form_absent_for_nonzero_symbol():
    assert recover_linear_form(ad_superop(SZ)) is None
    assert recover_linear_form(dephasing_generator()) is None


def test_recover_linear_form_zero_map():
    ra, rb = recover_linear_form(np.zeros((9, 9)))
    np.testing.assert_allclose(ra, 0, atol=1e-14)
    np.testing.assert_allclose(rb, 0, atol=1e-14)


def test_linear_form_presence_agrees_with_symbol_vanishing(rng):
    # 50 pure linear forms and 50 generic maps, presence iff the symbol is zero
    for _ in range(50):
        n = int(rng.integers(2, 4))
        mat = two_sided(random_matrix(rng, n), random_matrix(rng, n))
        assert recover_linear_form(mat) is not None
        assert symbols_equal(mat, np.zeros_like(mat))
    for _ in range(50):
        n = int(rng.integers(2, 4))
        mat = ad_superop(random_matrix(rng, n))
        assert recover_linear_form(mat) is None
        assert not symbols_equal(mat, np.zeros_like(mat))


def test_conditionally_cp_verdicts(rng):
    assert is_conditionally_cp(random_cp_map(rng, 3))
    assert is_conditionally_cp(-identity_superop(2))
    assert is_conditionally_cp(dephasing_generator())
    assert not is_conditionally_cp(transpose_superop(2))
    assert not is_conditionally_cp(-ad_superop(SZ))


def test_projected_choi_defect_goldens():
    low, witness, _ = ccp_defect(transpose_superop(2))
    assert low == pytest.approx(-1.0)
    assert witness.shape == (4,)
    low2, _, _ = ccp_defect(-ad_superop(SZ))
    assert low2 == pytest.approx(-2.0)


def test_block_positivity_on_cp_map(rng):
    mat = random_cp_map(rng, 2)
    for _ in range(20):
        xs, as_ = random_constrained_tuple(rng, 2)
        assert check_block_positivity(mat, xs, as_)


def test_block_positivity_on_dephasing(rng):
    mat = dephasing_generator()
    for _ in range(200):
        xs, as_ = random_constrained_tuple(rng, 2)
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
    _, _, err = _two_sided_fit(mat1 - mat2)
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
