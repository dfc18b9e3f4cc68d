import ast
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    SX,
    SZ,
    linalg_spy,
    random_ccp_generator,
    random_hermitian,
    random_hp_map,
    transpose_superop,
)

import cpsemi.superop as superop
from cpsemi.errors import DimensionMismatch, NotCP, NotHermiticityPreserving, Overflow
from cpsemi.numerics import DEFAULT_TOL, frob
from cpsemi.superop import (
    ad_superop,
    apply_superop,
    choi_spectrum,
    identity_superop,
    is_completely_positive,
    is_hermiticity_preserving,
    kraus_from_spectrum,
    kraus_to_superop,
    superop_to_choi,
    unvec,
    vec,
)


def test_vec_is_column_stacking():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(vec(x), [1.0, 3.0, 2.0, 4.0])
    np.testing.assert_array_equal(unvec(vec(x)), x)


def test_vec_intertwines_left_right_multiplication(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    # the convention of the module docstring: vec(a x b) = kron(b.T, a) vec(x)
    np.testing.assert_allclose(unvec(np.kron(b.T, a) @ vec(x)), a @ x @ b, atol=1e-12)


def test_apply_superop_and_ad(rng):
    v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(
        apply_superop(ad_superop(v), x), v @ x @ v.conj().T, atol=1e-12
    )
    np.testing.assert_allclose(apply_superop(identity_superop(3), x), x, atol=1e-15)


def test_kraus_to_superop_sums_conjugations(rng):
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    m = kraus_to_superop(ops)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    want = sum(v @ x @ v.conj().T for v in ops)
    np.testing.assert_allclose(apply_superop(m, x), want, atol=1e-12)


def _kron_loop(ops):
    """Reference: the Kronecker products added one operator at a time."""
    n = ops[0].shape[0]
    out = np.zeros((n * n, n * n), dtype=complex)
    for v in ops:
        out += np.kron(v.conj(), v)
    return out


@pytest.mark.parametrize("n", [2, 4, 8])
def test_kraus_to_superop_matches_kron_loop(n):
    rng = np.random.default_rng(n)
    for r in sorted({1, 2, n, n * n - 1, n * n}):
        ops = rng.standard_normal((r, n, n)) + 1j * rng.standard_normal((r, n, n))
        want = _kron_loop(ops)
        got = kraus_to_superop(list(ops))
        assert frob(got - want) <= 1e-13 * max(1.0, frob(want))
        assert kraus_to_superop(ops).tobytes() == got.tobytes()


def test_kraus_to_superop_rejects_bad_families():
    for ops in ([], [SZ, np.eye(3)], [np.ones((2, 3))]):
        with pytest.raises(DimensionMismatch):
            kraus_to_superop(ops)


def test_empty_kraus_family_is_the_zero_map():
    for n in (1, 2, 3):
        np.testing.assert_array_equal(
            kraus_to_superop(np.zeros((0, n, n))), np.zeros((n * n, n * n))
        )
    with pytest.raises(DimensionMismatch):  # an untyped [] has no shape n x n
        kraus_to_superop([])


def test_choi_of_kraus_family_is_gram_product_of_vecs(rng):
    ops = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    big_v = np.column_stack([vec(v) for v in ops])
    np.testing.assert_allclose(
        superop_to_choi(kraus_to_superop(ops)), big_v @ big_v.conj().T, rtol=0, atol=1e-13
    )


def test_kraus_phase_ties_resolve_in_row_major_order():
    # |v| has two largest entries: v[0, 1] comes first in row-major order,
    # v[1, 0] first in vec (column-major) order, which would give -1j v
    v = np.array([[0, 1], [1j, 0]])
    out = kraus_from_spectrum(choi_spectrum(superop_to_choi(kraus_to_superop([v]))))
    assert out.shape == (1, 2, 2)
    np.testing.assert_allclose(out[0], v, rtol=0, atol=1e-14)


def test_choi_blocks_are_images_of_matrix_units(rng):
    n = 3
    mat = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    j = superop_to_choi(mat)
    for i in range(n):
        for jj in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, jj] = 1.0
            block = j[i * n : (i + 1) * n, jj * n : (jj + 1) * n]
            np.testing.assert_allclose(block, apply_superop(mat, e), atol=1e-12)


def test_choi_of_identity_is_maximally_entangled_projector():
    omega = vec(np.eye(2))
    np.testing.assert_allclose(
        superop_to_choi(identity_superop(2)), np.outer(omega, omega.conj()), atol=1e-15
    )


def test_choi_reshuffle_is_involutive(rng):
    mat = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    np.testing.assert_array_equal(superop_to_choi(superop_to_choi(mat)), mat)


def test_choi_to_kraus_reconstructs_and_is_deterministic(rng):
    ops = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
    j = superop_to_choi(kraus_to_superop(ops))
    out = kraus_from_spectrum(choi_spectrum(j))
    assert len(out) == 2
    np.testing.assert_allclose(superop_to_choi(kraus_to_superop(out)), j, atol=1e-11)
    again = kraus_from_spectrum(choi_spectrum(j))
    for u, w in zip(out, again):
        np.testing.assert_array_equal(u, w)
    # phase convention: the largest entry of each operator is real positive
    for u in out:
        top = u.flat[np.argmax(np.abs(u))]
        assert abs(top.imag) <= 1e-10 * abs(top) and top.real > 0


def test_choi_to_kraus_rejects_indefinite():
    with pytest.raises(NotCP, match="Choi matrix has negative eigenvalue -1.000e"):
        choi_spectrum(superop_to_choi(transpose_superop(2)))
    with pytest.raises(NotCP, match="Choi matrix is not Hermitian"):
        choi_spectrum(superop_to_choi(1j * identity_superop(2)))


def test_choi_spectrum_rejects_non_hermitian(rng):
    # Hermiticity is decided here, once, with the plain message
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    defect = frob(m - m.conj().T)
    with pytest.raises(NotCP) as info:
        choi_spectrum(m)
    assert str(info.value) == (
        "map is not completely positive: Choi matrix is not Hermitian: "
        f"||m - m*|| = {defect:.3e}"
    )
    assert not is_completely_positive(superop_to_choi(m))
    # a Hermitian Choi matrix within the residual is accepted as it is
    h = m @ m.conj().T
    assert is_completely_positive(superop_to_choi(h + 1e-14 * m))


def _outcome(choi, vectors):
    try:
        s = choi_spectrum(choi, vectors=vectors)
    except NotCP as exc:
        return str(exc)
    return s


def test_choi_spectrum_without_vectors_decides_the_same(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    cases = {
        "cp": a @ a.conj().T,
        "indefinite": superop_to_choi(transpose_superop(2)),
        "not hermitian": a,
    }
    for name, choi in cases.items():
        with_u, without = _outcome(choi, True), _outcome(choi, False)
        if isinstance(with_u, str):
            assert name != "cp" and without == with_u
            continue
        assert name == "cp" and without.u is None and with_u.u.shape == (4, 4)
        np.testing.assert_allclose(without.w, with_u.w, atol=1e-12)
        assert without.scale == pytest.approx(with_u.scale)
        assert without.psd() == with_u.psd()
        np.testing.assert_array_equal(without.kept(), with_u.kept())


def test_hermiticity_preserving_verdicts(rng):
    assert is_hermiticity_preserving(ad_superop(SZ + 1j * SX))
    assert is_hermiticity_preserving(transpose_superop(2))
    # x -> i x has an anti-Hermitian Choi matrix
    assert not is_hermiticity_preserving(1j * identity_superop(2))


def _hermitian_basis_oracle(n):
    """The basis of ``_real_form``'s docstring: for the vec position of
    x[k, i], E_kk, (E_ki + E_ik)/sqrt(2) (k < i) or i (E_ik - E_ki)/sqrt(2) (k > i)."""
    def e(a, b):
        return np.outer(np.eye(n)[a], np.eye(n)[b])

    out = []
    for p in range(n * n):
        i, k = divmod(p, n)
        if k == i:
            out.append(e(k, k))
        elif k < i:
            out.append((e(k, i) + e(i, k)) / np.sqrt(2))
        else:
            out.append(1j * (e(i, k) - e(k, i)) / np.sqrt(2))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_real_form_is_the_matrix_in_an_orthonormal_hermitian_basis(rng, n):
    basis = _hermitian_basis_oracle(n)
    assert all(np.array_equal(h, h.conj().T) for h in basis)
    gram = [[np.trace(a.conj().T @ b) for b in basis] for a in basis]
    np.testing.assert_allclose(gram, np.eye(n * n), atol=1e-15)
    mat = random_hp_map(rng, n)
    expected = [[np.trace(a @ apply_superop(mat, b)).real for b in basis] for a in basis]
    r = superop._real_form(mat)
    assert r.dtype == np.float64
    np.testing.assert_allclose(r, expected, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_complex_form_inverts_real_form(n):
    rng = np.random.default_rng(n)
    for mat in (random_hp_map(rng, n), random_ccp_generator(rng, n), 1e8 * random_hp_map(rng, n)):
        back = superop._complex_form(superop._real_form(mat))
        assert frob(back - mat) <= 1e-15 * frob(mat)
    r = rng.normal(size=(n * n, n * n))
    assert frob(superop._real_form(superop._complex_form(r)) - r) <= 1e-15 * frob(r)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_complex_form_preserves_hermiticity_bit_for_bit(rng, scale):
    for n in (2, 3, 5):
        j = superop_to_choi(superop._complex_form(scale * rng.normal(size=(n * n, n * n))))
        assert np.array_equal(j, j.conj().T)


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_real_form_raises_exactly_when_not_hermiticity_preserving(rng, scale):
    n = 3
    hp = [random_hp_map(rng, n), random_ccp_generator(rng, n), transpose_superop(n)]
    cases = [(scale * m, True) for m in hp]
    cases.append((scale * (rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))), False))
    # x -> i K(x) for a Hermiticity-preserving K has an anti-Hermitian Choi
    # matrix: added with weight eps it makes ||J - J*|| = 2 eps ||K||, here a
    # factor f from the bound residual * max(1, ||J||)
    for m in hp:
        k = 1j * superop_to_choi(random_hermitian(rng, n * n))
        for f in (0.5, 0.99, 1.01, 2.0):
            base = scale * m
            eps = f * DEFAULT_TOL.residual * max(1.0, frob(base)) / (2.0 * frob(k))
            cases.append((base + eps * k, f < 1))
    for mat, preserving in cases:
        assert is_hermiticity_preserving(mat) == preserving
        if preserving:
            superop._real_form(mat)
        else:
            with pytest.raises(NotHermiticityPreserving, match="J - J"):
                superop._real_form(mat)


def test_complete_positivity_verdicts(rng):
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
    assert is_completely_positive(kraus_to_superop(ops))
    assert not is_completely_positive(transpose_superop(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cp_rule_refuses_a_choi_matrix_that_is_not_finite(bad, recwarn):
    # no verdict, neither "not CP" nor "not Hermitian", and no warning first
    for real in (True, False):
        j = superop_to_choi(kraus_to_superop([SX, SZ]))
        j[1, 2] = bad if real else complex(0.0, bad)
        with pytest.raises(Overflow, match="not finite"):
            is_completely_positive(superop_to_choi(j))
        for vectors in (True, False):
            with pytest.raises(Overflow, match="not finite"):
                choi_spectrum(j, vectors=vectors)
    assert not recwarn.list


def test_is_completely_positive_takes_a_spectrum_only_when_cholesky_fails(monkeypatch, rng):
    eig_calls = linalg_spy(monkeypatch, "eigvalsh")
    chol_calls = linalg_spy(monkeypatch, "cholesky")
    assert not is_completely_positive(transpose_superop(3))
    assert eig_calls == [(9, 9)] and chol_calls == [(9, 9)]
    ops = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
    assert is_completely_positive(kraus_to_superop(ops))
    assert eig_calls == [(9, 9)] and len(chol_calls) == 2


def test_transpose_choi_spectrum():
    # the transpose map's Choi matrix is the swap, eigenvalues {-1, 1, 1, 1}
    j = superop_to_choi(transpose_superop(2))
    np.testing.assert_allclose(np.linalg.eigvalsh(j), [-1.0, 1.0, 1.0, 1.0], atol=1e-12)


def _kron_users(path: Path) -> set[str]:
    """Dotted names of the functions of a module that use kron."""
    users = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "kron" or (
                isinstance(child, ast.Name) and child.id == "kron"
            ):
                users.add(where)
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}" if named else where)

    visit(ast.parse(path.read_text()), path.stem)
    return users


def test_kron_only_in_conjugations_and_two_sided_maps():
    # a Kraus family's CP map is built in one place, kraus_to_superop, as one
    # product: Kronecker products build only a single conjugation and the
    # two-sided maps x -> a x + x b
    sources = sorted(Path(superop.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    users = set().union(*map(_kron_users, sources))
    assert users == {"superop.ad_superop", "generator.gkls_superop", "symbols.symbols_equal"}
