import numpy as np
import pytest
from conftest import SX, SZ

from cpsemi.errors import DimensionMismatch, NotCP, NotMember
from cpsemi.numerics import Tolerances
from cpsemi.opspace import space_from_cp_map
from cpsemi.superop import (
    ad_superop,
    identity_superop,
    kraus_to_superop,
    superop_to_choi,
    vec,
)
from cpsemi.sampling import random_cp_map, random_matrix


def dephasing_cp_map():
    """The channel x -> (x + sz x sz) / 2."""
    return 0.5 * (identity_superop(2) + ad_superop(SZ))


def least_domination_constant(mat, a, lo=0.0, hi=None, iters=60):
    """Brute force: smallest c with c*P - Ad_a completely positive.

    Binary search on the minimum Choi eigenvalue; returns None when even a
    huge c fails (a outside the space of P).
    """
    def fails(c):
        w = np.linalg.eigvalsh(superop_to_choi(c * mat - ad_superop(a)))
        return w.min() < -1e-10 * max(1.0, np.abs(w).max())

    if hi is None:
        hi = 1e6 * (1.0 + np.linalg.norm(a)) ** 2
    if fails(hi):
        return None
    for _ in range(iters):
        mid = (lo + hi) / 2
        if fails(mid):
            lo = mid
        else:
            hi = mid
    return hi


def test_a_space_decides_membership_at_the_tolerance_it_was_cut_at():
    # v2 is Frobenius-orthogonal to v1 with 1e-4 of its norm, so its Choi
    # eigenvalue is 1e-8 of v1's, below a cut at 1e-6; a v2-component of
    # 3e-7 of ||v1|| is within that space's cut, though not within 1e-9
    rng = np.random.default_rng(0)
    v1, w = random_matrix(rng, 3), random_matrix(rng, 3)
    v2 = w - np.vdot(v1, w) / np.vdot(v1, v1) * v1
    v2 *= 1e-4 * np.linalg.norm(v1) / np.linalg.norm(v2)
    e = space_from_cp_map(kraus_to_superop([v1, v2]), Tolerances(1e-6))
    assert e.dim == 1
    a = v1 + 3e-3 * v2
    assert e.membership(a) == pytest.approx(1.0)
    assert e.inner(a, a) == pytest.approx(e.membership(a))
    assert np.sum(np.abs(e.coords(a)) ** 2) == pytest.approx(e.membership(a))


def test_identity_map_space():
    e = space_from_cp_map(identity_superop(2))
    assert e.dim == 1
    np.testing.assert_allclose(e.basis[0], np.eye(2), atol=1e-12)


def test_dephasing_space_spans_identity_and_sz():
    e = space_from_cp_map(dephasing_cp_map())
    assert e.dim == 2
    assert e.membership(np.eye(2)) is not None
    assert e.membership(SZ) is not None
    assert e.membership(SX) is None


def test_rank_one_space_membership_values():
    e = space_from_cp_map(ad_superop(SZ))
    assert e.dim == 1
    np.testing.assert_allclose(e.basis[0], SZ, atol=1e-12)
    assert e.membership(SZ) == pytest.approx(1.0)
    assert e.membership(np.eye(2)) is None
    assert e.membership(2 * SZ) == pytest.approx(4.0)


def test_membership_equals_least_domination_constant(rng):
    for n in (2, 3):
        for _ in range(3):
            mat = random_cp_map(rng, n)
            e = space_from_cp_map(mat)
            coeff = rng.normal(size=e.dim) + 1j * rng.normal(size=e.dim)
            a = e.from_coords(coeff)
            got = e.membership(a)
            want = least_domination_constant(mat, a)
            assert got == pytest.approx(want, abs=1e-6)


def test_non_member_has_no_domination_constant(rng):
    e = space_from_cp_map(ad_superop(SZ))
    assert least_domination_constant(ad_superop(SZ), SX, hi=1e8) is None
    assert e.membership(SX) is None


def test_membership_scaling(rng):
    e = space_from_cp_map(dephasing_cp_map())
    a = e.from_coords([0.3 - 0.2j, 1.1j])
    lam = 1.7 - 0.4j
    assert e.membership(lam * a) == pytest.approx(abs(lam) ** 2 * e.membership(a))


def test_inner_product_values():
    e = space_from_cp_map(dephasing_cp_map())
    gram = [[e.inner(u, w) for w in e.basis] for u in e.basis]
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)
    v1 = e.basis[0]
    assert e.inner(2 * v1, 3 * v1) == pytest.approx(6.0)
    assert e.inner(np.eye(2), SZ) == pytest.approx(0.0, abs=1e-12)
    assert e.inner(v1, v1) == pytest.approx(e.membership(v1))


def test_inner_rejects_non_members():
    e = space_from_cp_map(ad_superop(SZ))
    with pytest.raises(NotMember):
        e.inner(SX, SZ)
    with pytest.raises(NotMember):
        e.inner(SZ, SX)


def test_parseval(rng):
    e = space_from_cp_map(random_cp_map(rng, 3))
    a = e.from_coords(rng.normal(size=e.dim) + 1j * rng.normal(size=e.dim))
    expansion = sum(e.inner(a, v) * v for v in e.basis)
    np.testing.assert_allclose(expansion, a, atol=1e-9)


def test_coords_round_trip(rng):
    e = space_from_cp_map(random_cp_map(rng, 2))
    coeff = rng.normal(size=e.dim) + 1j * rng.normal(size=e.dim)
    np.testing.assert_allclose(e.coords(e.from_coords(coeff)), coeff, atol=1e-10)


def test_basis_independence(rng):
    # same CP map presented by two different Kraus families: identical metrics
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    mixed = [u[0, 0] * ops[0] + u[0, 1] * ops[1], u[1, 0] * ops[0] + u[1, 1] * ops[1]]
    e1 = space_from_cp_map(kraus_to_superop(ops))
    e2 = space_from_cp_map(kraus_to_superop(mixed))
    a = 0.7 * ops[0] - 1.2j * ops[1]
    b = ops[1]
    assert e1.membership(a) == pytest.approx(e2.membership(a), abs=1e-10)
    assert e1.inner(a, b) == pytest.approx(e2.inner(a, b), abs=1e-10)


def test_any_independent_kraus_family_is_an_orthonormal_basis(rng):
    # The paper's property of E(P): every linearly independent Kraus family
    # of P is orthonormal in the inner product of its space, whichever
    # family the space itself stores.
    for n, m in ((2, 2), (3, 4)):
        ops = [random_matrix(rng, n) for _ in range(m)]
        u = np.linalg.qr(random_matrix(rng, m))[0]
        mixed = list(np.tensordot(u, ops, axes=1))
        for family in (ops, mixed):
            e = space_from_cp_map(kraus_to_superop(family))
            assert e.dim == m
            for v in family:
                assert e.membership(v) == pytest.approx(1.0)
            gram = [[e.inner(vi, vj) for vj in family] for vi in family]
            np.testing.assert_allclose(gram, np.eye(m), atol=1e-9)


def test_space_from_cp_map_rejects_non_cp():
    from conftest import transpose_superop

    with pytest.raises(
        NotCP, match="map is not completely positive: Choi matrix has negative eigenvalue"
    ):
        space_from_cp_map(transpose_superop(2))


def test_space_from_cp_map_dim_matches_basis(rng):
    for n in (2, 3):
        for m in (1, 2, n * n):
            e = space_from_cp_map(random_cp_map(rng, n, m=m))
            assert e.dim == len(e.basis) == m
            for v in e.basis:
                assert e.membership(v) == pytest.approx(1.0)


def _reference_spaces(rng):
    """Spaces of random CP maps at several sizes and ranks, the last one
    built from an explicit Kraus family."""
    for n in (2, 3, 4):
        for m in (1, 2, n + 1, n * n):
            yield space_from_cp_map(random_cp_map(rng, n, m=m))
    yield space_from_cp_map(kraus_to_superop([random_matrix(rng, 3) for _ in range(4)]))


def _random_member(rng, e):
    return e.from_coords(rng.normal(size=e.dim) + 1j * rng.normal(size=e.dim))


def test_queries_match_the_dense_reference(rng):
    # The dense n^2 x n^2 formulas: <a, b>_E = vec(b)* (U W^-1 U*) vec(a),
    # and a is a member iff ||(1 - U U*) vec(a)|| <= eig_cut ||vec(a)||.
    cut = 1e-9
    for e in _reference_spaces(rng):
        u, w = e.u, e.w
        pinv = (u / w) @ u.conj().T
        comp = np.eye(e.n * e.n) - u @ u.conj().T
        members = [_random_member(rng, e) for _ in range(3)]
        for a in members:
            ra = vec(a)
            assert np.linalg.norm(comp @ ra) <= cut * np.linalg.norm(ra)
            norm2 = float(np.real(ra.conj() @ pinv @ ra))
            assert e.membership(a) == pytest.approx(norm2, rel=1e-10)
            for b in members:
                want = vec(b).conj() @ pinv @ ra
                scale = np.sqrt(norm2 * e.membership(b))
                assert abs(e.inner(a, b) - want) <= 1e-10 * scale
            want = np.array([vec(v).conj() @ pinv @ ra for v in e.basis])
            got = e.coords(a)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        other = random_matrix(rng, e.n)
        ro = vec(other)
        member = np.linalg.norm(comp @ ro) <= cut * np.linalg.norm(ro)
        assert (e.membership(other) is not None) == member
        assert member == (e.dim == e.n * e.n)


def test_empty_space_has_only_zero():
    empty = space_from_cp_map(np.zeros((4, 4)))
    assert empty.dim == 0 and empty.u.shape == (4, 0)
    assert empty.membership(np.zeros((2, 2))) == 0.0
    assert empty.membership(SX) is None
    assert empty.coords(np.zeros((2, 2))).shape == (0,)
    with pytest.raises(NotMember):
        empty.coords(SX)


def test_queries_reject_operators_of_the_wrong_shape():
    e = space_from_cp_map(dephasing_cp_map())
    for bad in (np.ones((4, 1)), np.ones((1, 4)), np.ones(4), np.eye(3)):
        with pytest.raises(DimensionMismatch):
            e.membership(bad)
        with pytest.raises(DimensionMismatch):
            e.inner(np.eye(2), bad)
        with pytest.raises(DimensionMismatch):
            e.coords(bad)


def test_from_coords_needs_one_coordinate_per_basis_element():
    e = space_from_cp_map(dephasing_cp_map())
    assert e.dim == 2
    for bad in ([1, 1, 100], [1], [[1, 1]]):
        with pytest.raises(DimensionMismatch):
            e.from_coords(bad)
