import numpy as np
import pytest
from conftest import (
    loop_constrained_tuple,
    random_ccp_generator,
    random_hermitian,
    random_hp_map,
)

from cpsemi.sampling import random_constrained_tuples, random_cp_map
from cpsemi.superop import apply_superop, is_completely_positive, is_hermiticity_preserving
from cpsemi.symbols import is_conditionally_cp


def test_random_hermitian_is_hermitian(rng):
    h = random_hermitian(rng, 4)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


def test_random_hp_map_preserves_hermiticity(rng):
    for n in (2, 3):
        assert is_hermiticity_preserving(random_hp_map(rng, n))


def test_random_cp_map_is_cp(rng):
    for n in (2, 3, 4):
        mat = random_cp_map(rng, n)
        assert is_completely_positive(mat)
        assert is_hermiticity_preserving(mat)


def test_random_ccp_generator_is_ccp(rng):
    for n in (2, 3):
        assert is_conditionally_cp(random_ccp_generator(rng, n))


def test_random_ccp_generator_unital_flag(rng):
    mat = random_ccp_generator(rng, 3, unital=True)
    np.testing.assert_allclose(apply_superop(mat, np.eye(3)), 0, atol=1e-12)


def test_random_constrained_tuple_satisfies_constraint(rng):
    for n in (2, 3):
        (xs,), (as_,) = random_constrained_tuples(rng, n, 1)
        total = sum(x @ a for x, a in zip(xs, as_))
        np.testing.assert_allclose(total, 0, atol=1e-12)


def test_batched_draw_matches_repeated_single_draws():
    # one call of count tuples consumes the stream like count reference
    # draws and returns the same operators, bit for bit
    for n in (2, 3, 4, 6):
        for r in (2, 3):
            xs, as_ = random_constrained_tuples(np.random.default_rng(n), n, 12, r)
            assert xs.shape == as_.shape == (12, r, n, n)
            rng = np.random.default_rng(n)
            for i in range(12):
                ref_xs, ref_as = loop_constrained_tuple(rng, n, r)
                for got, ref in zip((*xs[i], *as_[i]), (*ref_xs, *ref_as)):
                    assert np.ascontiguousarray(got).tobytes() == ref.tobytes()
            # a count-1 draw is the first tuple of the same stream
            (one_xs,), (one_as,) = random_constrained_tuples(np.random.default_rng(n), n, 1, r)
            for got, ref in zip((*one_xs, *one_as), (*xs[0], *as_[0])):
                assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(ref).tobytes()


def test_a_constrained_tuple_of_length_one_is_refused():
    # x_1 a_1 = 0 with x_1 invertible forces a_1 = 0: such a tuple tests nothing
    with pytest.raises(ValueError, match="r >= 2"):
        random_constrained_tuples(np.random.default_rng(0), 3, 4, 1)


def test_sampling_is_reproducible():
    a = random_cp_map(np.random.default_rng(42), 3)
    b = random_cp_map(np.random.default_rng(42), 3)
    np.testing.assert_array_equal(a, b)
