"""Integer root-of-unity arithmetic (`gesforge.cyclo`), exact scale parsing,
and the count-vector determinant oracles built on the reduction matrix."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesforge.construct import GaussianRational
from gesforge.cyclo import cyclotomic_polynomial, is_prime, power_reduction_matrix

from .oracles import det_leibniz_counts, det_permutation_sum, power_counts_are_zero, rank_by_minors

SMALL_PRIMES = (2, 3, 5, 7)


# -- primality ---------------------------------------------------------------


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime(n) == (n in primes)


# -- GaussianRational --------------------------------------------------------


def test_gaussian_rational_rejects_floats():
    with pytest.raises(TypeError):
        GaussianRational(0.5, 0)
    with pytest.raises(TypeError):
        GaussianRational(0, 1.25)
    assert GaussianRational(Fraction(1, 2), "-1/3") == GaussianRational("1/2", Fraction(-1, 3))


# -- root powers -------------------------------------------------------------


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_all_roots_sum_to_zero(p):
    # 1 + w + ... + w**(p-1) = 0 is the relation the reduction encodes
    assert not power_reduction_matrix(p).sum(axis=0).any()
    assert power_counts_are_zero(np.ones(p, dtype=np.int64), p)


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_root_power_matches_complex_exponential(p):
    red = power_reduction_matrix(p)
    basis = np.exp(2j * np.pi * np.arange(p - 1) / p)
    for e in range(p):
        assert red[e] @ basis == pytest.approx(np.exp(2j * np.pi * e / p), abs=1e-12)


# -- determinants and rank by the Leibniz oracle ------------------------------


def test_det_two_by_two_vandermonde():
    # det [[1, 1], [1, w]] = w - 1
    counts = det_leibniz_counts(np.array([[0, 0], [0, 1]]), 5)
    np.testing.assert_array_equal(counts, [-1, 1, 0, 0, 0])


def test_det_repeated_row_zero():
    exps = np.array([[0, 1], [0, 1]])
    assert power_counts_are_zero(det_leibniz_counts(exps, 5), 5)
    assert rank_by_minors(exps, 5) == 1


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.sampled_from((3, 5)),
            st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
        )
    )
)
@settings(max_examples=30)
def test_det_matches_permutation_sum(case):
    p, exps = case
    counts = det_leibniz_counts(np.array(exps), p)
    w = np.exp(2j * np.pi / p)
    entries = [[complex(w ** (e % p)) for e in row] for row in exps]
    assert counts @ w ** np.arange(p) == pytest.approx(det_permutation_sum(entries), abs=1e-9)


def test_rank_full_fourier_block():
    p = 5
    block = np.outer(np.arange(4), np.arange(3)) % p
    assert rank_by_minors(block, p) == 3


# -- composite-order helpers -------------------------------------------------


def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    for p in (3, 5, 7):
        assert cyclotomic_polynomial(p) == (1,) * p


def test_power_reduction_matrix_prime():
    red = power_reduction_matrix(5)
    assert red.shape == (5, 4)
    np.testing.assert_array_equal(red[:4], np.eye(4, dtype=np.int64))
    np.testing.assert_array_equal(red[4], -np.ones(4, dtype=np.int64))


def test_power_reduction_matrix_order_four():
    red = power_reduction_matrix(4)
    # x**2 = -1 and x**3 = -x modulo x**2 + 1
    np.testing.assert_array_equal(red, [[1, 0], [0, 1], [-1, 0], [0, -1]])


def test_power_counts_zero_detection():
    # 1 + w**2 = 0 for order 4
    counts = np.array([[1, 0, 1, 0], [1, 1, 0, 0], [2, 0, 0, 0]])
    flags = power_counts_are_zero(counts, 4)
    np.testing.assert_array_equal(flags, [True, False, False])


@pytest.mark.parametrize("n", (4, 6, 8, 9, 12))
def test_reduction_matrix_consistent_with_numeric_roots(n):
    red = power_reduction_matrix(n)
    deg = red.shape[1]
    w = np.exp(2j * np.pi / n)
    basis = w ** np.arange(deg)
    for t in range(n):
        assert red[t] @ basis == pytest.approx(w**t, abs=1e-10)
