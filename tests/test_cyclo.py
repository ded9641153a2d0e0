"""Exact arithmetic layer: Gaussian rationals, cyclotomic numbers, matrices."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gesforge.cyclo import (
    CycMatrix,
    CycNum,
    GaussianRational,
    cyclotomic_polynomial,
    det,
    is_prime,
    power_reduction_matrix,
    rank,
    root_power,
)

from .oracles import det_permutation_sum, power_counts_are_zero

SMALL_PRIMES = (2, 3, 5, 7)


def fractions(max_num=6, max_den=4):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def gaussian_rationals():
    return st.builds(GaussianRational, fractions(), fractions())


def cyc_nums(order):
    return st.builds(
        lambda cs: CycNum(order, cs),
        st.lists(gaussian_rationals(), min_size=order - 1, max_size=order - 1),
    )


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


def test_gaussian_rational_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    b = GaussianRational(Fraction(2), Fraction(1, 5))
    assert (a * b).to_complex() == pytest.approx(a.to_complex() * b.to_complex())
    assert (a - b) + b == a
    assert (a / b) * b == a
    assert a * a.conjugate() == GaussianRational(Fraction(1, 4) + Fraction(1, 9))


@given(gaussian_rationals(), gaussian_rationals())
def test_gaussian_rational_mul_matches_complex(x, y):
    lhs = (x * y).to_complex()
    rhs = x.to_complex() * y.to_complex()
    assert lhs == pytest.approx(rhs, abs=1e-9)


# -- root powers -------------------------------------------------------------


def test_root_power_unit_coefficient():
    w3 = root_power(3, 5)
    assert w3.coeffs[3] == GaussianRational(1)
    assert sum(1 for c in w3.coeffs if not c.is_zero) == 1


def test_root_power_top_exponent_folds():
    # w**(p-1) = -(1 + w + ... + w**(p-2)) in the canonical basis
    w4 = root_power(4, 5)
    assert all(c == GaussianRational(-1) for c in w4.coeffs)


def test_root_powers_multiply_to_one():
    assert root_power(2, 5) * root_power(3, 5) == CycNum.one(5)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_all_roots_sum_to_zero(p):
    total = CycNum.zero(p)
    for e in range(p):
        total = total + root_power(e, p)
    assert total.is_zero


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_root_power_matches_complex_exponential(p):
    for e in range(p):
        expected = np.exp(2j * np.pi * e / p)
        assert root_power(e, p).to_complex() == pytest.approx(expected, abs=1e-12)


# -- CycNum ring structure ---------------------------------------------------


@given(st.sampled_from(SMALL_PRIMES).flatmap(lambda p: st.tuples(cyc_nums(p), cyc_nums(p), cyc_nums(p))))
def test_ring_axioms(triple):
    a, b, c = triple
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert (a + (-a)).is_zero


@given(st.sampled_from(SMALL_PRIMES).flatmap(lambda p: cyc_nums(p)))
def test_inverse_round_trip(a):
    assume(not a.is_zero)
    assert a * a.inverse() == CycNum.one(a.order)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(5).inverse()


@given(st.sampled_from(SMALL_PRIMES).flatmap(lambda p: st.tuples(cyc_nums(p), cyc_nums(p))))
def test_mul_matches_complex(pair):
    a, b = pair
    lhs = (a * b).to_complex()
    rhs = a.to_complex() * b.to_complex()
    assert abs(lhs - rhs) < 1e-8


def test_composite_order_rejected():
    with pytest.raises(ValueError):
        CycNum.zero(6)
    with pytest.raises(ValueError):
        root_power(1, 4)


# -- determinants and rank ---------------------------------------------------


def test_det_two_by_two_vandermonde():
    one = CycNum.one(5)
    w = root_power(1, 5)
    m = CycMatrix.from_rows([[one, one], [one, w]])
    assert det(m) == w - one


def test_det_repeated_row_zero():
    one = CycNum.one(5)
    w = root_power(1, 5)
    m = CycMatrix.from_rows([[one, w], [one, w]])
    assert det(m).is_zero
    assert rank(m) == 1


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
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
    n, p, exps = case
    rows = [[root_power(e, p) * GaussianRational(Fraction(1 + (i + j) % 3)) for j, e in enumerate(r)]
            for i, r in enumerate(exps)]
    m = CycMatrix.from_rows(rows)
    assert det(m) == det_permutation_sum(rows)


def test_rank_full_fourier_block():
    p = 5
    rows = [[root_power(i * j, p) for j in range(3)] for i in range(3)]
    assert rank(CycMatrix.from_rows(rows)) == 3


def test_submatrix_and_entry():
    p = 5
    m = CycMatrix.from_rows([[root_power(i * j, p) for j in range(3)] for i in range(4)])
    sub = m.submatrix([1, 3], [0, 2])
    assert sub.rows == 2 and sub.cols == 2
    assert sub.entry(1, 1) == root_power(6, p)
    arr = m.to_complex_array()
    assert arr.shape == (4, 3)
    assert arr[2, 2] == pytest.approx(np.exp(2j * np.pi * 4 / p))


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
