"""The exact minor engine: batched ranks mod q and exact ranks over Q(w) for
prime and composite orders.  A square minor is zero exactly when
`exact_rank` is below its size; the verdicts are checked against the
Leibniz formula over count vectors, the integer subset expansion of
`oracles` and ranks by minors, and the batched ranks against determinants
mod q and `_modular_echelon`."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesforge import GaussianRational
from gesforge.exactverify import _modular_echelon
from gesforge.minors import _rank_mod, exact_rank, modular_context

from .oracles import (
    det_leibniz_counts,
    det_permutation_sum,
    det_power_counts,
    power_counts_are_zero,
    rank_by_minors,
)


def exact_nonzero(expmat, order):
    """Reference verdict: the Leibniz determinant as a count vector."""
    return not power_counts_are_zero(det_leibniz_counts(expmat, order), order)


def nonzero_minors(exps, order):
    """The engine's verdicts on a stack of square minors: full exact rank."""
    return np.array([exact_rank(m, order) == len(m) for m in exps])


def images(exps, ctx):
    """The residues mod q of w**exps under w -> root."""
    return ctx.power_table()[np.asarray(exps) % ctx.order]


# -- modular context ---------------------------------------------------------


@pytest.mark.parametrize("order", (2, 3, 5, 11, 29))
def test_modular_context_structure(order):
    ctx = modular_context(order, 0)
    assert ctx.modulus > 1_000_000
    assert (ctx.modulus - 1) % order == 0
    assert pow(ctx.root, order, ctx.modulus) == 1
    assert pow(ctx.root, 1, ctx.modulus) != 1 or order == 1
    # deterministic: same call, same context
    assert modular_context(order, 0) is ctx
    assert modular_context(order, 1).modulus != ctx.modulus


def test_power_table_cycles():
    ctx = modular_context(5, 0)
    table = ctx.power_table()
    assert table[0] == 1
    assert len(table) == 5
    assert table[1] * table[4] % ctx.modulus == 1


def test_modular_context_composite_root_has_exact_order():
    ctx = modular_context(12, 0)
    q = ctx.modulus
    assert (q - 1) % 12 == 0
    assert pow(ctx.root, 12, q) == 1
    assert pow(ctx.root, 6, q) != 1 and pow(ctx.root, 4, q) != 1


# -- modular certificates: a full-rank image mod q ---------------------------


def test_certify_fourier_minors_nonzero():
    p = 7
    rows = np.array(list(itertools.combinations(range(p), 3)), dtype=np.int64)
    exps = rows[:, :, None] * rows[:, None, :] % p  # symmetric 3x3 minors
    ctx = modular_context(p, 0)
    assert (_rank_mod(images(exps, ctx), ctx.modulus) == 3).all()


def test_certificate_survives_a_zero_pivot():
    # row 1 reduced by row 0 is zero in column 0, so it pivots on a later
    # column; the determinant -(w - 1)**2 is nonzero
    exps = np.array([[[0, 0, 0], [0, 0, 1], [0, 1, 0]]], dtype=np.int64)
    ctx = modular_context(5, 0)
    assert _rank_mod(images(exps, ctx), ctx.modulus).tolist() == [3]


def test_certificate_withheld_for_singular():
    # repeated rows: determinant is exactly zero, no modulus can certify it
    exps = np.array([[[0, 1], [0, 1]]], dtype=np.int64)
    for index in (0, 1):
        ctx = modular_context(5, index)
        assert _rank_mod(images(exps, ctx), ctx.modulus).tolist() == [1]
    assert exact_rank(exps[0], 5) == 1


@given(
    st.integers(1, 5).flatmap(
        lambda k: st.tuples(
            st.integers(1, 6),
            st.lists(st.lists(st.integers(0, 12), min_size=6, max_size=6), min_size=k, max_size=k),
            st.sampled_from(("none", "row", "column", "zero row")),
            st.integers(0, k - 1),
            st.integers(0, k - 1),
        )
    )
)
@settings(max_examples=60)
def test_batched_rank_matches_echelon_and_determinant(case):
    # square, wide (k < D) and tall (k > D) images in a field of about 100
    # elements, where rank drops mod q are common, with planted dependent
    # rows and columns and all-zero rows
    dim, rows, plant, src, dst = case
    q = 101
    values = np.array(rows, dtype=np.int64)[:, :dim] % q
    if plant == "row":
        values[dst] = values[src] * 7 % q
    if plant == "column":
        values[:, -1] = values[:, 0] * 3 % q
    if plant == "zero row":
        values[dst] = 0
    stack = np.stack([values, values[::-1], (values * 5 + 1) % q])
    ranks = _rank_mod(stack, q)
    for matrix, rank in zip(stack, ranks):
        assert rank == len(_modular_echelon(matrix, q)[0])
        if matrix.shape[0] == matrix.shape[1]:
            assert (rank == dim) == (det_mod(matrix, q) != 0)


@pytest.mark.parametrize(
    "shape, planted, expected",
    (
        ((2, 5), "copied row", 1),  # a circuit of two rows
        ((3, 6), "none", 3),  # k < D
        ((6, 3), "none", 3),  # k > D: rank D
        ((5, 3), "rank one", 1),
        ((4, 4), "copied column", 3),
    ),
)
def test_exact_rank_of_rectangular_tables(shape, planted, expected):
    # distinct order-7 Fourier rows are independent by Chebotarev's
    # theorem; each planted dependence is a row or column that repeats
    # another times a power of w, and the oracle confirms the rank
    k, dim = shape
    order = 7
    exps = np.outer(np.arange(1, k + 1), np.arange(dim)) % order
    if planted == "copied row":
        exps[1] = (exps[0] + 3) % order
    if planted == "rank one":
        exps = np.repeat(2 * np.arange(k)[:, None], dim, axis=1) % order
    if planted == "copied column":
        exps[:, -1] = (exps[:, 0] + 1) % order
    assert exact_rank(exps, order) == rank_by_minors(exps, order) == expected


# -- subset expansion (the reference in oracles) ------------------------------


def test_det_power_counts_two_by_two():
    exps = np.array([[[0, 0], [0, 1]]], dtype=np.int64)
    counts = det_power_counts(exps, 5)
    expected = np.zeros(5, dtype=np.int64)
    expected[1] = 1  # w**(0+1) with + sign
    expected[0] = -1  # w**(0+0) with - sign
    np.testing.assert_array_equal(counts[0], expected)


def test_det_power_counts_size_limit():
    exps = np.zeros((1, 15, 15), dtype=np.int64)
    with pytest.raises(ValueError):
        det_power_counts(exps, 5)


@given(
    st.integers(1, 4).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.sampled_from((3, 5, 7)),
            st.lists(
                st.lists(st.lists(st.integers(0, 10), min_size=k, max_size=k),
                         min_size=k, max_size=k),
                min_size=1,
                max_size=4,
            ),
        )
    )
)
@settings(max_examples=40)
def test_counts_agree_with_field_elimination(case):
    # the Laplace subset expansion and the Leibniz formula give the same
    # unreduced count vectors, term for term
    k, order, batches = case
    exps = np.array(batches, dtype=np.int64) % order
    np.testing.assert_array_equal(det_power_counts(exps, order), det_leibniz_counts(exps, order))


# -- nonzero verdicts: a minor of full exact rank ------------------------------


@given(
    st.integers(1, 4).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.sampled_from((3, 5, 7, 11)),
            st.lists(
                st.lists(st.lists(st.integers(0, 12), min_size=k, max_size=k),
                         min_size=k, max_size=k),
                min_size=1,
                max_size=4,
            ),
        )
    )
)
@settings(max_examples=40)
def test_decide_nonzero_matches_reference(case):
    k, order, batches = case
    exps = np.array(batches, dtype=np.int64) % order
    verdicts = nonzero_minors(exps, order)
    for t in range(exps.shape[0]):
        assert verdicts[t] == exact_nonzero(exps[t], order)


def scaled_nonzero(expmat, order, scales):
    """Reference verdict for det(s_j * w**e[i, j]) with Gaussian-rational s_j.

    Leibniz formula over the scaled entries: each permutation adds its signed
    product of scales at index sum_i e[i, perm(i)] mod order.  The scales are
    cleared of denominators first (a nonzero common factor), and the real and
    imaginary count vectors are tested apart, since i is not in Q(w) for odd
    prime orders.
    """
    k = expmat.shape[0]
    denom = math.lcm(*(part.denominator for s in scales for part in (s.re, s.im)))
    gauss = [(int(s.re * denom), int(s.im * denom)) for s in scales]
    re = np.zeros(order, dtype=np.int64)
    im = np.zeros(order, dtype=np.int64)
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
        x, y = (-1, 0) if inversions % 2 else (1, 0)
        for i in range(k):
            u, v = gauss[perm[i]]
            x, y = x * u - y * v, x * v + y * u
        index = int(sum(expmat[i, perm[i]] for i in range(k))) % order
        re[index] += x
        im[index] += y
    return not (power_counts_are_zero(re, order) and power_counts_are_zero(im, order))


@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(1, 3), st.integers(-4, 4), st.integers(1, 3)),
        min_size=3,
        max_size=3,
    ).filter(lambda ss: all(a != 0 or c != 0 for a, _, c, _ in ss))
)
@settings(max_examples=25)
def test_scaling_preserves_verdicts(ss):
    # the zero proof reads the exponents alone: a nonzero column scale
    # multiplies a minor by a nonzero constant (criterion 8 checks scaled
    # families end to end)
    scales = [GaussianRational(Fraction(a, b), Fraction(c, d)) for a, b, c, d in ss]
    order = 5
    rng = np.random.default_rng(3)
    exps = rng.integers(0, order, size=(6, 3, 3))
    exps[0, 2] = (exps[0, 0] + 1) % order  # a zero minor: row 2 is w * row 0
    verdicts = nonzero_minors(exps, order)
    assert not verdicts[0]
    for t in range(exps.shape[0]):
        assert verdicts[t] == scaled_nonzero(exps[t], order, scales)


def test_decide_nonzero_detects_exact_zeros():
    # order 2 (w = -1): [[1,1],[1,-1]] is regular, [[1,1],[1,1]] is not
    exps = np.array([[[0, 0], [0, 1]], [[0, 0], [0, 0]]], dtype=np.int64)
    verdicts = nonzero_minors(exps, 2)
    np.testing.assert_array_equal(verdicts, [True, False])


def test_decide_nonzero_composite_order():
    # order 4: the {0,2} x {0,2} Fourier minor is [[1,1],[1,1]] since w**4=1
    rows = np.array([0, 2])
    cols = np.array([0, 2])
    exps = (rows[:, None] * cols[None, :] % 4)[None, :, :]
    assert exact_rank(exps[0], 4) == 1


@given(
    st.sampled_from((5, 7, 11, 13)),
    st.lists(st.integers(0, 12), min_size=3, max_size=3),
    st.lists(
        st.lists(st.lists(st.integers(0, 12), min_size=2, max_size=2), min_size=2, max_size=2),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=40)
def test_planted_two_by_two_zeros_match_leibniz(order, abc, others):
    # [[w**a, w**b], [w**c, w**d]] vanishes exactly when a + d = b + c (mod p)
    a, b, c = abc
    planted = [[a, b], [c, (b + c - a) % order]]
    exps = np.array([planted] + others, dtype=np.int64) % order
    verdicts = nonzero_minors(exps, order)
    assert not verdicts[0]
    np.testing.assert_array_equal(verdicts, [exact_nonzero(m, order) for m in exps])
    for t, m in enumerate(exps):
        assert verdicts[t] == ((m[0, 0] + m[1, 1] - m[0, 1] - m[1, 0]) % order != 0)


# -- zero proofs: a rank below the size under every embedding ----------------


def test_zero_proof_beyond_subset_expansion():
    # 16 x 16 minors of the order-17 and order-18 Fourier matrices: one
    # intact, one with a repeated row; both are past the size limit of the
    # subset expansion, and 16! needs several primes of about 10**6
    for order in (17, 18):
        fourier = np.outer(np.arange(16), np.arange(1, 17)) % order
        singular = fourier.copy()
        singular[9] = singular[4]
        exps = np.stack([fourier, singular])
        assert math.factorial(16) > modular_context(order, 0).modulus ** 2
        assert abs(np.linalg.det(np.exp(2j * np.pi * fourier / order))) > 1.0
        assert [exact_rank(m, order) for m in exps] == [16, 15]


@given(
    st.integers(1, 6).flatmap(
        lambda k: st.tuples(
            st.sampled_from((2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15)),
            st.lists(
                st.lists(st.integers(0, 14), min_size=k, max_size=k), min_size=k, max_size=k
            ),
            st.sampled_from(("none", "row", "column", "fourier")),
            st.integers(0, k - 1),
            st.integers(0, k - 1),
            st.integers(0, 14),
        )
    )
)
@settings(max_examples=150)
def test_zero_proof_matches_reduction_on_planted_zeros(case):
    order, rows, plant, src, dst, shift = case
    exps = np.array(rows, dtype=np.int64) % order
    planted = plant in ("row", "column") and src != dst
    # a row (column) equal to another one times w**shift makes the minor zero
    if planted and plant == "row":
        exps[dst] = (exps[src] + shift) % order
    if planted and plant == "column":
        exps[:, dst] = (exps[:, src] + shift) % order
    if plant == "fourier":
        # a Fourier minor: composite orders have many zero ones, such as
        # rows {0, 2} and columns {0, 2} at order 4
        exps = np.outer(exps[:, 0], exps[0]) % order
    expected = power_counts_are_zero(det_power_counts(exps[None], order), order)[0]
    assert (exact_rank(exps, order) < len(exps)) == expected
    assert expected or not planted


# -- rare paths, made common by fields of size about 100 ---------------------


def det_mod(values, q):
    """Leibniz determinant of an integer matrix, reduced mod q."""
    return det_permutation_sum([[int(v) for v in row] for row in values]) % q


def test_small_fields_make_spurious_zero_images(small_fields):
    order = 7
    ctx = modular_context(order, 0)
    assert ctx.modulus < 200
    rng = np.random.default_rng(5)
    exps = rng.integers(0, order, size=(600, 4, 4))
    verdicts = nonzero_minors(exps, order)
    reduction = ~power_counts_are_zero(det_power_counts(exps, order), order)
    np.testing.assert_array_equal(verdicts, reduction)
    image_zero = np.array([det_mod(e, ctx.modulus) == 0 for e in images(exps, ctx)])
    # a rank drop of the image mod q is exactly a zero image
    np.testing.assert_array_equal(_rank_mod(images(exps, ctx), ctx.modulus) < 4, image_zero)
    spurious = list(np.nonzero(reduction & image_zero)[0])
    assert spurious, "no nonzero minor vanished mod q; the escalation path did not run"
    for t in spurious + list(range(0, 600, 60)):
        assert verdicts[t] == exact_nonzero(exps[t], order)


def test_small_fields_need_several_primes(small_fields):
    # 5! * max|R| = 120 exceeds the first modulus (101 for order 5, 103 for
    # order 6), so a zero proof of a 5 x 5 minor has to vanish under every
    # embedding modulo two primes
    for order in (5, 6):
        assert math.factorial(5) > modular_context(order, 0).modulus
        rng = np.random.default_rng(8)
        exps = rng.integers(0, order, size=(200, 5, 5))
        exps[::2, 4] = (exps[::2, 0] + 2) % order
        zero = ~nonzero_minors(exps, order)
        expected = power_counts_are_zero(det_power_counts(exps, order), order)
        np.testing.assert_array_equal(zero, expected)
        assert zero[::2].all() and not zero[1::2].all()
