"""Bipartitions, flat indexing, and one-sided coefficient matrices."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gesforge.construct import build_nupb, exponent_table, make_params
from gesforge.partition import (
    Bipartition,
    coefficient_matrix,
    enumerate_bipartitions,
    factor_matrices,
    flat_index,
    unflatten,
)


def test_bipartition_requires_party_zero():
    with pytest.raises(ValueError):
        Bipartition(3, (1,))
    with pytest.raises(ValueError):
        Bipartition(3, (0, 1, 2))
    with pytest.raises(ValueError):
        Bipartition(3, ())


def test_bipartition_complement_and_label():
    b = Bipartition(4, (0, 2))
    assert b.complement == (1, 3)
    assert b.label() == "{0,2}|{1,3}"


@pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 7), (5, 15)])
def test_enumerate_bipartition_count(n, count):
    cuts = enumerate_bipartitions(n)
    assert len(cuts) == count
    assert cuts[0].members == (0,)
    assert len(set(cuts)) == count


def test_flat_index_party_zero_major():
    assert flat_index((1, 0, 1), (2, 2, 2)) == 5
    assert flat_index((0, 0), (2, 3)) == 0
    assert flat_index((1, 2), (2, 3)) == 5


@given(st.sampled_from([(2, 2), (2, 3), (3, 2, 2), (2, 2, 2)]).flatmap(
    lambda dims: st.tuples(
        st.just(dims),
        st.tuples(*[st.integers(0, d - 1) for d in dims]),
    )
))
def test_flat_round_trip(case):
    dims, digits = case
    idx = flat_index(digits, dims)
    assert 0 <= idx < int(np.prod(dims))
    assert unflatten(idx, dims) == tuple(digits)


# -- coefficient matrices -----------------------------------------------------


def test_full_matrix_is_fourier_block():
    # with the standard table the full matrix entry (i, j) is w**(i*j mod p)
    p = make_params(n=3, d=2, num_vectors=5)
    flat = coefficient_matrix(p)
    i = np.arange(5)[:, None]
    j = np.arange(8)[None, :]
    np.testing.assert_array_equal(flat.exponents, i * j % 11)
    assert flat.column_flat_indices == tuple(range(8))


def test_full_matrix_rows_match_vector_amplitudes():
    p = make_params(dims=(2, 3), num_vectors=4)
    flat = coefficient_matrix(p)
    vectors = build_nupb(p)
    rows = flat.to_complex()
    for i, v in enumerate(vectors):
        np.testing.assert_allclose(rows[i], v.amplitudes(), atol=1e-12)


def test_factor_matrix_columns_are_local_products():
    p = make_params(n=3, d=2, num_vectors=5)
    cut = Bipartition(3, (0, 2))
    left, right = factor_matrices(p, cut)
    assert left.parties == (0, 2)
    assert right.parties == (1,)
    assert left.dimension * right.dimension == p.total_dim
    vectors = build_nupb(p)
    rows = left.to_complex()
    # columns run over the members' digits in product order: (s0, s2)
    for i, v in enumerate(vectors):
        for j, (s0, s2) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            expected = v.local_amplitudes(0)[s0] * v.local_amplitudes(2)[s2]
            assert rows[i, j] == pytest.approx(expected, abs=1e-12)


def test_factor_flat_indices_embed_with_absent_parties_at_zero():
    p = make_params(n=3, d=2, num_vectors=5)
    left, right = factor_matrices(p, Bipartition(3, (0, 2)))
    # digits (s0, s2) -> global flat index of (s0, 0, s2)
    assert left.column_flat_indices == (0, 1, 4, 5)
    assert right.column_flat_indices == (0, 2)


def test_factor_matrices_cover_exponent_sums():
    p = make_params(dims=(2, 2, 3), num_vectors=8)
    table = exponent_table(p)
    left, right = factor_matrices(p, Bipartition(3, (0, 2)))
    assert left.dims == (2, 3)
    assert right.dims == (2,)
    q = p.root_order
    for i in range(8):
        np.testing.assert_array_equal(
            left.exponents[i],
            [(table[i][0][a] + table[i][2][b]) % q for a in range(2) for b in range(3)],
        )
        np.testing.assert_array_equal(right.exponents[i], table[i][1])


def test_factor_matrices_validate_party_count():
    p = make_params(dims=(2, 2), num_vectors=3)
    with pytest.raises(ValueError):
        factor_matrices(p, Bipartition(3, (0,)))


def test_exponents_read_only():
    p = make_params(n=3, d=2, num_vectors=5)
    flat = coefficient_matrix(p)
    with pytest.raises(ValueError):
        flat.exponents[0, 0] = 3
