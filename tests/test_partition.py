"""Bipartitions, one-sided coefficient matrices, and the family matrix."""

from fractions import Fraction

import numpy as np
import pytest

from gesforge.construct import GaussianRational, exponent_table, make_params, mixed_radix_weights
from gesforge.partition import (
    Bipartition,
    build_nupb,
    coefficient_matrix,
    enumerate_bipartitions,
    exponent_blocks,
    factor_matrices,
)

from .oracles import kron_family, local_amplitudes


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


# -- coefficient matrices -----------------------------------------------------


def test_full_matrix_is_fourier_block():
    # with the standard table the full matrix entry (i, j) is w**(i*j mod p)
    p = make_params(n=3, d=2, num_vectors=5)
    flat = coefficient_matrix(p)
    i = np.arange(5)[:, None]
    j = np.arange(8)[None, :]
    np.testing.assert_array_equal(flat.exponents, i * j % 11)


def scales_for(dims, kind):
    """Nonzero per-party scale rows: exact rationals, floats, or none."""
    if kind == "exact":
        return tuple(
            tuple(GaussianRational(Fraction(s + 2, m + 3), s - m) for s in range(d))
            for m, d in enumerate(dims)
        )
    if kind == "float":
        return tuple(
            tuple(complex(0.5 + s, m - 1.5 * s) for s in range(d)) for m, d in enumerate(dims)
        )
    return None


def shuffled_table(params, seed):
    """A user table: random exponents in [0, p), not the standard recipe."""
    rng = np.random.default_rng(seed)
    return [
        [rng.integers(0, params.root_order, size=d).tolist() for d in params.dims]
        for _ in range(params.num_vectors)
    ]


@pytest.mark.parametrize("dims,k", [((2, 3), 4), ((2, 3, 2), 9), ((3, 2), 5), ((2, 2, 2, 2), 9)])
@pytest.mark.parametrize("scales", [None, "exact", "float"])
@pytest.mark.parametrize("user_table", [False, True])
def test_build_nupb_matches_per_vector_kron(dims, k, scales, user_table):
    p = make_params(dims=dims, num_vectors=k, scales=scales_for(dims, scales))
    table = shuffled_table(p, seed=k) if user_table else None
    rows = build_nupb(p, table)
    assert rows.shape == (k, p.total_dim)
    reference = kron_family(p, exponent_table(p) if table is None else table)
    np.testing.assert_allclose(rows, reference, rtol=0, atol=1e-14 * np.abs(reference).max())


def test_build_nupb_rejects_invalid_table():
    p = make_params(dims=(2, 3), num_vectors=4)
    table = exponent_table(p)
    table[1][0][1] = p.root_order
    with pytest.raises(ValueError, match="outside"):
        build_nupb(p, table)


def test_factor_matrix_columns_are_local_products():
    p = make_params(n=3, d=2, num_vectors=5)
    cut = Bipartition(3, (0, 2))
    left, right = factor_matrices(p, cut)
    assert left.parties == (0, 2)
    assert right.parties == (1,)
    assert left.dimension * right.dimension == p.total_dim
    rows = left.to_complex()
    # columns run over the members' digits in product order: (s0, s2)
    for i, vector in enumerate(exponent_table(p)):
        first, last = (local_amplitudes(p.root_order, vector[m]) for m in (0, 2))
        for j, (s0, s2) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            assert rows[i, j] == pytest.approx(first[s0] * last[s2], abs=1e-12)


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


@pytest.mark.parametrize(
    "dims, k, order", (((2, 3), 5, None), ((3, 3, 3), 15, None), ((2, 2, 2), 6, 13))
)
def test_exponent_table_lists_the_recipe_blocks(dims, k, order):
    # one recipe: the nested table holds the blocks' numbers as ints, the
    # blocks read back from it are the blocks from the params, and both are
    # i * s * W_m mod p (order 13 is above the minimal prime 11 for 2x2x2)
    params = make_params(dims=dims, num_vectors=k, root_order=order)
    table, blocks = exponent_table(params), exponent_blocks(params, None)
    assert table == [[block[i].tolist() for block in blocks] for i in range(k)]
    assert {type(e) for row in table for local in row for e in local} == {int}
    for read, built in zip(exponent_blocks(params, table), blocks, strict=True):
        np.testing.assert_array_equal(read, built)
    weights, p = mixed_radix_weights(dims), params.root_order
    assert table == [
        [[i * s * w % p for s in range(d)] for d, w in zip(dims, weights)] for i in range(k)
    ]
