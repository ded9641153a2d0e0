"""Exact certification: rank, spanning, bipartition reports, minor scans."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesforge import cyclo, minors
from gesforge.construct import ConstructionParams, exponent_table, make_params
from gesforge.cyclo import GaussianRational
from gesforge.exactverify import (
    _check_zero_images,
    _modular_echelon,
    chebotarev_scan,
    rank_full,
    spanning_property,
    verify_all_bipartitions,
)
from gesforge.partition import Bipartition, FlatMatrix, coefficient_matrix, factor_matrices


def duplicated_table(params):
    table = [[list(loc) for loc in row] for row in exponent_table(params)]
    table[2] = [list(loc) for loc in table[1]]
    return table


# -- rank ---------------------------------------------------------------------


def test_rank_full_standard_family():
    p = make_params(n=3, d=2, num_vectors=5)
    ok, rank, method = rank_full(coefficient_matrix(p))
    assert ok and rank == 5
    assert method == "modular"


def test_rank_deficiency_settled_exactly():
    p = make_params(n=3, d=2, num_vectors=5)
    flat = coefficient_matrix(p, duplicated_table(p))
    ok, rank, method = rank_full(flat)
    assert not ok
    assert rank == 4
    assert method == "bordered"


def test_rank_full_with_exact_scales():
    scales = (
        (GaussianRational(1), GaussianRational(Fraction(2, 3))),
        (GaussianRational(Fraction(1, 2)), GaussianRational(1)),
        (GaussianRational(1), GaussianRational(0, Fraction(5))),
    )
    p = make_params(n=3, d=2, num_vectors=5, scales=scales)
    ok, rank, _ = rank_full(coefficient_matrix(p))
    assert ok and rank == 5


def test_rank_full_matches_field_elimination_past_size_fourteen():
    # rank 14 needs bordered minors of size 15, past the subset expansion limit
    p = make_params(dims=(2, 2, 2, 2), num_vectors=15)
    table = [[list(loc) for loc in row] for row in exponent_table(p)]
    table[14] = [list(loc) for loc in table[0]]
    flat = coefficient_matrix(p, table)
    assert rank_full(flat) == (False, 14, "bordered")
    assert cyclo.rank(flat.to_cyc_matrix()) == 14


def test_rank_full_matches_field_elimination_on_scaled_tampered_table():
    scales = (
        (GaussianRational(Fraction(-3, 2)), GaussianRational(Fraction(2, 3), 1)),
        (GaussianRational(0, Fraction(1, 7)), GaussianRational(5)),
        (GaussianRational(1, -1), GaussianRational(Fraction(4, 9))),
    )
    p = make_params(n=3, d=2, num_vectors=5, scales=scales)
    flat = coefficient_matrix(p, duplicated_table(p))
    ok, rank, method = rank_full(flat)
    assert (ok, method) == (False, "bordered")
    assert rank == cyclo.rank(flat.to_cyc_matrix()) == 4


def test_rank_full_retries_after_spurious_rank_drops(small_fields):
    # square tables whose determinant is nonzero but vanishes mod the first
    # field, found by the integer reduction, plus a sample of the rest
    order = 7
    ctx = minors.modular_context(order, 0)
    assert ctx.modulus < 200
    rng = np.random.default_rng(2)
    exps = rng.integers(0, order, size=(2000, 4, 4))
    exps[1::3, 3] = (exps[1::3, 0] + 3) % order
    nonzero = ~cyclo.power_counts_are_zero(minors.det_power_counts(exps, order), order)
    drops = [
        t for t in np.nonzero(nonzero)[0]
        if len(_modular_echelon(ctx.power_table()[exps[t]], ctx.modulus)[0]) < 4
    ]
    assert drops, "no modular image lost rank; the retry loop did not run"
    for t in drops + list(range(0, 2000, 97)):
        flat = FlatMatrix(order, (0,), (4,), exps[t], tuple(range(4)))
        exact = cyclo.rank(flat.to_cyc_matrix())
        assert rank_full(flat)[:2] == (exact == 4, exact)


def test_modular_echelon_pivot_block_is_nonsingular():
    q = 101
    values = np.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 5]])
    rows, cols = _modular_echelon(values, q)
    assert len(rows) == len(cols) == 2
    block = values[np.ix_(rows, cols)] % q
    assert (block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]) % q


def test_flat_matrix_rejects_zero_scale():
    with pytest.raises(ValueError, match="nonzero"):
        scales = (GaussianRational(1), GaussianRational(0))
        FlatMatrix(5, (0,), (2,), np.zeros((1, 2)), (0, 1), scales)


# -- spanning -----------------------------------------------------------------


def test_spanning_holds_on_standard_factors():
    p = make_params(n=3, d=2, num_vectors=5)
    for cut in (Bipartition(3, (0,)), Bipartition(3, (0, 1))):
        left, right = factor_matrices(p, cut)
        for side in (left, right):
            check = spanning_property(side)
            assert check.ok
            assert check.failures == 0
            assert check.witness is None
            assert sum(check.methods.values()) == check.subsets_total


def test_spanning_witness_on_duplicate_rows():
    p = make_params(n=3, d=2, num_vectors=5)
    table = duplicated_table(p)
    left, _ = factor_matrices(p, Bipartition(3, (0,)), table)
    check = spanning_property(left)
    assert not check.ok
    assert check.witness == (1, 2)
    assert check.failures >= 1


def test_spanning_requires_enough_rows():
    p = make_params(n=3, d=2, num_vectors=5)
    left, right = factor_matrices(p, Bipartition(3, (0, 1)))
    starved = type(left)(
        root_order=left.root_order,
        parties=left.parties,
        dims=left.dims,
        exponents=left.exponents[:3],
        column_flat_indices=left.column_flat_indices,
    )
    with pytest.raises(ValueError, match="spanning hypothesis"):
        spanning_property(starved)


def test_spanning_engines_agree():
    p = make_params(dims=(2, 3), num_vectors=5)
    left, right = factor_matrices(p, Bipartition(2, (0,)))
    for side in (left, right):
        fast = spanning_property(side)
        reference = spanning_property(side.to_cyc_matrix())
        assert fast.ok == reference.ok
        assert fast.subsets_total == reference.subsets_total
        assert fast.failures == reference.failures


def test_spanning_engines_agree_on_failure():
    p = make_params(dims=(2, 3), num_vectors=5)
    table = [[list(loc) for loc in row] for row in exponent_table(p)]
    table[3] = [list(loc) for loc in table[0]]
    _, right = factor_matrices(p, Bipartition(2, (0,)), table)
    fast = spanning_property(right)
    reference = spanning_property(right.to_cyc_matrix())
    assert not fast.ok and not reference.ok
    assert fast.failures == reference.failures
    assert fast.witness == reference.witness


def test_spanning_rejects_other_inputs():
    with pytest.raises(TypeError):
        spanning_property(np.eye(3))


# -- whole-family verification --------------------------------------------------


def test_verify_standard_three_qubit_family():
    p = make_params(n=3, d=2, num_vectors=5)
    report = verify_all_bipartitions(p)
    assert report.passed is True
    assert report.full_rank and report.matrix_rank == 5
    assert len(report.bipartitions) == 3
    for cut in report.bipartitions:
        assert cut.ok
        assert cut.required_vectors == 5
    doc = report.to_doc()
    assert doc["passed"] is True
    assert doc["root_order"] == "11"


def test_verify_flags_tampered_family():
    p = make_params(n=3, d=2, num_vectors=5)
    report = verify_all_bipartitions(p, duplicated_table(p))
    assert report.passed is False
    assert not report.full_rank
    assert any(not cut.ok for cut in report.bipartitions)


def test_verify_heterogeneous_and_larger():
    for dims, k in (((2, 3), 4), ((2, 3), 5), ((2, 2, 3), 8), ((2, 2, 2, 2), 9)):
        p = make_params(dims=dims, num_vectors=k)
        report = verify_all_bipartitions(p)
        assert report.passed is True, (dims, k)
        assert len(report.bipartitions) == 2 ** (len(dims) - 1) - 1


def test_verify_rejects_invalid_params():
    bad = ConstructionParams(dims=(2, 2, 2), num_vectors=5, root_order=8)
    with pytest.raises(ValueError, match="not prime"):
        verify_all_bipartitions(bad)


def test_verify_rejects_malformed_table():
    p = make_params(n=3, d=2, num_vectors=5)
    with pytest.raises(ValueError):
        verify_all_bipartitions(p, exponent_table(p)[:-1])


def test_float_scales_skip_exact_stage():
    scales = ((1 + 0j, 0.3 + 0.4j), (1 + 0j, 1 + 0j), (1 + 0j, 1 + 0j))
    p = make_params(n=3, d=2, num_vectors=5, scales=scales)
    report = verify_all_bipartitions(p)
    assert report.skipped
    assert report.passed is None
    assert "floating point" in report.skip_reason
    assert report.bipartitions == []


@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(1, 4), st.integers(-4, 4), st.integers(1, 4)),
        min_size=6,
        max_size=6,
    ).filter(lambda ss: all(a != 0 or c != 0 for a, _, c, _ in ss))
)
@settings(max_examples=10)
def test_exact_scale_invariance(ss):
    entries = [GaussianRational(Fraction(a, b), Fraction(c, d)) for a, b, c, d in ss]
    scales = (tuple(entries[0:2]), tuple(entries[2:4]), tuple(entries[4:6]))
    plain = make_params(n=3, d=2, num_vectors=5)
    scaled = make_params(n=3, d=2, num_vectors=5, scales=scales)
    assert verify_all_bipartitions(scaled).passed == verify_all_bipartitions(plain).passed


# -- minor scans ----------------------------------------------------------------


@pytest.mark.parametrize("order", (2, 3, 5, 7))
def test_scan_primes_clean(order):
    scan = chebotarev_scan(order, min(order, 4))
    assert scan.prime
    assert scan.clean
    assert scan.witnesses == []
    assert scan.zero_count == 0


def test_scan_order_four_witness():
    scan = chebotarev_scan(4, 2)
    assert not scan.prime
    assert not scan.clean
    assert ((0, 2), (0, 2)) in scan.witnesses
    # size-1 minors are single roots of unity, never zero
    assert all(len(rows) == 2 for rows, _ in scan.witnesses)


@pytest.mark.parametrize("order", (6, 8, 9))
def test_scan_composites_have_zero_minors(order):
    scan = chebotarev_scan(order, 2)
    assert not scan.clean
    assert scan.zero_count >= 1
    w = np.exp(2j * np.pi / order)
    for rows, cols in scan.witnesses:
        block = w ** (np.outer(rows, cols) % order)
        assert abs(np.linalg.det(block)) < 1e-9


def test_scan_clamps_requested_size():
    scan = chebotarev_scan(3, 6)
    assert scan.max_size == 3
    assert scan.requested_size == 6
    assert scan.clamped
    assert scan.clean


def test_scan_counts_all_minors():
    from math import comb

    scan = chebotarev_scan(5, 3)
    assert scan.checked == {1: 25, 2: comb(5, 2) ** 2, 3: comb(5, 3) ** 2}


def test_scan_zero_claims_are_checked_in_a_prime_field():
    # w**0 - w**6 = 2 is not zero for order 12; a claim that it is must raise
    counts = np.zeros((2, 12), dtype=np.int64)
    counts[1, 0], counts[1, 6] = 1, -1
    _check_zero_images(counts[:1], 12)
    with pytest.raises(RuntimeError, match="image mod"):
        _check_zero_images(counts, 12)


def test_scan_rejects_tiny_order():
    with pytest.raises(ValueError):
        chebotarev_scan(1, 1)
