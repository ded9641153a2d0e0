"""Exact certification: rank, spanning, bipartition reports, minor scans."""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesforge import exactverify, minors, partition
from gesforge.construct import (
    ConstructionParams,
    GaussianRational,
    exponent_table,
    make_params,
)
from gesforge.cyclo import is_prime
from gesforge.exactverify import (
    _fourier_form,
    _modular_echelon,
    _spanning_scan,
    chebotarev_scan,
    largest_scan_size,
    rank_full,
    spanning_property,
    verify_all_bipartitions,
)
from gesforge.partition import (
    Bipartition,
    FlatMatrix,
    build_nupb,
    coefficient_matrix,
    enumerate_bipartitions,
    factor_matrices,
)

from .oracles import (
    det_leibniz_counts,
    det_power_counts,
    power_counts_are_zero,
    rank_by_minors,
)


def duplicated_table(params):
    table = [[list(loc) for loc in row] for row in exponent_table(params)]
    table[2] = [list(loc) for loc in table[1]]
    return table


# -- rank ---------------------------------------------------------------------


def test_rank_full_standard_family():
    p = make_params(n=3, d=2, num_vectors=5)
    ok, rank, method = rank_full(coefficient_matrix(p))
    assert ok and rank == 5
    assert method == "chebotarev"


def test_rank_deficiency_settled_exactly():
    p = make_params(n=3, d=2, num_vectors=5)
    flat = coefficient_matrix(p, duplicated_table(p))
    ok, rank, method = rank_full(flat)
    assert not ok
    assert rank == 4
    assert method == "circuits"


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
    # a copied row among 15: rank 14, where a proof by minors would need size 15
    p = make_params(dims=(2, 2, 2, 2), num_vectors=15)
    table = [[list(loc) for loc in row] for row in exponent_table(p)]
    table[14] = [list(loc) for loc in table[0]]
    flat = coefficient_matrix(p, table)
    assert rank_full(flat) == (False, 14, "circuits")
    assert svd_ranks(flat.to_complex()) == 14


def test_rank_full_matches_field_elimination_on_scaled_tampered_table():
    scales = (
        (GaussianRational(Fraction(-3, 2)), GaussianRational(Fraction(2, 3), 1)),
        (GaussianRational(0, Fraction(1, 7)), GaussianRational(5)),
        (GaussianRational(1, -1), GaussianRational(Fraction(4, 9))),
    )
    p = make_params(n=3, d=2, num_vectors=5, scales=scales)
    table = duplicated_table(p)
    ok, rank, method = rank_full(coefficient_matrix(p, table))
    assert (ok, method) == (False, "circuits")
    # the scaled family's own amplitudes carry the scales the exact rank ignores
    assert rank == svd_ranks(build_nupb(p, table)) == 4


def test_rank_full_retries_after_spurious_rank_drops(small_fields):
    # square tables whose determinant is nonzero but vanishes mod the first
    # field, found by the integer reduction, plus a sample of the rest
    order = 7
    ctx = minors.modular_context(order, 0)
    assert ctx.modulus < 200
    rng = np.random.default_rng(2)
    exps = rng.integers(0, order, size=(2000, 4, 4))
    exps[1::3, 3] = (exps[1::3, 0] + 3) % order
    nonzero = ~power_counts_are_zero(det_power_counts(exps, order), order)
    drops = [
        t for t in np.nonzero(nonzero)[0]
        if len(_modular_echelon(ctx.power_table()[exps[t]], ctx.modulus)[0]) < 4
    ]
    assert drops, "no modular image lost rank; the retry loop did not run"
    for t in drops + list(range(0, 2000, 97)):
        flat = FlatMatrix(order, (0,), (4,), exps[t])
        exact = rank_by_minors(exps[t], order)
        assert rank_full(flat)[:2] == (exact == 4, exact)


def test_rank_full_moves_on_when_a_circuit_is_dependent_only_mod_q(small_fields, monkeypatch):
    # rows 0-3 are exactly independent but dependent mod the first field;
    # row 4 is row 0 times w**2 and column 4 column 0 times w, so the exact
    # rank is 4.  The first field's candidate circuit among rows 0-3 has
    # exact rank 4, so it is refuted, and a later field proves the rank
    order = 7
    ctx = minors.modular_context(order, 0)
    block = spurious_block(order)
    exps = np.hstack([block, (block[:, :1] + 1) % order])
    exps = np.vstack([exps, (exps[0] + 2) % order])
    circuits = spy_on_circuit_proofs(monkeypatch)
    echelons = spy_on_echelons(monkeypatch)
    flat = FlatMatrix(order, (0,), (5,), exps)
    assert rank_full(flat) == (False, rank_by_minors(exps, order), "circuits") == (False, 4, "circuits")
    assert (exps[:4].tolist(), False) in circuits
    assert circuits[-1] == ([exps[0].tolist(), exps[4].tolist()], True)
    # the refuted candidate sends the transpose's echelon form to a later field
    assert [q for _, q, _ in echelons[:2]] == [ctx.modulus, minors.modular_context(order, 1).modulus]


def test_modular_echelon_pivot_block_is_nonsingular():
    q = 101
    values = np.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 5]])
    rows, cols, reduced = _modular_echelon(values, q)
    assert len(rows) == len(cols) == 2
    block = values[np.ix_(rows, cols)] % q
    assert (block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]) % q
    # Gauss-Jordan form: the identity on the pivot columns, and the pivot
    # block maps the reduced rows back onto the pivot rows
    reduced = np.array(reduced)
    np.testing.assert_array_equal(reduced[:, cols], np.eye(2, dtype=np.int64))
    np.testing.assert_array_equal(block @ reduced % q, values[rows] % q)


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
            assert check.method == "chebotarev"
            assert _spanning_scan(side) == (0, None)


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
    )
    with pytest.raises(ValueError, match="spanning hypothesis"):
        spanning_property(starved)


def leibniz_spanning(side):
    """(failures, first failing row subset) by the Leibniz oracle."""
    rows = list(itertools.combinations(range(side.num_vectors), side.dimension))
    counts = det_leibniz_counts(side.exponents[np.array(rows)], side.root_order)
    zero = power_counts_are_zero(counts, side.root_order)
    return int(zero.sum()), rows[int(np.argmax(zero))] if zero.any() else None


def test_spanning_engines_agree():
    p = make_params(dims=(2, 3), num_vectors=5)
    left, right = factor_matrices(p, Bipartition(2, (0,)))
    for side in (left, right):
        check = spanning_property(side)
        assert check.ok
        assert (check.failures, check.witness) == leibniz_spanning(side) == (0, None)
        assert _spanning_scan(side) == (0, None)


def test_spanning_engines_agree_on_failure():
    p = make_params(dims=(2, 3), num_vectors=5)
    table = [[list(loc) for loc in row] for row in exponent_table(p)]
    table[3] = [list(loc) for loc in table[0]]
    _, right = factor_matrices(p, Bipartition(2, (0,)), table)
    check = spanning_property(right)
    assert not check.ok
    assert (check.failures, check.witness) == leibniz_spanning(right)


@given(
    st.integers(1, 4).flatmap(
        lambda dim: st.tuples(
            st.sampled_from((5, 7, 11)),
            st.lists(
                st.lists(st.integers(0, 10), min_size=dim, max_size=dim),
                min_size=dim,
                max_size=dim + 3,
            ),
            st.lists(
                st.tuples(
                    st.sampled_from(("row", "column")),
                    st.integers(0, 6),
                    st.integers(0, 6),
                    st.integers(0, 10),
                ),
                max_size=3,
            ),
        )
    )
)
@settings(max_examples=60)
def test_spanning_matches_leibniz_on_planted_dependent_rows(case):
    # a row equal to another row times w**shift makes every row subset that
    # holds both singular; a planted column drops the rank of the whole side
    order, rows, plants = case
    exps = np.array(rows, dtype=np.int64) % order
    for kind, src, dst, shift in plants:
        lines = exps if kind == "row" else exps.T
        src, dst = src % len(lines), dst % len(lines)
        if src != dst:
            lines[dst] = (lines[src] + shift) % order
    dim = exps.shape[1]
    side = FlatMatrix(order, (0,), (dim,), exps)
    check = spanning_property(side)
    assert check.ok == (check.failures == 0)
    assert (check.failures, check.witness) == leibniz_spanning(side)
    # a planted table can still have Fourier form, and then nothing fails
    assert check.method == "scan" or check.failures == 0


def spurious_block(order, size=4):
    """A square exponent block whose determinant vanishes mod the first
    (small) field but not exactly."""
    ctx = minors.modular_context(order, 0)
    assert ctx.modulus < 200
    batch = np.random.default_rng(2).integers(0, order, size=(20000, size, size))
    nonzero = ~power_counts_are_zero(det_leibniz_counts(batch, order), order)
    image_rank = minors._rank_mod(ctx.power_table()[batch], ctx.modulus)
    return batch[np.nonzero(nonzero & (image_rank < size))[0][0]]


def spy_on_circuit_proofs(monkeypatch):
    """Record (rows, proven dependent) of each candidate circuit's exact rank."""
    calls = []
    real = minors.exact_rank

    def spy(exponents, order):
        rank = real(exponents, order)
        calls.append((exponents.tolist(), rank < len(exponents)))
        return rank

    monkeypatch.setattr(minors, "exact_rank", spy)
    return calls


def test_spanning_moves_to_the_next_field_after_a_rank_drop(small_fields, monkeypatch):
    # a 4 x 4 block whose determinant vanishes mod the first field but not
    # exactly, and two rows equal to block rows times powers of w: the first
    # field's image of the side has rank 3, so its candidate circuit is
    # refuted and the next field decides the rank and gives the Schur
    # complement.  The side is reduced once in each of the two fields,
    # before any zero image's circuit proof
    order = 7
    ctx = minors.modular_context(order, 0)
    block = spurious_block(order)
    exps = np.vstack([block, (block[[0, 2]] + [[1], [3]]) % order])
    assert len(_modular_echelon(ctx.power_table()[exps].T, ctx.modulus)[1]) < 4
    echelons = spy_on_echelons(monkeypatch)
    side = FlatMatrix(order, (0,), (4,), exps)
    check = spanning_property(side)
    assert (check.failures, check.witness) == leibniz_spanning(side) == (11, (0, 1, 2, 4))
    side_calls = [at for at, (values, _, _) in enumerate(echelons) if len(values[0]) == len(exps)]
    assert side_calls == [0, 1] and len(echelons) > 2
    fields = [minors.modular_context(order, i).modulus for i in (0, 1)]
    assert [q for _, q, _ in echelons[:2]] == fields


def spy_on_echelons(monkeypatch):
    """Record (values, modulus, rank) of each `_modular_echelon` call."""
    calls = []
    real = exactverify._modular_echelon

    def spy(values, q):
        result = real(values, q)
        calls.append((np.asarray(values).tolist(), q, len(result[0])))
        return result

    monkeypatch.setattr(exactverify, "_modular_echelon", spy)
    return calls


def dependent_only_mod_q_side(order=13):
    """(exponents, block) of a side whose rows 0-2 are dependent mod the
    first (small) field only: a 3 x 3 block singular mod q but not exactly,
    with a fourth column that is column 0 times w.  Rows 3 and 4 are
    random, and row 5 is row 0 times w."""
    block = spurious_block(order, 3)
    block = np.hstack([block, (block[:, :1] + 1) % order])
    extra = np.random.default_rng(3).integers(0, order, size=(2, 4))
    return np.vstack([block, extra, (block[0] + 1) % order]), block


def test_spanning_falls_back_when_a_circuit_is_dependent_only_mod_q(small_fields, monkeypatch):
    # rows 0-2 are dependent mod q only, so their candidate circuit is
    # refuted there and the row sets holding them are cleared in a later
    # field, where their image has full rank.  Row 5 is row 0 times w, a
    # circuit proven once for every set that holds both
    order = 13
    ctx, later = minors.modular_context(order, 0), minors.modular_context(order, 1)
    exps, block = dependent_only_mod_q_side(order)
    assert len(_modular_echelon(ctx.power_table()[exps].T, ctx.modulus)[1]) == 4
    circuits = spy_on_circuit_proofs(monkeypatch)
    echelons = spy_on_echelons(monkeypatch)
    side = FlatMatrix(order, (0,), (4,), exps)
    check = spanning_property(side)
    assert (block.tolist(), False) in circuits
    assert ([exps[0].tolist(), exps[5].tolist()], True) in circuits
    for rows in ([0, 1, 2, 3], [0, 1, 2, 4]):
        assert (later.power_table()[exps[rows]].T.tolist(), later.modulus, 4) in echelons
    assert (check.failures, check.witness) == leibniz_spanning(side)
    assert check.failures > 0


def test_a_candidate_circuit_gets_its_exact_rank_once(small_fields, monkeypatch):
    # the refuted candidates on rows {0, 1, 2} and {1, 2, 5} each lie in
    # two zero-image sets of the first field; an exact rank holds in every
    # field, so each distinct row block is ranked once per spanning check
    exps, _ = dependent_only_mod_q_side()
    circuits = spy_on_circuit_proofs(monkeypatch)
    check = spanning_property(FlatMatrix(13, (0,), (4,), exps))
    blocks = [rows for rows, _ in circuits]
    assert ([exps[i].tolist() for i in (0, 1, 2)], False) in circuits
    assert ([exps[i].tolist() for i in (1, 2, 5)], False) in circuits
    assert len(blocks) == len({str(rows) for rows in blocks})
    assert check.failures > 0


def test_spanning_on_a_rank_deficient_side():
    # a party whose levels share one exponent is a rank-one factor, so every
    # side holding it has rank below its dimension and no nonzero maximal minor
    p = make_params(dims=(2, 2, 2), num_vectors=7)
    table = [[list(loc) for loc in row] for row in exponent_table(p)]
    for i, row in enumerate(table):
        row[1] = [i % 3, i % 3]
    report = verify_all_bipartitions(p, table)
    assert report.passed is False
    for cut, result in zip(enumerate_bipartitions(3), report.bipartitions):
        for side, check in zip(factor_matrices(p, cut, table), (result.left, result.right)):
            if 1 in side.parties:
                assert check.failures == check.subsets_total == math.comb(7, side.dimension)
                assert check.witness == tuple(range(side.dimension))
            else:
                assert (check.failures, check.witness) == leibniz_spanning(side)


def test_composite_order_sides_get_a_proven_verdict():
    # a side whose image has rank below D takes the exact rank, and the
    # circuit proof needs no prime order: `minors.proof_fields` covers every
    # order.  Each planted column drops the rank of the whole side
    side = FlatMatrix(8, (0,), (2,), [[0, 0], [1, 1], [2, 2]])
    check = spanning_property(side)
    assert (check.failures, check.witness) == leibniz_spanning(side) == (3, (0, 1))
    assert rank_full(side) == (False, rank_by_minors(side.exponents, 8), "circuits") == (False, 1, "circuits")
    rng = np.random.default_rng(5)
    for order in (4, 6, 8, 9, 10, 12):
        for dim, planted in itertools.product((2, 3), (False, True)):
            exps = rng.integers(0, order, size=(dim + 2, dim))
            if planted:
                exps[:, -1] = (exps[:, 0] + rng.integers(order)) % order
            side = FlatMatrix(order, (0,), (dim,), exps)
            check = spanning_property(side)
            assert (check.failures, check.witness) == leibniz_spanning(side)
            assert rank_full(side)[:2] == (False, rank_by_minors(exps, order))


# -- Fourier form --------------------------------------------------------------


@pytest.mark.parametrize("d, n", ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)))
def test_scan_agrees_with_the_theorem_on_the_exact_grid(d, n):
    # the exact grid of acceptance criterion 3 passes by Chebotarev's theorem,
    # so the scan and the modular-echelon rank are run on it here
    probe = make_params(d=d, n=n, num_vectors=d**n - 1)
    for k in range(probe.min_vectors, probe.max_vectors + 1):
        params = make_params(d=d, n=n, num_vectors=k)
        flat = coefficient_matrix(params)
        assert rank_full(flat) == (True, k, "chebotarev")
        ctx = minors.modular_context(params.root_order)
        assert len(_modular_echelon(ctx.power_table()[flat.exponents], ctx.modulus)[0]) == k
        for cut in enumerate_bipartitions(n):
            for side in factor_matrices(params, cut):
                assert spanning_property(side).method == "chebotarev"
                assert _spanning_scan(side) == (0, None)


@st.composite
def relabelled_recipes(draw):
    """A recipe coefficient matrix, w**(i * j) on rows i and columns j,
    relabelled: rows permuted, a subset of two or more columns in any
    order, the row and column labels times units mod p, and per-row and
    per-column exponent shifts."""
    d, n = draw(st.sampled_from(((2, 2), (2, 3), (3, 2), (2, 4), (3, 3))))
    probe = make_params(d=d, n=n, num_vectors=d**n - 1)
    params = make_params(
        d=d, n=n, num_vectors=draw(st.integers(probe.min_vectors, probe.max_vectors))
    )
    order, exps = params.root_order, coefficient_matrix(params).exponents
    k, dim = exps.shape
    rows = draw(st.permutations(range(k)))
    cols = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=dim, unique=True))
    u, v = draw(st.integers(1, order - 1)), draw(st.integers(1, order - 1))
    shift = st.integers(0, order - 1)
    a = np.array(draw(st.lists(shift, min_size=k, max_size=k)))
    b = np.array(draw(st.lists(shift, min_size=len(cols), max_size=len(cols))))
    relabelled = (u * v * exps[np.ix_(rows, cols)] + a[:, None] + b[None, :]) % order
    return FlatMatrix(order, (0,), (len(cols),), relabelled)


@given(relabelled_recipes())
@settings(max_examples=60)
def test_fourier_form_recognises_relabelled_recipes(flat):
    k, dim = flat.exponents.shape
    assert _fourier_form(flat)
    assert rank_full(flat) == (k <= dim, min(k, dim), "chebotarev")
    if k >= dim:
        check = spanning_property(flat)
        assert check.ok and check.method == "chebotarev"
    size = min(k, dim)
    if size <= 5 and math.comb(max(k, dim), size) <= 200:
        # every maximal minor is nonzero by the Leibniz oracle, and the scan agrees
        tall = flat.exponents if k >= dim else flat.exponents.T
        subsets = np.array(list(itertools.combinations(range(len(tall)), size)))
        counts = det_leibniz_counts(tall[subsets], flat.root_order)
        assert not power_counts_are_zero(counts, flat.root_order).any()
        if k >= dim:
            assert _spanning_scan(flat) == (0, None)


def fourier_rows_with(case):
    """Rows 0..5 and columns 0..3 of F_11, changed so Fourier form fails."""
    order, i, j = 11, np.arange(6), np.arange(4)
    exps = np.outer(i, j) % order
    if case == "copied row":  # r_5 = r_0: the product holds, the rows repeat
        exps[5] = (exps[0] + 3) % order
    elif case == "copied column":  # c_3 = c_0
        exps[:, 3] = (exps[:, 0] + 5) % order
    elif case == "composite order":  # F_8 has zero minors
        order = 8
        exps = np.outer(i, j) % order
    elif case == "rank-two f":  # f[:, 1] and f[1, :] are distinct, f is no product
        exps = (np.outer(i, j) + np.outer(i**2, j**3)) % order
    return FlatMatrix(order, (0,), (4,), exps)


@pytest.mark.parametrize(
    "case", ("copied row", "copied column", "composite order", "rank-two f")
)
def test_fourier_form_rejects_and_the_scan_decides(case):
    flat = fourier_rows_with(case)
    assert not _fourier_form(flat)
    if case != "composite order":
        assert rank_full(flat)[2] != "chebotarev"
    check = spanning_property(flat)
    assert check.method == "scan"
    assert (check.failures, check.witness) == _spanning_scan(flat) == leibniz_spanning(flat)
    if case.startswith("copied"):
        assert check.failures > 0


def test_spanning_refuses_a_scan_beyond_the_limit():
    # with row 0 copied over row 39, a 16-dimensional side of 4x4x4 has no
    # Fourier form, and its scan would hold 2.7e9 bytes by size 6 of 16, for
    # C(40, 16) = 6.3e10 minors: refused before any table is built
    params = make_params(dims=(4, 4, 4), num_vectors=40)
    table = [[list(loc) for loc in row] for row in exponent_table(params)]
    table[39] = [list(loc) for loc in table[0]]
    with pytest.raises(ValueError, match="a spanning scan of a 40 x 16 side needs .* bytes"):
        verify_all_bipartitions(params, table)


def test_spanning_scan_bounds_the_minor_count(monkeypatch):
    # the pass over A covers the C(k, D) maximal minors but the one of M_B:
    # a 5 x 3 side takes C(5, 3) - 1 = 9
    p = make_params(dims=(2, 3), num_vectors=5)
    table = [[list(loc) for loc in row] for row in exponent_table(p)]
    table[3] = [list(loc) for loc in table[0]]
    _, right = factor_matrices(p, Bipartition(2, (0,)), table)
    monkeypatch.setattr(exactverify, "MAX_SCAN_MINORS", 9)
    assert spanning_property(right).failures > 0
    monkeypatch.setattr(exactverify, "MAX_SCAN_MINORS", 8)
    with pytest.raises(ValueError, match="5 x 3 side needs 9 minors"):
        spanning_property(right)


def test_spanning_scan_counts_its_zero_images(monkeypatch):
    # with row 0 copied over row 19, the 9-dimensional side {1, 2} of 3x3x3
    # has C(18, 7) = 31,824 zero maximal minors.  Its pass over 9 x 11 peaks
    # at 1,652,035 bytes, within 2 MiB; after it the zero and column tables
    # take 167,960 + 194,576 bytes, the masks 31,824 * (2 * 20 + 3), and the
    # most zero images of one size, 11,760 of size 5, 11,760 * (24 + 32 * 5)
    params = make_params(dims=(3, 3, 3), num_vectors=20)
    _, side = factor_matrices(params, Bipartition(3, (0,)), tampered_table(params))
    monkeypatch.setattr(exactverify, "MAX_SCAN_BYTES", 2**21)
    exactverify._check_scan_reach("", 9, 11, 9)
    with pytest.raises(
        ValueError, match="20 x 9 side has 31824 zero images, which need 3894808 bytes at once"
    ):
        spanning_property(side)
    monkeypatch.setattr(exactverify, "MAX_SCAN_BYTES", 3894808)
    assert spanning_property(side).failures == math.comb(18, 7)


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
    assert all(cut["count_ok"] is True for cut in doc["bipartitions"])
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
    # below the worst cut's D_S + D_Sbar - 1, before any cut is checked
    short = ConstructionParams(dims=(2, 2, 2), num_vectors=4, root_order=11)
    with pytest.raises(ValueError, match="cannot span every cut"):
        verify_all_bipartitions(short)


def test_verify_rejects_malformed_table():
    p = make_params(n=3, d=2, num_vectors=5)
    with pytest.raises(ValueError):
        verify_all_bipartitions(p, exponent_table(p)[:-1])


def test_float_scales_get_exact_verdict():
    # nonzero float scales multiply each minor by a nonzero factor, so the
    # exact verdicts read the exponents alone
    scales = ((1 + 0j, 0.3 + 0.4j), (1 + 0j, 1 + 0j), (1 + 0j, 1 + 0j))
    p = make_params(n=3, d=2, num_vectors=5, scales=scales)
    report = verify_all_bipartitions(p)
    assert not report.skipped
    assert report.passed is True
    assert report.matrix_rank == 5 and len(report.bipartitions) == 3
    tampered = verify_all_bipartitions(p, duplicated_table(p))
    assert tampered.passed is False
    assert (tampered.matrix_rank, tampered.rank_method) == (4, "circuits")


def test_non_finite_scales_rejected():
    for bad in (float("nan"), complex(float("inf"), 0), complex(0, float("-inf"))):
        scales = ((1 + 0j, bad), (1 + 0j, 1 + 0j), (1 + 0j, 1 + 0j))
        p = make_params(n=3, d=2, num_vectors=5, scales=scales)
        with pytest.raises(ValueError, match="party 0 level 1 is not finite"):
            verify_all_bipartitions(p)


# -- one Fourier-form check for the whole family ---------------------------------


def per_side_doc(params, table=None) -> dict:
    """The exact report as the per-side path writes it: `spanning_property`
    on each side of every cut and `rank_full` of the full matrix."""
    cuts = []
    for cut in enumerate_bipartitions(params.num_parties):
        left, right = (spanning_property(side) for side in factor_matrices(params, cut, table))
        cuts.append({
            "members": list(cut.members),
            "complement": list(cut.complement),
            "required_vectors": left.dimension + right.dimension - 1,
            "count_ok": True,
            "ok": left.ok and right.ok,
            "left": left.to_doc(),
            "right": right.to_doc(),
        })
    full_rank, rank, method = rank_full(coefficient_matrix(params, table))
    return {
        "dims": list(params.dims),
        "num_vectors": params.num_vectors,
        "root_order": str(params.root_order),
        "scales_exact": params.scales_exact,
        "skipped": False,
        "matrix_rank": rank,
        "full_rank": full_rank,
        "rank_method": method,
        "passed": full_rank and all(cut["ok"] for cut in cuts),
        "bipartitions": cuts,
    }


def family_doc(params, table=None) -> dict:
    doc = verify_all_bipartitions(params, table).to_doc()
    del doc["elapsed_seconds"]
    return doc


def side_methods(doc) -> list[tuple[tuple[int, ...], str]]:
    return [
        (tuple(cut[side]["parties"]), cut[side]["method"])
        for cut in doc["bipartitions"] for side in ("left", "right")
    ]


LADDER = {(2, 2): 3, (2, 2, 2): 7, (2, 2, 2, 2): 15, (3, 3): 8, (3, 3, 3): 18}


@pytest.mark.parametrize("dims", LADDER)
def test_one_form_check_matches_the_per_side_path_up_the_ladder(dims):
    probe = make_params(dims=dims, num_vectors=LADDER[dims])
    for k in range(probe.min_vectors, LADDER[dims] + 1):
        params = make_params(dims=dims, num_vectors=k)
        doc = family_doc(params)
        assert doc == per_side_doc(params)
        assert doc["rank_method"] == "chebotarev"
        assert all(method == "chebotarev" for _, method in side_methods(doc))


@pytest.mark.parametrize("kind", ("exact", "float"))
@pytest.mark.parametrize("dims, k", (((3, 3), 7), ((2, 2, 2), 6), ((2, 2, 2, 2), 12), ((3, 3, 3), 16)))
def test_one_form_check_matches_the_per_side_path_with_scales(dims, k, kind):
    scales = tuple(
        tuple(
            GaussianRational(Fraction(s + 2, m + 3), s - m) if kind == "exact" else complex(0.5 + s, m - s)
            for s in range(d)
        )
        for m, d in enumerate(dims)
    )
    params = make_params(dims=dims, num_vectors=k, scales=scales)
    doc = family_doc(params)
    assert doc == per_side_doc(params)
    assert doc["scales_exact"] is (kind == "exact") and doc["passed"]


def test_one_form_check_matches_the_per_side_path_at_a_larger_prime():
    params = make_params(dims=(2, 2, 2), num_vectors=7, root_order=13)
    doc = family_doc(params)
    assert doc == per_side_doc(params)
    assert doc["root_order"] == "13" and doc["rank_method"] == "chebotarev"


@st.composite
def relabelled_tables(draw):
    """(params, table): a recipe table with its rows reordered, each party's
    levels reordered, its exponents times a unit, and exponent shifts per
    row and party and per party and level.  Every side keeps Fourier form."""
    dims = draw(st.sampled_from(((2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3))))
    probe = make_params(dims=dims, num_vectors=math.prod(dims) - 1)
    k = draw(st.integers(probe.min_vectors, probe.max_vectors))
    params = make_params(dims=dims, num_vectors=k)
    order, base = params.root_order, exponent_table(params)
    rows = draw(st.permutations(range(k)))
    levels = [draw(st.permutations(range(d))) for d in dims]
    unit = draw(st.integers(1, order - 1))
    shift = st.integers(0, order - 1)
    row_shifts = [draw(st.lists(shift, min_size=len(dims), max_size=len(dims))) for _ in range(k)]
    level_shifts = [draw(st.lists(shift, min_size=d, max_size=d)) for d in dims]
    table = [
        [
            [
                (unit * base[rows[i]][m][levels[m][s]] + row_shifts[i][m] + level_shifts[m][s]) % order
                for s in range(d)
            ]
            for m, d in enumerate(dims)
        ]
        for i in range(k)
    ]
    return params, table


@given(relabelled_tables())
@settings(max_examples=40)
def test_one_form_check_matches_the_per_side_path_on_relabelled_tables(case):
    params, table = case
    doc = family_doc(params, table)
    assert doc == per_side_doc(params, table)
    assert doc["rank_method"] == "chebotarev"
    assert all(method == "chebotarev" for _, method in side_methods(doc))


@pytest.mark.parametrize(
    "dims, k, party", (((3, 3), 6, 0), ((2, 2, 2), 7, 1), ((2, 2, 2, 2), 9, 3), ((3, 3, 3), 14, 2))
)
def test_a_repeated_level_fails_the_full_check_but_not_the_sides_without_it(dims, k, party):
    # level 1 of one party equals its level 0 in every row: the full matrix
    # has two equal columns, so every side holding that party falls to the
    # scan, and every side without it still passes by the theorem
    params = make_params(dims=dims, num_vectors=k)
    table = [[list(loc) for loc in row] for row in exponent_table(params)]
    for row in table:
        row[party][1] = row[party][0]
    assert not _fourier_form(coefficient_matrix(params, table))
    doc = family_doc(params, table)
    assert doc == per_side_doc(params, table)
    assert doc["rank_method"] != "chebotarev" and not doc["passed"]
    for parties, method in side_methods(doc):
        assert method == ("scan" if party in parties else "chebotarev")


def svd_ranks(matrices: np.ndarray) -> np.ndarray:
    """Ranks by singular values with a margin: a value between the zero
    floor 1e-13 and the margin 1e-11 fails the test instead."""
    values = np.linalg.svd(matrices, compute_uv=False)
    assert not ((values > 1e-13) & (values < 1e-11)).any(), "no clear SVD margin"
    return (values >= 1e-11).sum(axis=-1)


def unit_square_ranks(squares: np.ndarray) -> np.ndarray:
    """`svd_ranks` of a stack of n x n matrices whose entries have modulus 1.

    Such a matrix has sigma_max <= ||M||_F = n, so sigma_min >= |det| /
    n**(n - 1): a determinant of at least 1e-11 * n**(n - 1) puts every
    singular value at or above the margin, full rank and outside the guard
    band.  Only the other matrices take the SVD, with its margin check.
    """
    n = squares.shape[-1]
    ranks = np.full(len(squares), n)
    unsure = np.abs(np.linalg.det(squares)) < 1e-11 * float(n) ** (n - 1)
    if unsure.any():
        ranks[unsure] = svd_ranks(squares[unsure])
    return ranks


@pytest.mark.parametrize(
    "dims, k, order",
    (
        ((2, 2, 2, 2, 2), 17, None),  # five parties, 16-dimensional sides
        ((2, 3, 5), 16, None),  # mixed local dimensions
        ((2, 2, 2), 7, 13),  # a non-minimal prime (11 is the smallest for 8)
    ),
)
def test_edge_families_match_svd(dims, k, order):
    params = make_params(dims=dims, num_vectors=k, root_order=order)
    tampered = [[list(loc) for loc in row] for row in exponent_table(params)]
    tampered[k - 1] = [list(loc) for loc in tampered[0]]
    for table in (None, tampered):
        report = verify_all_bipartitions(params, table)
        assert report.passed is (table is None)
        assert report.matrix_rank == svd_ranks(coefficient_matrix(params, table).to_complex())
        cuts = enumerate_bipartitions(len(dims))
        for cut, check in zip(cuts, report.bipartitions):
            sides = factor_matrices(params, cut, table)
            for side, spanning in zip(sides, (check.left, check.right)):
                rows = list(itertools.combinations(range(k), side.dimension))
                ok = unit_square_ranks(side.to_complex()[np.array(rows)]) == side.dimension
                assert spanning.failures == int((~ok).sum())
                first = None if ok.all() else rows[int(np.argmin(ok))]
                assert spanning.witness == first


def count_zero_proofs(monkeypatch):
    """The shape of every row set sent to `minors.exact_rank`."""
    shapes = []
    real = minors.exact_rank

    def spy(exponents, order):
        shapes.append(np.shape(exponents))
        return real(exponents, order)

    monkeypatch.setattr(minors, "exact_rank", spy)
    return shapes


def tampered_table(params):
    """The standard table with row 0 copied over the last row."""
    table = [[list(loc) for loc in row] for row in exponent_table(params)]
    table[-1] = [list(loc) for loc in table[0]]
    return table


def test_circuits_keep_large_minors_from_the_zero_proof(monkeypatch):
    # with row 0 copied over row 16 every 8-dimensional side of 2^5 holds
    # 5,005 exactly-zero maximal minors; the circuit of rows 0 and 16
    # settles them all, and those of the other sides, through the exact
    # rank of its two rows
    params = make_params(dims=(2, 2, 2, 2, 2), num_vectors=17)
    shapes = count_zero_proofs(monkeypatch)
    report = verify_all_bipartitions(params, tampered_table(params))
    assert not report.passed and report.matrix_rank == 16
    assert shapes and {rows for rows, _ in shapes} == {2}


def test_rank_proof_of_a_large_tampered_table_sends_only_small_minors(monkeypatch):
    # one circuit (rows 0 and 39) proves the rank through one exact rank of
    # its two rows, not through the whole 40-row table
    params = make_params(dims=(4, 4, 4), num_vectors=40)
    shapes = count_zero_proofs(monkeypatch)
    assert rank_full(coefficient_matrix(params, tampered_table(params))) == (False, 39, "circuits")
    assert shapes == [(2, 64)]


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
    assert scan.clean


def test_scan_counts_all_minors():
    from math import comb

    scan = chebotarev_scan(5, 3)
    assert scan.checked == {1: 25, 2: comb(5, 2) ** 2, 3: comb(5, 3) ** 2}


def oracle_minors(order, size, pairs=None):
    """(rows, cols, zero) of the size x size minors of F_n on the given
    (row set, column set) index pairs, or on all of them, decided by the
    tests' own subset expansion."""
    sets = np.array(list(itertools.combinations(range(order), size)))
    if pairs is None:
        pairs = np.array(list(itertools.product(range(len(sets)), repeat=2)))
    rows, cols, zero = sets[pairs[:, 0]], sets[pairs[:, 1]], []
    for lo in range(0, len(pairs), 20_000):
        exps = rows[lo : lo + 20_000, :, None] * cols[lo : lo + 20_000, None, :] % order
        zero.append(power_counts_are_zero(det_power_counts(exps, order), order))
    return rows, cols, np.concatenate(zero)


def as_witnesses(rows, cols):
    return list(zip(map(tuple, rows.tolist()), map(tuple, cols.tolist())))


@pytest.mark.parametrize("order", (*range(2, 13), 33, 34))
def test_scan_matches_per_minor_enumeration(order):
    # every minor decided on its own by the integer subset expansion, in the
    # order rows-then-columns, lexicographic within each size
    max_size = min(order, 4) if order < 13 else 2
    scan = chebotarev_scan(order, max_size)
    checked, zero_count, witnesses = {}, 0, []
    for size in range(1, max_size + 1):
        rows, cols, zero = oracle_minors(order, size)
        checked[size] = len(zero)
        zero_count += int(zero.sum())
        witnesses += as_witnesses(rows[zero], cols[zero])
    assert scan.checked == checked
    assert scan.zero_count == zero_count
    assert scan.witnesses == witnesses[:20]


def test_scan_memory_stays_small():
    # the Laplace pass keeps about max_size * n * C(n - 1, max_size - 1)
    # residues, not a batch of materialised minors, and its zero tables hold
    # only the C(n - 1, s - 1) row sets and column sets of each size s that
    # hold 0: 2.7 MiB at its peak, where tables over every column set took
    # 5.8 MiB
    tracemalloc.start()
    try:
        scan = chebotarev_scan(13, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scan.clean and scan.checked[6] == 1716**2
    assert peak < 4 * 2**20


def every_column_set(ncols, max_size):
    """The column family of the spanning scan: every column set, no twist."""
    combos, _, drops = exactverify._column_tables(ncols, max_size)
    return combos, drops, None


def full_fourier_passes(order, max_size):
    """The zero tables of a Laplace pass over every row set and every column
    set of F_n, and-ed over the proof fields of max_size."""
    grid = np.outer(np.arange(order), np.arange(order)) % order
    zero = None
    for ctx in minors.proof_fields(order, max_size):
        zero = exactverify._zero_minors(
            ctx.power_table()[grid], ctx.modulus, max_size, every_column_set(order, max_size), zero
        )
    return zero


def assert_translation_fill_matches_the_full_pass(order, max_size):
    translated = exactverify._translated_rows(order, max_size)
    reduced = exactverify._fourier_zero_images(order, max_size, translated)
    full = full_fourier_passes(order, max_size)
    for s in range(1, max_size + 1):
        assert reduced[s].shape == (math.comb(order - 1, s - 1),) * 2
        np.testing.assert_array_equal(reduced[s][np.ix_(translated[s], translated[s])], full[s])
    return full


@pytest.mark.parametrize("order", range(2, 17))
def test_row_zero_pass_and_translation_fill_match_the_full_pass(order):
    # det F[R + t, C] = w**(t * sum(C)) det F[R, C] and det F[R, C + t] =
    # w**(t * sum(R)) det F[R, C], so entry (R, C) of each zero table is
    # entry (R - min R, C - min C); one field decides these sizes (5! < q)
    max_size = min(order, 5)
    assert len(minors.proof_fields(order, max_size)) == 1
    full = assert_translation_fill_matches_the_full_pass(order, max_size)
    assert is_prime(order) or any(table.any() for table in full)


@pytest.mark.parametrize("max_size, fields", ((5, 1), (6, 2)))
def test_row_zero_pass_and_translation_fill_match_the_full_pass_in_small_fields(
    small_fields, max_size, fields
):
    # near q = 199 order 11 has thousands of spurious zero images: one field
    # decides the sizes to 5 (5! < 199) and leaves them in the tables, and
    # size 6 takes a second field (6! > 199), which clears them
    assert len(minors.proof_fields(11, max_size)) == fields
    full = assert_translation_fill_matches_the_full_pass(11, max_size)
    assert any(table.any() for table in full) == (fields == 1)


def spy_on_laplace_passes(monkeypatch):
    """Record (modulus, zero images) of each Laplace pass; a later field's
    count is of the minors whose images vanish in every field so far."""
    calls = []
    real = exactverify._zero_minors

    def spy(matrix, q, max_size, family, zero=None):
        found = real(matrix, q, max_size, family, zero)
        calls.append((q, sum(int(table.sum()) for table in found)))
        return found

    monkeypatch.setattr(exactverify, "_zero_minors", spy)
    return calls


def test_scan_escalates_spurious_zero_images(small_fields, monkeypatch):
    # with q = 199 thousands of order-11 minors have a zero image mod q;
    # size 6 needs a second field (6! > 199), and the second pass with the
    # orbit proof clears every one of them
    assert minors.modular_context(11).modulus < 200
    calls = spy_on_laplace_passes(monkeypatch)
    scan = chebotarev_scan(11, 6)
    assert len({q for q, _ in calls}) >= 2
    assert calls[0][1] > 0, "no zero image; the orbit proof did not run"
    assert scan.clean and scan.witnesses == []


def test_scan_orbit_proof_clears_spurious_zero_images(small_fields, monkeypatch):
    # up to size 5 one field near q = 199 is enough (5! < 199), so no second
    # pass clears the first field's spurious zero images: the orbit proof must
    calls = spy_on_laplace_passes(monkeypatch)
    scan = chebotarev_scan(11, 5)
    assert len(calls) == 1 and calls[0][1] > 0
    assert scan.clean and scan.witnesses == []


def test_scan_proves_in_every_field_the_bound_asks_for(small_fields, monkeypatch):
    # near q = 199 a size-6 minor needs two fields (6! > 199).  Let the first
    # field's pass claim every size-6 image zero, as it would if every such
    # determinant were divisible by q: the second field must clear them all
    order, q = 11, minors.modular_context(11).modulus
    real = exactverify._zero_minors

    def first_field_claims_all(matrix, modulus, max_size, family, zero=None):
        found = real(matrix, modulus, max_size, family, zero)
        if modulus == q:
            found[6][:] = True
        return found

    monkeypatch.setattr(exactverify, "_zero_minors", first_field_claims_all)
    scan = chebotarev_scan(order, 6)
    assert scan.clean and scan.witnesses == []


def test_scan_zero_claims_are_checked_in_a_prime_field():
    # a minor of a composite scan counts as zero exactly when its images
    # under all phi(12) embeddings vanish mod q (one field suffices: 4! < q)
    order, max_size = 12, 4
    scan = chebotarev_scan(order, max_size)
    ctx = minors.modular_context(order)
    units = [a for a in range(1, order) if math.gcd(a, order) == 1]
    fourier = ctx.power_table()[np.outer(np.arange(order), np.arange(order)) % order]
    tables = exactverify._zero_minors(
        fourier, ctx.modulus, max_size, every_column_set(order, max_size)
    )
    proven = []
    for size in range(1, max_size + 1):
        sets = np.array(list(itertools.combinations(range(order), size)))
        at_rows, at_cols = np.nonzero(tables[size])
        rows, cols = sets[at_rows], sets[at_cols]
        exps = rows[:, :, None] * cols[:, None, :] % order
        ranks = [minors._rank_mod(ctx.power_table()[a * exps % order], ctx.modulus) for a in units]
        zero = (np.array(ranks) < size).all(axis=0)
        proven += zip(map(tuple, rows[zero].tolist()), map(tuple, cols[zero].tolist()))
    assert scan.zero_count == len(proven) > 0
    assert scan.witnesses == proven[:20]


def test_scan_witnesses_are_checked_at_high_precision(small_fields, monkeypatch):
    # an orbit proof that wrongly confirmed the spurious zero images of
    # order 11 is caught by the exact re-check of the witnesses' power
    # counts: with no unit but 1 and a second field that clears nothing,
    # every zero image of the first field's pass stands as proven
    q = minors.modular_context(11).modulus
    real = exactverify._zero_minors

    def first_field_only(matrix, modulus, max_size, family, zero=None):
        return real(matrix, modulus, max_size, family, zero) if modulus == q else zero

    monkeypatch.setattr(exactverify, "_zero_minors", first_field_only)
    monkeypatch.setattr(minors, "units", lambda order: (1,))
    with pytest.raises(RuntimeError, match="proved zero but its value"):
        chebotarev_scan(11, 6)


@pytest.mark.parametrize("order, sizes", ((12, (2, 3, 4)), (10, (5,))))
def test_witness_check_passes_every_zero_minor_of_the_oracle(order, sizes):
    # sizes above 2 too: the scan's own witnesses on these orders are size 2
    # (a size-1 minor is a root of unity, never zero)
    for size in sizes:
        rows, cols, zero = oracle_minors(order, size)
        witnesses = as_witnesses(rows[zero], cols[zero])
        assert witnesses
        for lo in range(0, len(witnesses), 1000):
            exactverify._check_witnesses(witnesses[lo : lo + 1000], order)


@pytest.mark.parametrize(
    "order, rows, cols",
    ((20, (8, 14, 15, 17), (5, 6, 9, 10)), (24, (0, 4, 13, 21, 23), (0, 8, 10, 18, 21)),
     (20, (2, 3, 14, 15, 18, 19), (4, 11, 15, 16, 17, 18)), (30, (0, 9, 17, 26), (1, 13, 14, 20))),
)
def test_witness_check_reduces_modulo_the_cyclotomic_polynomial(order, rows, cols):
    # most zero minors of F_n cancel term by term, but these vanish only
    # through a relation among the powers of w: nonzero power counts that
    # reduce to zero
    counts = det_power_counts(np.outer(rows, cols)[None] % order, order)
    assert counts.any() and power_counts_are_zero(counts, order).all()
    exactverify._check_witnesses([(rows, cols)], order)


@pytest.mark.parametrize("order", (6, 11, 12))
def test_witness_check_raises_on_every_nonzero_minor(order):
    # a nonzero minor fails the check at every size, after zero witnesses
    # of the sizes before it
    rng = np.random.default_rng(order)
    zeros = []
    for size in range(2, 7):
        count = math.comb(order, size)
        rows, cols, zero = oracle_minors(order, size, rng.integers(count, size=(40, 2)))
        assert not zero.all()
        zeros += as_witnesses(rows[zero], cols[zero])
        exactverify._check_witnesses(zeros, order)
        for minor in as_witnesses(rows[~zero], cols[~zero]):
            with pytest.raises(RuntimeError, match="proved zero but its value"):
                exactverify._check_witnesses(zeros + [minor], order)
    assert order == 11 or zeros


def test_witness_check_decides_a_size_twelve_minor_within_a_second():
    # F_24 on the even rows repeats column c at c + 12, so these columns
    # make a zero minor; F_12 itself is a nonsingular Vandermonde matrix
    rows, cols = tuple(range(0, 24, 2)), (*range(6), *range(12, 18))
    exps = np.outer(rows, cols)[None] % 24
    assert power_counts_are_zero(det_power_counts(exps, 24), 24).all()
    start = time.perf_counter()
    exactverify._check_witnesses([(rows, cols)], 24)
    with pytest.raises(RuntimeError, match="proved zero but its value"):
        exactverify._check_witnesses([(tuple(range(12)), tuple(range(12)))], 12)
    assert time.perf_counter() - start < 1.0


def test_witness_check_refuses_counts_beyond_int64():
    # a size-21 minor has 21! > 2**63 terms, so its counts could wrap
    with pytest.raises(ValueError, match="above int64"):
        exactverify._check_witnesses([(tuple(range(21)), tuple(range(21)))], 21)


def test_scan_rejects_tiny_order():
    with pytest.raises(ValueError):
        chebotarev_scan(1, 1)


@pytest.mark.parametrize(
    "order,max_size", ((1_000_000_007, 6), (100_003, 2), (40, 40), (8192, 1), (8193, 1), (16, 10))
)
def test_scan_refuses_tables_beyond_the_limit(order, max_size):
    # refused before any table, power or unit list is built
    with pytest.raises(ValueError, match="above the supported"):
        chebotarev_scan(order, max_size)


def test_scan_limit_applies_to_the_largest_table(monkeypatch):
    # order 7 to size 7 holds 2 * 49 residues of matrix and image and, per
    # size s with m = C(6, s - 1) sets that hold 0, (2s + 2) * C(7, s) of
    # column tables and translation index and (8s + 14) * m of family,
    # signed table, twists and images: 4,094 in all.  The expansion adds
    # (14 + s) * m for the largest, size 4's 360, not the requested size
    # 7's 21.  At 8 bytes a residue that is 36,416 bytes; the boolean
    # tables add sum_s C(6, s - 1)**2 = C(12, 6) = 924, the orbit proof's
    # copy the largest of them, size 4's 400, and the Python objects 65,536
    monkeypatch.setattr(exactverify, "MAX_SCAN_BYTES", 103276)
    assert chebotarev_scan(7, 7).clean
    monkeypatch.setattr(exactverify, "MAX_SCAN_BYTES", 103275)
    with pytest.raises(ValueError, match="103276 bytes at once up to size 7"):
        chebotarev_scan(7, 7)


@pytest.mark.parametrize(
    "order, max_size", ((11, 6), (13, 6), (43, 2), (401, 1), (12, 6), (14, 6))
)
def test_scan_limit_counts_the_real_peak(monkeypatch, order, max_size):
    # the pass's tables and the boolean zero tables are the scan's memory,
    # for a prime and a composite order alike: with the limit just below
    # what the scan really holds at its peak, the check must refuse it
    exactverify._column_tables.cache_clear()
    tracemalloc.start()
    try:
        chebotarev_scan(order, max_size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(exactverify, "MAX_SCAN_BYTES", peak - 1)
    with pytest.raises(ValueError, match="bytes at once"):
        chebotarev_scan(order, max_size)


def test_scan_limit_bounds_the_minor_count(monkeypatch):
    # order 5 to size 3 visits the row sets that hold row 0 and walks the
    # column sets that hold column 0, C(4, s - 1) of each size s: 1 * 1 +
    # 4 * 4 + 6 * 6 minors
    monkeypatch.setattr(exactverify, "MAX_SCAN_MINORS", 53)
    assert chebotarev_scan(5, 3).clean
    monkeypatch.setattr(exactverify, "MAX_SCAN_MINORS", 52)
    with pytest.raises(ValueError, match="needs 53 minors"):
        chebotarev_scan(5, 3)


@pytest.mark.parametrize(
    "order, max_size, size",
    # 16 stops at size 9 by the minor count, 24 and 43 by the bytes; at
    # size 1 the n x n matrix and its image reach the limit past the prime
    # 5783, and a composite order's reduction modulo Phi_n past 4727
    ((4, 6, 4), (14, 6, 6), (16, 8, 8), (16, 10, 9), (17, 6, 6), (24, 6, 5), (43, 6, 4),
     (400, 2, 2), (2000, 2, 2), (3276, 6, 1), (3343, 6, 1), (4727, 6, 1), (4728, 6, 0),
     (5783, 6, 1), (5791, 6, 0), (8193, 6, 0)),
)
def test_largest_scan_size_is_the_edge_of_reach(order, max_size, size):
    assert largest_scan_size(order, max_size) == size
    if size < min(order, max_size):
        with pytest.raises(ValueError, match="above the supported"):
            exactverify._check_scan_reach("", order, order, size + 1, from_row_zero=True)


def test_a_family_too_large_to_hold_is_refused_before_its_matrix():
    # 2^16 at k=32769: 2.1G entries, about 100 GB at the exact stage's 48
    # bytes an entry; validation admits it, the matrix bound does not
    params = make_params(n=16, d=2, num_vectors=32769)
    for build in (verify_all_bipartitions, build_nupb):
        with pytest.raises(ValueError, match="2147549184 entries, above the supported 11184810"):
            build(params)
    # every shape CI and the README run stays in reach, up to 2^12 at k=2049
    assert 513 * 2**10 < 2049 * 2**12 <= partition.MAX_MATRIX_ENTRIES < 4097 * 2**13


def test_the_matrix_bound_counts_the_entries(monkeypatch):
    params = make_params(n=3, d=2, num_vectors=5)
    monkeypatch.setattr(partition, "MAX_MATRIX_ENTRIES", 40)
    assert verify_all_bipartitions(params).passed
    monkeypatch.setattr(partition, "MAX_MATRIX_ENTRIES", 39)
    with pytest.raises(ValueError, match="a 5 x 8 coefficient matrix has 40 entries"):
        verify_all_bipartitions(params)
