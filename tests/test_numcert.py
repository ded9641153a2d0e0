"""Numerical certification: alternating searches, bases, Schmidt sampling."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from gesforge import numcert
from gesforge.construct import GaussianRational, exponent_table, make_params
from gesforge.exactverify import rank_full
from gesforge.numcert import (
    MAX_SEARCH_BYTES,
    MAX_SWEEPS,
    THRESHOLD,
    TOL,
    GesBasis,
    OptimizerOptions,
    certify_ges_numeric,
    family_operator,
    ges_basis,
    max_product_overlap,
    min_biproduct_value,
    sample_ges_state,
    schmidt_coefficients,
)
from gesforge.numcert import (
    _BETA_MAX,
    _BETA_START,
    _COLD_SWEEPS,
    _EXTRAPOLATE_EVERY,
    _alternating_extremum,
    _extrapolated,
    _grouped_operator,
    _inverse_step,
    _search_bytes,
    _start_factors,
)
from gesforge.partition import Bipartition, build_nupb, coefficient_matrix, enumerate_bipartitions

from .oracles import (
    alternating_extremum_reference,
    max_overlap_grid,
    min_biproduct_grid,
    schmidt_by_reduced_density,
)

QUICK = OptimizerOptions(restarts=12, seed=0)


def control_rows():
    """The extendible set {|000>, |001>, |010>, |011>} = |0> (x) anything."""
    return np.eye(4, 8, dtype=complex)


def control_family_operator():
    rows = control_rows()
    return rows.T @ rows.conj()


def qubit_first_grouping(operator, dims, cut):
    grouped, d_left, d_right = _grouped_operator(operator, dims, cut)
    if d_left != 2:
        assert d_right == 2
        grouped = grouped.transpose(1, 0, 3, 2)
    return grouped


def test_options_defaults():
    opts = OptimizerOptions()
    assert opts.restarts == 50
    assert opts.seed == 0
    doc = opts.to_doc()
    assert doc["tol"] == TOL == 1e-12
    assert doc["threshold"] == THRESHOLD == 1e-6
    assert MAX_SWEEPS == doc["max_sweeps"] == 500


@pytest.mark.parametrize(
    "bad",
    (
        {"restarts": 0},
        {"restarts": -3},
    ),
)
def test_options_reject_bad_values(bad):
    name = next(iter(bad))
    with pytest.raises(ValueError, match=name):
        OptimizerOptions(**bad)


# -- the family operator --------------------------------------------------------


def test_family_operator_shape_and_trace():
    p = make_params(n=3, d=2, num_vectors=5)
    G = family_operator(build_nupb(p))
    assert G.shape == (8, 8)
    np.testing.assert_allclose(G, G.conj().T, atol=1e-14)
    assert np.trace(G).real == pytest.approx(5.0, abs=1e-12)
    eigs = np.linalg.eigvalsh(G)
    assert eigs[0] > -1e-12


def test_coefficient_rows_normalization():
    # the rows come unnormalized (norm sqrt(D)); the operator normalizes each
    p = make_params(n=3, d=2, num_vectors=5)
    rows = build_nupb(p)
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), np.sqrt(8), atol=1e-12)
    unit = rows / np.sqrt(8)
    np.testing.assert_allclose(family_operator(rows), unit.T @ unit.conj(), atol=1e-14)
    rescaled = rows * np.array([2.0, 1j, 0.5, 3.0, -1.0])[:, None]
    np.testing.assert_allclose(family_operator(rescaled), family_operator(rows), atol=1e-14)


# -- biproduct minimum ------------------------------------------------------------


def test_identity_operator_minimum_is_one():
    for cut in enumerate_bipartitions(3):
        s = min_biproduct_value(np.eye(8, dtype=complex), (2, 2, 2), cut, QUICK)
        assert s.value == pytest.approx(1.0, abs=1e-10)


def test_non_hermitian_rejected():
    op = np.eye(8, dtype=complex)
    op[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        min_biproduct_value(op, (2, 2, 2), Bipartition(3, (0,)), QUICK)


def test_extendible_control_hits_zero_with_product_witness():
    G = control_family_operator()
    cut = Bipartition(3, (0,))
    s = min_biproduct_value(G, (2, 2, 2), cut, QUICK)
    assert s.value < 1e-10
    # the achieving state is |1> on the first party, up to phase
    assert abs(s.left[1]) == pytest.approx(1.0, abs=1e-6)
    assert abs(s.left[0]) < 1e-6
    # and the assembled witness annihilates the span: <x|G|x> ~ 0
    assert np.real(s.witness.conj() @ G @ s.witness) < 1e-10


def test_standard_family_minimum_clears_threshold():
    p = make_params(n=3, d=2, num_vectors=5)
    cert = certify_ges_numeric(build_nupb(p), p.dims, OptimizerOptions(restarts=50, seed=0))
    assert cert.passed
    assert cert.min_value > 1e-6
    assert len(cert.outcomes) == 3
    for outcome in cert.outcomes:
        assert outcome.converged
        assert outcome.value > 1e-6
    doc = cert.to_doc()
    assert doc["passed"] is True
    assert len(doc["bipartitions"]) == 3


def test_certificate_fails_on_extendible_family():
    cert = certify_ges_numeric(control_rows(), (2, 2, 2), QUICK)
    assert not cert.passed
    assert cert.min_value < 1e-10


def test_monotone_descent_within_restart(monkeypatch):
    # with one restart each half step solves a stack of one, by eigh in the
    # cold sweeps and by one inverse-iteration step after them; either
    # returns the objective after that half step, and every second call
    # closes a sweep.  Every _EXTRAPOLATE_EVERY-th warm sweep after the
    # first warm one then evaluates one extrapolated pair of factors; the
    # search keeps it where it lowers the value, and the next sweep starts
    # from it, so that sweep's right half step solves from the kept right
    # factor.  The 2^3 cut converges in a few sweeps and keeps no try; the
    # 4|3 cut of 2x2x3 k=7 crawls without them and keeps some
    events = []

    def spy(step, path):
        def recorded(*args):
            values, vectors = step(*args)
            previous = args[1].copy() if path == "warm" else None
            events.append((path, float(values[0]), previous))
            return values, vectors
        return recorded

    def trial_spy(eff, vectors, product_values=numcert._product_values):
        values = product_values(eff, vectors)
        events.append(("try", float(values[0]), vectors[0].copy()))
        return values

    monkeypatch.setattr(numcert, "_eigen_step", spy(numcert._eigen_step, "cold"))
    monkeypatch.setattr(numcert, "_inverse_step", spy(numcert._inverse_step, "warm"))
    monkeypatch.setattr(numcert, "_product_values", trial_spy)
    kept_somewhere = []
    for dims, k, members, seed in (((2, 2, 2), 5, (0,), 11), ((2, 2, 3), 7, (0, 1), 5)):
        G = family_operator(build_nupb(make_params(dims=dims, num_vectors=k)))
        events.clear()
        s = min_biproduct_value(G, dims, Bipartition(3, members), OptimizerOptions(restarts=1, seed=seed))
        steps = [(path, value) for path, value, _ in events if path != "try"]
        paths = [path for path, _ in steps]
        assert len(paths) == 2 * s.sweeps
        assert paths[:2 * _COLD_SWEEPS] == ["cold"] * (2 * _COLD_SWEEPS)
        assert paths[2 * _COLD_SWEEPS:] == ["warm"] * (2 * (s.sweeps - _COLD_SWEEPS)) != []
        # a try closes each sweep j (0-based) past the first warm one with
        # j - _COLD_SWEEPS a multiple of _EXTRAPOLATE_EVERY, the last sweep too
        tried = [
            j for j in range(s.sweeps)
            if j > _COLD_SWEEPS and (j - _COLD_SWEEPS) % _EXTRAPOLATE_EVERY == 0
        ]
        closed, half_steps = [], 0
        for path, _, _ in events:
            if path == "try":
                closed.append(half_steps // 2 - 1)
            else:
                half_steps += 1
        assert closed == tried != []
        # the values the search holds: every half step's, and each kept try's
        held, kept = [], []
        for index, (path, value, vector) in enumerate(events):
            if path != "try":
                held.append(value)
                continue
            later = [previous for p, _, previous in events[index + 1:] if p == "warm"][:2]
            if len(later) == 2 and np.array_equal(later[1][0], vector):
                assert value < held[-1]
                held.append(value)
                kept.append(value)
        assert (np.diff(held) <= 1e-12).all()
        assert steps[-1][1] == s.value
        kept_somewhere.append(bool(kept))
    assert kept_somewhere == [False, True]


@pytest.mark.parametrize("dim", (2, 9))
def test_inverse_step_on_degenerate_stacks(dim):
    # an all-zero operator (every factor is optimal, value 0) and a
    # rank-one one (value 0 on its null space); neither may overflow nor
    # hit a singular solve, and both must return unit factors
    rng = np.random.default_rng(dim)
    draw = rng.standard_normal((2, 2, dim))
    previous = draw[:, 0] + 1j * draw[:, 1]
    previous /= np.linalg.norm(previous, axis=1, keepdims=True)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    stack = np.zeros((2, dim, dim), dtype=complex)
    stack[1] = np.outer(v, v.conj())
    rank_one = stack[1].copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, factors = _inverse_step(stack, previous)
    np.testing.assert_allclose(np.linalg.norm(factors, axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.isfinite(values).all()
    assert abs(values[0]) <= 1e-12
    # the rank-one step lands on v's orthogonal complement, whose value is 0
    assert abs(values[1]) <= 1e-9 * np.trace(rank_one).real
    direct = np.real(factors[1].conj() @ rank_one @ factors[1])
    assert values[1] == pytest.approx(direct, abs=1e-12 * np.trace(rank_one).real)


def test_extrapolated_factors_are_unit_rows():
    # a unit row moved past itself by beta (row - held) has norm at least
    # one, even when the held row points the opposite way, so the
    # normalisation neither divides by zero nor overflows
    rng = np.random.default_rng(4)
    draw = rng.standard_normal((2, 4, 2, 5))
    factors, held = draw[:, :, 0] + 1j * draw[:, :, 1]
    factors /= np.linalg.norm(factors, axis=1, keepdims=True)
    held /= np.linalg.norm(held, axis=1, keepdims=True)
    held[0] = -factors[0]
    betas = np.array([0.0, 1e-30, _BETA_START, _BETA_MAX])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moved = _extrapolated(factors, held, betas)
    np.testing.assert_allclose(np.linalg.norm(moved, axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(moved[0], factors[0])
    np.testing.assert_allclose(moved[1], factors[1], rtol=0, atol=1e-15)


def test_seed_determinism_bit_exact():
    p = make_params(n=3, d=2, num_vectors=5)
    rows = build_nupb(p)
    a = certify_ges_numeric(rows, p.dims, OptimizerOptions(restarts=7, seed=123))
    b = certify_ges_numeric(rows, p.dims, OptimizerOptions(restarts=7, seed=123))
    assert [o.value for o in a.outcomes] == [o.value for o in b.outcomes]
    for x, y in zip(a.outcomes, b.outcomes):
        np.testing.assert_array_equal(x.witness, y.witness)


def test_restarts_agreeing_counts_restarts_at_the_best_value():
    p = make_params(n=2, d=2, num_vectors=3)
    G = family_operator(build_nupb(p))
    cut = Bipartition(2, (0,))
    opts = OptimizerOptions(restarts=50, seed=0)
    s = min_biproduct_value(G, (2, 2), cut, opts)
    assert opts.restarts // 2 < s.restarts_agreeing <= opts.restarts
    cert = certify_ges_numeric(build_nupb(p), p.dims, opts)
    assert cert.outcomes[0].restarts_agreeing == s.restarts_agreeing
    assert cert.to_doc()["bipartitions"][0]["restarts_agreeing"] == s.restarts_agreeing


def test_fewer_restarts_draw_a_prefix_of_the_same_starts():
    # restart r reads block r of its cut's stream, whatever the restart count
    np.testing.assert_array_equal(_start_factors(3, (0, 1), 7, 9), _start_factors(3, (0, 1), 50, 9)[:7])
    p = make_params(n=3, d=2, num_vectors=5)
    G = family_operator(build_nupb(p))
    few, many = OptimizerOptions(restarts=7, seed=3), OptimizerOptions(restarts=50, seed=3)
    for index, cut in enumerate(enumerate_bipartitions(3)):
        grouped, _, _ = _grouped_operator(G, (2, 2, 2), cut)
        head = _alternating_extremum([grouped], few, [(0, index)])[0][5]
        tail = _alternating_extremum([grouped], many, [(0, index)])[0][5]
        # the same seven runs; a larger stack moves their values by rounding only
        np.testing.assert_allclose(tail[:7], head, rtol=0, atol=TOL)
        low = min_biproduct_value(G, (2, 2, 2), cut, few).value
        assert min_biproduct_value(G, (2, 2, 2), cut, many).value <= low + TOL


SHARED_SHAPES = (((3, 3, 3), 12), ((2, 2, 2, 2), 10), ((2, 2, 3), 8))


def assert_certificate_matches_single_cuts(rows, dims, opts):
    cert = certify_ges_numeric(rows, dims, opts)
    G = family_operator(rows)
    for cut, outcome in zip(enumerate_bipartitions(len(dims)), cert.outcomes):
        alone = min_biproduct_value(G, dims, cut, opts)
        assert outcome.value == alone.value, cut.label()
        np.testing.assert_array_equal(outcome.witness, alone.witness)
        assert (outcome.sweeps, outcome.converged, outcome.restarts_agreeing) == (
            alone.sweeps, alone.converged, alone.restarts_agreeing
        )
    return cert


@pytest.mark.parametrize(
    "dims,k", SHARED_SHAPES, ids=[f"{'x'.join(map(str, d))}-k{k}" for d, k in SHARED_SHAPES]
)
def test_certificate_cuts_match_the_single_cut_search_bit_for_bit(dims, k):
    # the three cuts of 3x3x3 share one search; 2^4 has one 1|3 cut and
    # three each of 2|2 and 3|1; 2x2x3 has three shapes of one cut each
    rows = build_nupb(make_params(dims=dims, num_vectors=k))
    assert_certificate_matches_single_cuts(rows, dims, OptimizerOptions(seed=3))


def test_cuts_of_a_shape_split_into_batches_under_the_byte_bound(monkeypatch):
    # room for two of the three 3|1 cuts of 2^4 (8x2, the largest shape):
    # they run as two searches
    rows = build_nupb(make_params(dims=(2, 2, 2, 2), num_vectors=10))
    opts = OptimizerOptions(seed=3)
    whole = certify_ges_numeric(rows, (2, 2, 2, 2), opts)
    monkeypatch.setattr(numcert, "MAX_SEARCH_BYTES", 2 * _search_bytes(opts.restarts, 8, 2))
    stacks = []

    def spy(groupeds, *args):
        stacks.append(len(groupeds))
        return _alternating_extremum(groupeds, *args)

    monkeypatch.setattr(numcert, "_alternating_extremum", spy)
    split = certify_ges_numeric(rows, (2, 2, 2, 2), opts)
    assert sorted(stacks) == [1, 1, 2, 3]
    assert [o.value for o in split.outcomes] == [o.value for o in whole.outcomes]
    for a, b in zip(split.outcomes, whole.outcomes):
        np.testing.assert_array_equal(a.witness, b.witness)


def test_restart_count_past_the_byte_bound_is_refused():
    G = family_operator(build_nupb(make_params(n=2, d=2, num_vectors=3)))
    restarts = MAX_SEARCH_BYTES // _search_bytes(1, 2, 2) + 1
    with pytest.raises(ValueError, match="use fewer restarts"):
        min_biproduct_value(G, (2, 2), Bipartition(2, (0,)), OptimizerOptions(restarts=restarts))
    with pytest.raises(ValueError, match="use fewer restarts"):
        certify_ges_numeric(np.eye(3, 4, dtype=complex), (2, 2), OptimizerOptions(restarts=10**8))


def test_witness_state_is_unit_biproduct():
    p = make_params(n=3, d=2, num_vectors=5)
    G = family_operator(build_nupb(p))
    for cut in enumerate_bipartitions(3):
        s = min_biproduct_value(G, (2, 2, 2), cut, QUICK)
        assert np.linalg.norm(s.witness) == pytest.approx(1.0, abs=1e-12)
        coeffs = schmidt_coefficients(s.witness, (2, 2, 2), cut)
        assert coeffs[1] < 1e-10  # exactly one Schmidt term: biproduct
        direct = float(np.real(s.witness.conj() @ G @ s.witness))
        assert direct == pytest.approx(s.value, abs=1e-10)


# -- the stacked search against the one-restart-at-a-time reference ----------------


STACKED_FAMILIES = (
    ((2, 2), 3),
    ((2, 2, 2), 5),
    ((2, 2, 2), 6),
    ((2, 2, 2), 7),
    ((2, 2, 3), 7),
    ((2, 2, 3), 9),
    ((2, 2, 2, 2), 9),
    ((3, 3, 3), 11),
    ((3, 3, 3), 13),
    ((2, 3, 3), 11),
)


def assert_stacked_matches_reference(operator, dims, minimize, opts):
    # the package only minimises: a maximum on P is 1 minus the minimum on
    # 1 - P, from the same stream, and the reference maximises P itself
    searched = operator if minimize else np.eye(len(operator)) - operator
    for index, cut in enumerate(enumerate_bipartitions(len(dims))):
        grouped, _, _ = _grouped_operator(operator, dims, cut)
        stream = (0, index)
        low = _alternating_extremum([_grouped_operator(searched, dims, cut)[0]], opts, [stream])
        got = low[0][0] if minimize else 1 - low[0][0]
        want = alternating_extremum_reference(grouped, minimize, opts, stream)[0]
        assert abs(got - want) <= 1e-12 + 1e-6 * abs(want), (dims, cut.label(), got, want)


@pytest.mark.parametrize(
    "dims,k", STACKED_FAMILIES, ids=[f"{'x'.join(map(str, d))}-k{k}" for d, k in STACKED_FAMILIES]
)
def test_stacked_search_matches_reference(dims, k):
    rows = build_nupb(make_params(dims=dims, num_vectors=k))
    opts = OptimizerOptions(seed=5)
    assert_stacked_matches_reference(family_operator(rows), dims, True, opts)
    basis = ges_basis(rows, dims, exact_rank=k)
    projector = basis.columns @ basis.columns.conj().T
    assert_stacked_matches_reference(projector, dims, False, opts)


def test_stacked_search_matches_reference_on_the_extendible_control():
    G = control_family_operator()
    opts = OptimizerOptions(seed=5)
    assert_stacked_matches_reference(G, (2, 2, 2), True, opts)
    projector = np.eye(8) - G  # G projects onto the span of the four basis states
    assert_stacked_matches_reference(projector, (2, 2, 2), False, opts)


def test_extrapolation_shortens_a_slow_cut():
    # the 4|3 cut of 2x2x3 k=7 creeps along a shallow valley: plain
    # alternating sweeps, as the reference runs them, need over a hundred
    # sweeps on the best restart; the extrapolated steps reach the same
    # minimum in a fraction of them
    dims = (2, 2, 3)
    G = family_operator(build_nupb(make_params(dims=dims, num_vectors=7)))
    cut = Bipartition(3, (0, 1))
    opts = OptimizerOptions(seed=5)
    stream = (0, enumerate_bipartitions(3).index(cut))
    grouped, _, _ = _grouped_operator(G, dims, cut)
    want, _, _, plain_sweeps, _ = alternating_extremum_reference(grouped, True, opts, stream)
    s = min_biproduct_value(G, dims, cut, opts)
    assert plain_sweeps >= 100
    assert s.converged and s.sweeps <= plain_sweeps // 2
    assert abs(s.value - want) <= 1e-12 + 1e-6 * abs(want)


# -- grid-oracle agreement ---------------------------------------------------------


def test_minimum_matches_grid_oracle_two_qubits():
    p = make_params(n=2, d=2, num_vectors=3)
    G = family_operator(build_nupb(p))
    cut = Bipartition(2, (0,))
    s = min_biproduct_value(G, (2, 2), cut, OptimizerOptions(restarts=30, seed=0))
    grouped = qubit_first_grouping(G, (2, 2), cut)
    oracle = min_biproduct_grid(grouped)
    assert s.value == pytest.approx(oracle, abs=1e-6)


def test_minimum_matches_grid_oracle_three_qubits():
    p = make_params(n=3, d=2, num_vectors=5)
    G = family_operator(build_nupb(p))
    for cut in enumerate_bipartitions(3):
        s = min_biproduct_value(G, (2, 2, 2), cut, OptimizerOptions(restarts=30, seed=0))
        grouped = qubit_first_grouping(G, (2, 2, 2), cut)
        oracle = min_biproduct_grid(grouped)
        assert s.value == pytest.approx(oracle, abs=1e-6), cut.label()


def test_ghz_overlap_is_half():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    basis = GesBasis(dims=(2, 2, 2), columns=ghz[:, None], residual_max=0.0,
                     orthonormality_error=0.0)
    for cut in enumerate_bipartitions(3):
        s = max_product_overlap(basis, cut, OptimizerOptions(restarts=20, seed=0))
        assert s.value == pytest.approx(0.5, abs=1e-6)
        grouped = qubit_first_grouping(ghz[:, None] @ ghz[None, :].conj(), (2, 2, 2), cut)
        assert max_overlap_grid(grouped) == pytest.approx(0.5, abs=1e-6)


def test_duality_on_positive_and_negative_controls():
    # positive: the standard family's complement holds no biproduct state
    p = make_params(n=3, d=2, num_vectors=5)
    rows = build_nupb(p)
    basis = ges_basis(rows, p.dims, exact_rank=5)
    G = family_operator(rows)
    for cut in enumerate_bipartitions(3):
        low = min_biproduct_value(G, (2, 2, 2), cut, QUICK)
        high = max_product_overlap(basis, cut, QUICK)
        assert low.value > 1e-6
        assert high.value < 1 - 1e-6

    # negative: the extendible control's complement contains |1>|x>|y>
    control_basis = ges_basis(control_rows(), (2, 2, 2), exact_rank=4)
    cut = Bipartition(3, (0,))
    low = min_biproduct_value(control_family_operator(), (2, 2, 2), cut, QUICK)
    high = max_product_overlap(control_basis, cut, QUICK)
    assert low.value < 1e-10
    assert high.value > 1 - 1e-10


def test_overlap_is_one_minus_the_minimum_on_the_complement_bit_for_bit():
    # one search direction: the overlap search is the minimum search on
    # 1 - P, read from the same stream, witness and counts included
    for dims, k in (((2, 2, 2), 5), ((2, 2, 3), 8)):
        rows = build_nupb(make_params(dims=dims, num_vectors=k))
        basis = ges_basis(rows, dims, exact_rank=k)
        complement = np.eye(len(rows[0])) - basis.columns @ basis.columns.conj().T
        for cut in enumerate_bipartitions(len(dims)):
            high = max_product_overlap(basis, cut, QUICK)
            low = min_biproduct_value(complement, dims, cut, QUICK)
            assert high.value == 1 - low.value
            np.testing.assert_array_equal(high.witness, low.witness)
            assert (high.sweeps, high.converged, high.restarts_agreeing) == (
                low.sweeps, low.converged, low.restarts_agreeing
            )


# -- the complement basis ------------------------------------------------------------


def test_basis_dimension_and_residuals():
    p = make_params(n=3, d=2, num_vectors=5)
    rows = build_nupb(p)
    basis = ges_basis(rows, p.dims, exact_rank=5)
    assert basis.dimension == 3
    assert basis.columns.shape == (8, 3)
    assert basis.residual_max < 1e-10
    assert basis.orthonormality_error < 1e-10


def test_basis_one_dimensional_complement():
    p = make_params(n=3, d=2, num_vectors=7)
    basis = ges_basis(build_nupb(p), p.dims, exact_rank=7)
    assert basis.dimension == 1


def test_basis_exact_rank_mismatch_is_pathology():
    p = make_params(n=3, d=2, num_vectors=5)
    rows = build_nupb(p)
    with pytest.raises(ValueError, match="pathology"):
        ges_basis(rows, p.dims, exact_rank=4)


def _copied_row_family():
    # 3x3x3 k=11 with row 0 copied over row 10: exact rank 10
    params = make_params(n=3, d=3, num_vectors=11)
    table = [[list(loc) for loc in row] for row in exponent_table(params)]
    table[10] = table[0]
    return params, table


REFERENCE_FAMILIES = {
    "3x3x3-k11": (make_params(n=3, d=3, num_vectors=11), None),
    "3x3-k5-scaled": (
        make_params(n=2, d=3, num_vectors=5, scales=(
            (complex(1e6), 1, 1),
            (GaussianRational(Fraction(3, 2), Fraction(-1, 3)), 1, complex(0.5, 2)),
        )),
        None,
    ),
    "3x3x3-k11-copied-row": _copied_row_family(),
}


@pytest.mark.parametrize("name", REFERENCE_FAMILIES)
def test_basis_matches_scipy_null_space(name):
    # scipy's null_space is the reference: the same SVD, with the floating
    # rank read off the singular values rather than taken from the exact stage
    params, table = REFERENCE_FAMILIES[name]
    rows = build_nupb(params, table)
    _, exact_rank, _ = rank_full(coefficient_matrix(params, table))
    basis = ges_basis(rows, params.dims, exact_rank=exact_rank)
    reference = null_space(rows)
    assert basis.columns.shape == reference.shape
    np.testing.assert_allclose(
        basis.columns @ basis.columns.conj().T, reference @ reference.conj().T, rtol=0, atol=1e-12
    )


# -- sampling and Schmidt coefficients -------------------------------------------------


def test_sampled_states_live_in_complement():
    p = make_params(n=3, d=2, num_vectors=5)
    rows = build_nupb(p)
    basis = ges_basis(rows, p.dims, exact_rank=5)
    for seed in range(5):
        state = sample_ges_state(basis, seed=seed)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rows @ state).max() < 1e-10


def test_sample_seed_reproducible():
    p = make_params(n=3, d=2, num_vectors=5)
    basis = ges_basis(build_nupb(p), p.dims, exact_rank=5)
    np.testing.assert_array_equal(sample_ges_state(basis, 9), sample_ges_state(basis, 9))


def test_ghz_schmidt_coefficients():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    for cut in enumerate_bipartitions(3):
        coeffs = schmidt_coefficients(ghz, (2, 2, 2), cut)
        np.testing.assert_allclose(coeffs[:2], [2**-0.5, 2**-0.5], atol=1e-12)


def test_schmidt_squares_sum_to_one():
    p = make_params(n=3, d=2, num_vectors=5)
    basis = ges_basis(build_nupb(p), p.dims, exact_rank=5)
    state = sample_ges_state(basis, seed=4)
    for cut in enumerate_bipartitions(3):
        coeffs = schmidt_coefficients(state, (2, 2, 2), cut)
        assert float(np.sum(coeffs**2)) == pytest.approx(1.0, abs=1e-10)


@given(st.integers(0, 2**31 - 1), st.sampled_from([(2, 4), (4, 2), (2, 2, 2), (2, 3)]))
@settings(max_examples=25)
def test_schmidt_matches_reduced_density_oracle(seed, dims):
    rng = np.random.default_rng(seed)
    total = int(np.prod(dims))
    state = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    state /= np.linalg.norm(state)
    for cut in enumerate_bipartitions(len(dims)):
        coeffs = schmidt_coefficients(state, dims, cut)
        d_left = int(np.prod([dims[m] for m in cut.members]))
        perm = list(cut.members) + list(cut.complement)
        reordered = state.reshape(dims).transpose(perm).reshape(-1)
        oracle = schmidt_by_reduced_density(reordered, d_left, total // d_left)
        # the density route reports d_left values; beyond the Schmidt rank
        # bound they must vanish (up to sqrt of eigenvalue noise)
        np.testing.assert_allclose(coeffs, oracle[: len(coeffs)], atol=1e-7)
        np.testing.assert_allclose(oracle[len(coeffs):], 0.0, atol=1e-7)


def test_samples_from_standard_family_look_entangled():
    p = make_params(n=3, d=2, num_vectors=5)
    basis = ges_basis(build_nupb(p), p.dims, exact_rank=5)
    worst = 1.0
    for seed in range(20):
        state = sample_ges_state(basis, seed=seed)
        for cut in enumerate_bipartitions(3):
            worst = min(worst, schmidt_coefficients(state, (2, 2, 2), cut)[1])
    assert worst > 1e-8
