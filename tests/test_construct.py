"""Family construction: parameters, exponent tables, vectors, JSON forms."""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesforge.construct import (
    ConstructionParams,
    GaussianRational,
    exponent_table,
    is_standard_table,
    make_params,
    mixed_radix_weights,
    params_from_json,
    params_to_json,
    scale_from_json,
    scale_to_json,
    smallest_prime_geq,
    validate_exponent_table,
    validate_params,
    vectors_from_doc,
    vectors_to_doc,
)
from gesforge.partition import build_nupb, enumerate_bipartitions

from .oracles import float_bits, pair_families

# the three-qubit family: party exponents (4i, 2i, i) modulo 11
THREE_QUBIT_TABLE = [
    [[0, 0], [0, 0], [0, 0]],
    [[0, 4], [0, 2], [0, 1]],
    [[0, 8], [0, 4], [0, 2]],
    [[0, 1], [0, 6], [0, 3]],
    [[0, 5], [0, 8], [0, 4]],
]


def test_smallest_prime_geq_frozen_values():
    assert smallest_prime_geq(2) == 2
    assert smallest_prime_geq(6) == 7
    assert smallest_prime_geq(8) == 11
    assert smallest_prime_geq(9) == 11
    assert smallest_prime_geq(16) == 17
    assert smallest_prime_geq(27) == 29


def test_mixed_radix_weights():
    assert mixed_radix_weights((2, 2, 2)) == (4, 2, 1)
    assert mixed_radix_weights((2, 3)) == (3, 1)
    assert mixed_radix_weights((3, 2, 2)) == (4, 2, 1)
    assert mixed_radix_weights((2, 2, 3)) == (6, 3, 1)


# -- parameters ---------------------------------------------------------------


def test_make_params_uniform():
    p = make_params(n=3, d=2, num_vectors=5)
    assert p.dims == (2, 2, 2)
    assert p.root_order == 11
    assert p.total_dim == 8
    assert p.complement_dim == 3
    assert p.min_vectors == 5
    assert p.max_vectors == 7
    assert p.is_max_complement
    assert validate_params(p) == []


def test_make_params_heterogeneous():
    p = make_params(dims=(2, 3), num_vectors=4)
    assert p.root_order == 7
    assert p.min_vectors == 4
    assert p.max_complement_dim == 2
    assert validate_params(p) == []


def test_make_params_requires_shape():
    with pytest.raises(ValueError):
        make_params(num_vectors=5)
    with pytest.raises(ValueError):
        make_params(n=3, num_vectors=5)
    with pytest.raises(ValueError):
        make_params(dims=(2, 2), n=3, num_vectors=3)
    with pytest.raises(ValueError):
        make_params(dims=(2, 3), d=2, num_vectors=4)
    with pytest.raises(ValueError):
        make_params(n=3, d=2)


def test_make_params_skips_the_prime_search_past_the_root_order_limit():
    # a default order past MAX_ROOT_ORDER is refused anyway, so no prime is
    # searched for by trial division, which takes seconds from 2^56 on
    start = time.perf_counter()
    p = make_params(n=56, d=2, num_vectors=3)
    assert time.perf_counter() - start < 0.5
    assert p.root_order == 2**56
    assert any("exceeds the supported" in s for s in validate_params(p))
    assert make_params(n=20, d=2, num_vectors=3).root_order == smallest_prime_geq(2**20)


def test_validate_rejects_composite_order():
    p = ConstructionParams(dims=(2, 2, 2), num_vectors=5, root_order=8)
    problems = validate_params(p)
    assert any("not prime" in s for s in problems)


def test_validate_rejects_small_order():
    p = ConstructionParams(dims=(2, 2, 2), num_vectors=5, root_order=7)
    problems = validate_params(p)
    assert any("below the total dimension" in s for s in problems)


def test_validate_rejects_vector_count_bounds():
    low = ConstructionParams(dims=(2, 2, 2), num_vectors=4, root_order=11)
    assert any("at least 5" in s for s in validate_params(low))
    high = ConstructionParams(dims=(2, 2, 2), num_vectors=8, root_order=11)
    assert any("at most 7" in s for s in validate_params(high))


def test_validate_rejects_degenerate_shapes():
    single = ConstructionParams(dims=(4,), num_vectors=2, root_order=5)
    assert any("two parties" in s for s in validate_params(single))
    trivial = ConstructionParams(dims=(2, 1), num_vectors=2, root_order=3)
    assert any("at least 2" in s for s in validate_params(trivial))


def test_validate_scale_shapes():
    good = tuple((GaussianRational(1),) * 2 for _ in range(3))
    p = ConstructionParams(dims=(2, 2, 2), num_vectors=5, root_order=11, scales=good)
    assert validate_params(p) == []
    assert p.scales_exact

    short = (good[0], good[1])
    p = ConstructionParams(dims=(2, 2, 2), num_vectors=5, root_order=11, scales=short)
    assert any("one row per party" in s for s in validate_params(p))

    zero = ((GaussianRational(1), GaussianRational(0)),) + good[1:]
    p = ConstructionParams(dims=(2, 2, 2), num_vectors=5, root_order=11, scales=zero)
    assert any("is zero" in s for s in validate_params(p))


def test_float_scales_flagged_inexact():
    scales = ((1 + 0j, 0.5 + 0.1j), (1 + 0j, 1 + 0j), (1 + 0j, 1 + 0j))
    p = ConstructionParams(dims=(2, 2, 2), num_vectors=5, root_order=11, scales=scales)
    assert validate_params(p) == []
    assert not p.scales_exact


def test_min_vectors_is_worst_cut():
    # (2,2,2,2): the 8|2 cuts demand 8+2-1 = 9
    p = make_params(n=4, d=2, num_vectors=9)
    assert p.min_vectors == 9
    # (3,3,3): 9|3 cuts demand 11
    p = make_params(n=3, d=3, num_vectors=11)
    assert p.min_vectors == 11
    assert p.root_order == 29


@given(st.lists(st.integers(2, 5), min_size=2, max_size=5))
def test_min_vectors_matches_every_canonical_cut(dims):
    # verify_all_bipartitions relies on this: validation's lower bound leaves
    # no canonical cut short of D_S + D_Sbar - 1 vectors
    p = ConstructionParams(dims=tuple(dims), num_vectors=1, root_order=2)
    demands = [
        math.prod(dims[m] for m in cut.members) + math.prod(dims[m] for m in cut.complement) - 1
        for cut in enumerate_bipartitions(len(dims))
    ]
    assert p.min_vectors == max(demands)


def min_vectors_by_every_mask(dims) -> int:
    """The worst demand D_S + D_Sbar - 1 over every proper nonempty party set S."""
    n = len(dims)
    worst = 0
    for mask in range(1, 2**n - 1):
        left = math.prod(dims[m] for m in range(n) if mask >> m & 1)
        worst = max(worst, left + math.prod(dims) // left - 1)
    return worst


@given(st.lists(st.integers(2, 7), min_size=2, max_size=6))
def test_min_vectors_matches_the_brute_force_walk(dims):
    # the closed form D // d_min + d_min - 1 against the walk over all
    # 2^n - 2 party sets it replaced
    p = ConstructionParams(dims=tuple(dims), num_vectors=1, root_order=2)
    assert p.min_vectors == min_vectors_by_every_mask(dims)


# -- exponent tables ----------------------------------------------------------


def test_three_qubit_table_is_golden():
    p = make_params(n=3, d=2, num_vectors=5)
    assert exponent_table(p) == THREE_QUBIT_TABLE


def test_table_rows_are_multiples_of_row_one():
    p = make_params(dims=(2, 3, 2), num_vectors=8)
    table = exponent_table(p)
    q = p.root_order
    for i in range(p.num_vectors):
        for m in range(3):
            for s in range(p.dims[m]):
                assert table[i][m][s] == i * table[1][m][s] % q
    assert all(e == 0 for loc in table[0] for e in loc)


@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 2, 3)]))
def test_table_shape_and_range(dims):
    total = int(np.prod(dims))
    k = min(total - 1, sum(dims))
    p = make_params(dims=dims, num_vectors=k)
    table = exponent_table(p)
    assert len(table) == k
    for row in table:
        assert len(row) == len(dims)
        for m, loc in enumerate(row):
            assert len(loc) == dims[m]
            assert all(0 <= e < p.root_order for e in loc)
            assert loc[0] == 0


def test_validate_exponent_table_catches_malformed():
    p = make_params(n=3, d=2, num_vectors=5)
    good = exponent_table(p)
    assert validate_exponent_table(p, good) == []
    assert validate_exponent_table(p, good[:-1])
    bad_party = [row[:-1] for row in good]
    assert validate_exponent_table(p, bad_party)
    bad_range = [[list(loc) for loc in row] for row in good]
    bad_range[1][0][1] = 11
    assert validate_exponent_table(p, bad_range)


# -- vectors ------------------------------------------------------------------


def doc_amplitudes(params):
    """Per vector, per party: the local amplitudes a vectors document records."""
    doc = vectors_to_doc(params)
    return [[np.array([complex(*z) for z in loc]) for loc in row] for row in doc["amplitudes"]]


def test_vectors_have_unit_modulus_amplitudes():
    p = make_params(n=3, d=2, num_vectors=5)
    np.testing.assert_allclose(np.abs(build_nupb(p)), 1.0, atol=1e-12)
    for row in doc_amplitudes(p):
        for local in row:
            np.testing.assert_allclose(np.abs(local), 1.0, atol=1e-12)


def test_amplitudes_are_kron_of_locals():
    for scales in (None, ((1, 0.5j), (2, 1 - 1j, -3))):
        p = make_params(dims=(2, 3), num_vectors=4, scales=scales)
        rows = build_nupb(p)
        for i, (first, second) in enumerate(doc_amplitudes(p)):
            np.testing.assert_allclose(rows[i], np.kron(first, second), atol=1e-14)


@pytest.mark.parametrize("name", sorted(pair_families()))
def test_amplitude_pairs_match_the_entry_by_entry_loop_bit_for_bit(name):
    params, table = pair_families()[name]
    factors = [np.array([complex(s) for s in row]) for row in params.scales or ()]

    def local_pairs(exponents, m):
        amps = np.array([cmath.exp(2j * cmath.pi * e / params.root_order) for e in exponents])
        return [[a.real, a.imag] for a in (amps * factors[m] if factors else amps)]

    expected = [[local_pairs(loc, m) for m, loc in enumerate(row)] for row in table]
    assert float_bits(vectors_to_doc(params, table)["amplitudes"]) == float_bits(expected)


def test_build_is_deterministic():
    p = make_params(n=3, d=2, num_vectors=5)
    np.testing.assert_array_equal(build_nupb(p), build_nupb(p))


def test_build_rejects_invalid_params():
    bad = ConstructionParams(dims=(2, 2, 2), num_vectors=5, root_order=8)
    with pytest.raises(ValueError, match="not prime"):
        build_nupb(bad)


def test_scaled_vectors_multiply_levels():
    scales = (
        (GaussianRational(1), GaussianRational(Fraction(3, 4))),
        (GaussianRational(1), GaussianRational(1)),
        (GaussianRational(1), GaussianRational(Fraction(0), Fraction(2))),
    )
    p = make_params(n=3, d=2, num_vectors=5, scales=scales)
    plain = make_params(n=3, d=2, num_vectors=5)
    scaled = doc_amplitudes(p)[2]
    unscaled = doc_amplitudes(plain)[2]
    np.testing.assert_allclose(scaled[0], unscaled[0] * np.array([1, 0.75]), atol=1e-14)
    np.testing.assert_allclose(scaled[2], unscaled[2] * np.array([1, 2j]), atol=1e-14)
    # the family matrix carries the same scales, column by column
    column_scales = np.kron(np.kron([1, 0.75], [1, 1]), [1, 2j])
    np.testing.assert_allclose(build_nupb(p), build_nupb(plain) * column_scales, atol=1e-14)


# -- JSON ----------------------------------------------------------------------


def test_params_json_round_trip():
    scales = ((GaussianRational(1), GaussianRational(Fraction(-1, 3), Fraction(2, 7))),
              (GaussianRational(1), GaussianRational(2)))
    p = make_params(dims=(2, 2), num_vectors=3, scales=scales)
    doc = params_to_json(p)
    assert doc["root_order"] == "5"
    back = params_from_json(doc)
    assert back == p
    assert back.scales[0][1] == GaussianRational(Fraction(-1, 3), Fraction(2, 7))


@given(
    st.builds(
        GaussianRational,
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    )
)
def test_scale_json_round_trip_exact(value):
    assert scale_from_json(scale_to_json(value)) == value


def test_scale_json_float_form():
    encoded = scale_to_json(0.5 + 0.25j)
    assert encoded == [0.5, 0.25]
    assert scale_from_json(encoded) == 0.5 + 0.25j
    assert scale_from_json("3/4") == GaussianRational(Fraction(3, 4))


@pytest.mark.parametrize(
    "part", (True, False, 0.1, 1.0, None, [1, 2]), ids=("true", "false", "0.1", "1.0", "null", "list")
)
def test_exact_scale_parts_are_rational_strings_or_ints(part):
    # a float part would be read as its binary value and echoed as exact
    assert scale_from_json({"re": 1, "im": "2/3"}) == GaussianRational(1, Fraction(2, 3))
    for doc in ({"re": part, "im": "0"}, {"re": "1", "im": part}):
        with pytest.raises(ValueError, match="rational string or an int"):
            scale_from_json(doc)


def test_vectors_doc_round_trip_standard():
    p = make_params(n=3, d=2, num_vectors=5)
    doc = vectors_to_doc(p)
    assert doc["schema"] == "gesforge/vectors"
    assert doc["provenance"] == "standard-recipe"
    assert doc["exponent_table"][1][0] == ["0", "4"]
    params, table, provenance = vectors_from_doc(doc)
    assert params == p
    assert table == THREE_QUBIT_TABLE
    assert provenance == "standard-recipe"


def test_vectors_doc_flags_user_table():
    p = make_params(n=3, d=2, num_vectors=5)
    table = [[list(loc) for loc in row] for row in exponent_table(p)]
    table[4][2][1] = 5
    doc = vectors_to_doc(p, table)
    assert doc["provenance"] == "user-supplied"
    # provenance is re-derived on load even if the file lies
    doc["provenance"] = "standard-recipe"
    _, _, provenance = vectors_from_doc(doc)
    assert provenance == "user-supplied"
    assert not is_standard_table(p, table)


def test_vectors_doc_checks_params_before_building_the_table(monkeypatch):
    import gesforge.construct as construct

    calls = []
    monkeypatch.setattr(construct, "exponent_table", lambda params: calls.append(params))
    with pytest.raises(ValueError, match="no room for a complement"):
        vectors_to_doc(make_params(n=2, d=2, num_vectors=200000))
    assert calls == []


def test_vectors_doc_rejects_wrong_schema():
    with pytest.raises(ValueError):
        vectors_from_doc({"schema": "gesforge/basis"})
