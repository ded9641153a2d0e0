"""Product-vector families read off prime-order discrete Fourier matrices.

Vector i of the family assigns party m the local state whose level-s
amplitude is scale[m][s] * w**exponent, with w a primitive root of unity
of prime order and exponent i*s*W_m modulo that order, where W_m is the
mixed-radix weight of party m.  Flattened, the family's coefficient
matrix is a row-and-column selection of the order-p Fourier matrix, whose
minors are all nonzero; that is what makes the span unextendible by
product vectors and its complement a candidate genuinely entangled
subspace.  Exponent tables are the exact source of truth everywhere;
floating amplitudes are derived views.  This module holds the parameters,
the tables, their validation and their JSON forms; the family itself, as
its K x D coefficient matrix, is built in `gesforge.partition`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclo import is_prime


class GaussianRational:
    """Exact complex scale a + b*i with rational a and b, as read from JSON.

    Scales are parsed, validated and echoed; no exact verdict reads them,
    because a nonzero column scale cannot change a rank or a minor's
    zero-ness.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("GaussianRational parts must be exact (int, Fraction, str)")
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({str(self.re)!r}, {str(self.im)!r})"


Scale = GaussianRational | complex


def smallest_prime_geq(x: int) -> int:
    n = max(2, int(x))
    while not is_prime(n):
        n += 1
    return n


def mixed_radix_weights(dims) -> tuple[int, ...]:
    """W_m = product of the local dimensions of the parties after m."""
    weights = []
    acc = 1
    for d in reversed(dims):
        weights.append(acc)
        acc *= d
    return tuple(reversed(weights))


@dataclass(frozen=True)
class ConstructionParams:
    """Family shape: local dimensions, member count, root order, scales.

    scales, when present, holds one exact or floating nonzero complex
    factor per party and level; the exact verdicts never read them.
    """

    dims: tuple[int, ...]
    num_vectors: int
    root_order: int
    scales: tuple[tuple[Scale, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if self.scales is not None:
            object.__setattr__(self, "scales", tuple(tuple(row) for row in self.scales))

    @property
    def num_parties(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def complement_dim(self) -> int:
        return self.total_dim - self.num_vectors

    @property
    def min_vectors(self) -> int:
        """Smallest family size supporting every bipartition's spanning demand.

        A cut needs at least D_S + D_Sbar - 1 members; take the worst cut.
        Every side has d_min <= D_S <= D / d_min, and D_S + D / D_S is
        largest at those two ends, which the cut around a party of dimension
        d_min reaches.  For n equal dimensions d this is d**(n-1) + d - 1.
        """
        return self.total_dim // min(self.dims) + min(self.dims) - 1

    @property
    def max_vectors(self) -> int:
        return self.total_dim - 1

    @property
    def max_complement_dim(self) -> int:
        return self.total_dim - self.min_vectors

    @property
    def is_max_complement(self) -> bool:
        return self.num_vectors == self.min_vectors

    @property
    def scales_exact(self) -> bool:
        if self.scales is None:
            return True
        return all(isinstance(s, GaussianRational) for row in self.scales for s in row)


# The exact stage builds a power table of root_order entries, and each zero
# proof runs through root_order - 1 embeddings: both grow linearly with the
# order, and primality is tested by trial division.
MAX_ROOT_ORDER = 2**20


def make_params(
    dims=None,
    num_vectors=None,
    root_order=None,
    scales=None,
    n: int | None = None,
    d: int | None = None,
) -> ConstructionParams:
    """Build params from either explicit dims or a (parties, dimension) pair.

    The default root order is the smallest prime at least the total
    dimension.  Past MAX_ROOT_ORDER it is the total dimension itself, with
    no prime search, so that `validate_params` refuses it at once.
    """
    if dims is None:
        if n is None or d is None:
            raise ValueError("give dims, or both the party count and the local dimension")
        dims = (d,) * n
    else:
        dims = tuple(int(x) for x in dims)
        if n is not None and n != len(dims):
            raise ValueError("party count disagrees with dims")
        if d is not None and any(x != d for x in dims):
            raise ValueError("local dimension disagrees with dims")
    if num_vectors is None:
        raise ValueError("the number of vectors is required")
    if root_order is None:
        total = math.prod(dims)
        root_order = total if total > MAX_ROOT_ORDER else smallest_prime_geq(total)
    return ConstructionParams(
        dims=dims, num_vectors=int(num_vectors), root_order=int(root_order), scales=scales
    )


def validate_params(params: ConstructionParams) -> list[str]:
    """All violated constraints, as human-readable strings; empty means valid."""
    problems = []
    if params.num_parties < 2:
        problems.append("at least two parties are required")
    if any(d < 2 for d in params.dims):
        problems.append("every local dimension must be at least 2")
    if params.root_order > MAX_ROOT_ORDER:
        problems.append(f"root order {params.root_order} exceeds the supported {MAX_ROOT_ORDER}")
    elif not is_prime(params.root_order):
        problems.append(f"root order {params.root_order} is not prime")
    if params.root_order < params.total_dim:
        problems.append(
            f"root order {params.root_order} is below the total dimension {params.total_dim}"
        )
    if params.num_parties >= 2 and all(d >= 2 for d in params.dims):
        lo = params.min_vectors
        hi = params.max_vectors
        if params.num_vectors < lo:
            problems.append(
                f"{params.num_vectors} vectors cannot span every cut; at least {lo} are needed"
            )
        if params.num_vectors > hi:
            problems.append(
                f"{params.num_vectors} vectors leave no room for a complement; at most {hi} fit"
            )
    if params.scales is not None:
        if len(params.scales) != params.num_parties:
            problems.append("scales must give one row per party")
        else:
            problems.extend(_scale_problems(params))
    return problems


def _scale_problems(params: ConstructionParams) -> list[str]:
    """Amplitudes are doubles: each scale, each column's scale (a product of
    one scale per party) and each row's squared norm (the product over the
    parties of their summed squared moduli) must be finite and nonzero."""
    problems = []
    smallest = norm2 = 1.0
    for m, row in enumerate(params.scales):
        if len(row) != params.dims[m]:
            problems.append(f"scales for party {m} must have {params.dims[m]} entries")
            continue
        moduli = [_double_modulus(value) for value in row]
        for s, r in enumerate(moduli):
            if not 0 < r < math.inf:
                kind = "zero" if r == 0 else "not finite"
                problems.append(f"scale for party {m} level {s} is {kind} as a double")
        smallest *= min(moduli, default=1.0)
        norm2 *= sum(r * r for r in moduli)
    if not problems and not (smallest > 0 and 0 < norm2 < math.inf):
        problems.append("the scales put a column scale or a row norm outside the double range")
    return problems


def _double_modulus(value) -> float:
    try:
        return abs(complex(value))
    except OverflowError:
        return math.inf


def ensure_valid(params: ConstructionParams, table=None) -> None:
    """Raise ValueError naming every violated constraint of params and table."""
    problems = validate_params(params)
    if not problems and table is not None:
        problems = validate_exponent_table(params, table)
    if problems:
        raise ValueError("; ".join(problems))


def _recipe_blocks(params: ConstructionParams) -> tuple[np.ndarray, ...]:
    """Per party m, the recipe's (k, dims[m]) int64 block i * (s * W_m mod p) mod p."""
    p = params.root_order
    rows = np.arange(params.num_vectors, dtype=np.int64)[:, None]
    return tuple(
        rows * (np.arange(d, dtype=np.int64) * w % p) % p
        for d, w in zip(params.dims, mixed_radix_weights(params.dims))
    )


def exponent_table(params: ConstructionParams) -> list[list[list[int]]]:
    """table[i][m][s] = i * s * W_m mod p: the recipe's blocks as nested lists."""
    return [list(row) for row in zip(*(block.tolist() for block in _recipe_blocks(params)))]


def validate_exponent_table(params: ConstructionParams, table) -> list[str]:
    problems = []
    if len(table) != params.num_vectors:
        return [f"table has {len(table)} rows, expected {params.num_vectors}"]
    for i, row in enumerate(table):
        if len(row) != params.num_parties:
            problems.append(f"vector {i} covers {len(row)} parties, expected {params.num_parties}")
            continue
        for m, local in enumerate(row):
            if len(local) != params.dims[m]:
                problems.append(
                    f"vector {i} party {m} has {len(local)} levels, expected {params.dims[m]}"
                )
                continue
            for e in local:
                if not isinstance(e, int) or not 0 <= e < params.root_order:
                    problems.append(
                        f"vector {i} party {m} holds exponent {e!r} outside [0, {params.root_order})"
                    )
                    break
    return problems


def is_standard_table(params: ConstructionParams, table) -> bool:
    # the shape check comes first, so the reference is never built larger
    # than the table in hand, whatever counts the params claim
    return not validate_exponent_table(params, table) and [
        [list(loc) for loc in row] for row in table
    ] == exponent_table(params)


# ---------------------------------------------------------------------------
# JSON document form.  Exponents and rational parts are serialized as
# strings; floats appear only as [re, im] pairs and are advisory.

SCHEMA_VERSION = 2


def scale_to_json(value: Scale):
    if isinstance(value, GaussianRational):
        return {"re": str(value.re), "im": str(value.im)}
    value = complex(value)
    return [value.real, value.imag]


def complex_pairs(values: np.ndarray) -> list:
    """`values` as nested lists with each complex entry an [re, im] pair.

    The same floats as `[[z.real, z.imag] for z in values]`, built in one call.
    """
    return np.stack((values.real, values.imag), axis=-1).tolist()


def scale_from_json(obj) -> Scale:
    """A rational string, a {"re", "im"} object of them, or an [re, im] pair of numbers."""
    if isinstance(obj, dict):
        return GaussianRational(_rational_from_json(obj["re"]), _rational_from_json(obj["im"]))
    if isinstance(obj, str):
        return GaussianRational(Fraction(obj))
    if not (
        isinstance(obj, list)
        and len(obj) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    ):
        raise ValueError(f"a float scale is an [re, im] pair of numbers, got {obj!r}")
    try:
        return complex(*obj)
    except OverflowError:
        raise ValueError(f"scale {obj!r} does not fit a double")


def scales_from_json(doc) -> tuple[tuple[Scale, ...], ...]:
    """One list of scale entries per party, as `scale_from_json` reads them."""
    return tuple(
        tuple(scale_from_json(s) for s in _json_list(row, "a party's scales"))
        for row in _json_list(doc, "scales")
    )


def _json_list(value, what: str) -> list:
    """A JSON list; a string or any other value where a list belongs raises."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {value!r}")
    return value


def _rational_from_json(value) -> Fraction:
    """An exact scale part: a rational string or an int; floats and booleans raise."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"an exact scale part is a rational string or an int, got {value!r}")
    return Fraction(value)


def params_to_json(params: ConstructionParams) -> dict:
    doc = {
        "dims": list(params.dims),
        "num_vectors": params.num_vectors,
        "root_order": str(params.root_order),
    }
    if params.scales is None:
        doc["scales"] = None
    else:
        doc["scales"] = [[scale_to_json(s) for s in row] for row in params.scales]
    return doc


def _int_from_json(value) -> int:
    """An int or an integer string from a JSON document; floats and booleans raise."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer or an integer string, got {value!r}")
    return int(value)


def params_from_json(doc) -> ConstructionParams:
    if not isinstance(doc, dict):
        raise ValueError("params must be a JSON object")
    scales = doc.get("scales")
    return ConstructionParams(
        dims=tuple(_int_from_json(d) for d in _json_list(doc["dims"], "dims")),
        num_vectors=_int_from_json(doc["num_vectors"]),
        root_order=_int_from_json(doc["root_order"]),
        scales=None if scales is None else scales_from_json(scales),
    )


def vectors_to_doc(params: ConstructionParams, table=None, provenance: str | None = None) -> dict:
    # the params first, so that invalid ones never pay for a standard table
    ensure_valid(params)
    if table is None:
        table = exponent_table(params)
    else:
        ensure_valid(params, table)
    if provenance is None:
        provenance = "standard-recipe" if is_standard_table(params, table) else "user-supplied"
    p = params.root_order
    factors = [np.array([complex(s) for s in row]) for row in params.scales or ()]

    def party_pairs(m):
        """Party m's amplitude pairs, one list per row of the table."""
        amps = np.array([[cmath.exp(2j * cmath.pi * e / p) for e in row[m]] for row in table])
        return complex_pairs(amps * factors[m] if factors else amps)

    return {
        "schema": "gesforge/vectors",
        "schema_version": SCHEMA_VERSION,
        "params": params_to_json(params),
        "provenance": provenance,
        "exponent_table": [[[str(e) for e in loc] for loc in row] for row in table],
        "amplitudes": [list(row) for row in zip(*map(party_pairs, range(len(params.dims))))],
    }


def vectors_from_doc(doc) -> tuple[ConstructionParams, list[list[list[int]]], str]:
    if not isinstance(doc, dict) or doc.get("schema") != "gesforge/vectors":
        raise ValueError("not a vectors document")
    params = params_from_json(doc["params"])
    table = [
        [[_int_from_json(e) for e in _json_list(loc, "a party's exponents")]
         for loc in _json_list(row, "an exponent_table row")]
        for row in _json_list(doc["exponent_table"], "exponent_table")
    ]
    # provenance is re-derived, not trusted: an edited table is user-supplied
    # no matter what the file claims
    provenance = "standard-recipe" if is_standard_table(params, table) else "user-supplied"
    return params, table, provenance
