"""Bipartitions, flat indexing, and coefficient matrices of product families."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .construct import ConstructionParams, exponent_table, mixed_radix_weights


@dataclass(frozen=True, order=True)
class Bipartition:
    """A two-block split of the parties; the block holding party 0 is canonical."""

    num_parties: int
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted(int(m) for m in self.members))
        object.__setattr__(self, "members", members)
        if not members or members[0] != 0:
            raise ValueError("the canonical block must contain party 0")
        if len(set(members)) != len(members):
            raise ValueError("repeated party")
        if members[-1] >= self.num_parties:
            raise ValueError("party index out of range")
        if len(members) == self.num_parties:
            raise ValueError("a bipartition needs a nonempty complement")

    @property
    def complement(self) -> tuple[int, ...]:
        inside = set(self.members)
        return tuple(m for m in range(self.num_parties) if m not in inside)

    def label(self) -> str:
        left = ",".join(str(m) for m in self.members)
        right = ",".join(str(m) for m in self.complement)
        return f"{{{left}}}|{{{right}}}"


def enumerate_bipartitions(num_parties: int) -> list[Bipartition]:
    """All 2**(n-1) - 1 canonical bipartitions, in a fixed order."""
    if num_parties < 2:
        raise ValueError("bipartitions need at least two parties")
    out = []
    for mask in range(2 ** (num_parties - 1)):
        members = (0,) + tuple(m + 1 for m in range(num_parties - 1) if mask >> m & 1)
        if len(members) == num_parties:
            continue
        out.append(Bipartition(num_parties, members))
    return out


def flat_index(digits, dims) -> int:
    """Mixed-radix flattening with party 0 most significant."""
    if len(digits) != len(dims):
        raise ValueError("digit count must match the dimension count")
    weights = mixed_radix_weights(dims)
    total = 0
    for s, d, w in zip(digits, dims, weights):
        if not 0 <= s < d:
            raise ValueError(f"digit {s} out of range for dimension {d}")
        total += s * w
    return total


def unflatten(index: int, dims) -> tuple[int, ...]:
    weights = mixed_radix_weights(dims)
    total = int(np.prod(dims))
    if not 0 <= index < total:
        raise ValueError(f"index {index} out of range for dims {tuple(dims)}")
    digits = []
    for w in weights:
        digits.append(index // w)
        index %= w
    return tuple(digits)


@dataclass(frozen=True)
class FlatMatrix:
    """Coefficient matrix of a family restricted to some parties.

    Entry (i, j) is w**exponents[i, j] up to a nonzero column scale, where
    w has the given prime root order.  The scales are left out: they never
    change a rank or the zero-ness of a minor, so the exponents are the
    whole exact content.  column_flat_indices embeds each column into the
    full-family flat index space (absent parties sit at level 0).
    """

    root_order: int
    parties: tuple[int, ...]
    dims: tuple[int, ...]
    exponents: np.ndarray
    column_flat_indices: tuple[int, ...]

    def __post_init__(self):
        exps = np.ascontiguousarray(np.asarray(self.exponents, dtype=np.int64))
        exps.setflags(write=False)
        object.__setattr__(self, "exponents", exps)

    @property
    def num_vectors(self) -> int:
        return self.exponents.shape[0]

    @property
    def dimension(self) -> int:
        return self.exponents.shape[1]

    def to_complex(self) -> np.ndarray:
        return np.exp(2j * np.pi * self.exponents / self.root_order)


def _restricted_matrix(params: ConstructionParams, parties, table) -> FlatMatrix:
    parties = tuple(parties)
    local_dims = tuple(params.dims[m] for m in parties)
    p = params.root_order
    k = params.num_vectors
    per_party = [
        np.array([table[i][m] for i in range(k)], dtype=np.int64) for m in parties
    ]  # each (k, dims[m])
    weights = mixed_radix_weights(params.dims)
    columns = list(itertools.product(*[range(d) for d in local_dims]))
    exps = np.zeros((k, len(columns)), dtype=np.int64)
    flat_ids = []
    for j, digits in enumerate(columns):
        acc = np.zeros(k, dtype=np.int64)
        for t, s in enumerate(digits):
            acc += per_party[t][:, s]
        exps[:, j] = acc % p
        flat_ids.append(sum(s * weights[m] for m, s in zip(parties, digits)))
    return FlatMatrix(
        root_order=p,
        parties=parties,
        dims=local_dims,
        exponents=exps,
        column_flat_indices=tuple(flat_ids),
    )


def coefficient_matrix(params: ConstructionParams, table=None) -> FlatMatrix:
    """The full K x D coefficient matrix of the family."""
    if table is None:
        table = exponent_table(params)
    return _restricted_matrix(params, range(params.num_parties), table)


def factor_matrices(
    params: ConstructionParams, bipartition: Bipartition, table=None
) -> tuple[FlatMatrix, FlatMatrix]:
    """The two one-sided coefficient matrices of a bipartition."""
    if bipartition.num_parties != params.num_parties:
        raise ValueError("bipartition does not match the party count")
    if table is None:
        table = exponent_table(params)
    return (
        _restricted_matrix(params, bipartition.members, table),
        _restricted_matrix(params, bipartition.complement, table),
    )
