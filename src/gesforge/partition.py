"""Bipartitions and the coefficient matrices of product families.

Vector i has amplitude w**e[i, j] on column j; columns run over the
parties' levels in product order, party 0 most significant.  The exact
exponents (`coefficient_matrix`, per cut side `factor_matrices`) and the
scaled complex K x D family (`build_nupb`) come from one exponent sum.

The sum reads one (k, d_m) int64 block per party, built once per family
(`exponent_blocks`): from the params alone, the standard recipe's blocks
that `construct.exponent_table` also lists, or from a nested exponent
table, the JSON exchange format, by one conversion per party.  A side's
matrix is then a broadcast sum of its parties' blocks, with no loop over
the rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .construct import ConstructionParams, _recipe_blocks, ensure_valid

# Traced with tracemalloc, the exact stage peaks at 48 bytes per entry of the
# family's k x D matrix (24.1 MiB on 2^10 at k=513, 96.2 MiB on 2^11 at
# k=1025) and `build_nupb` at 40.  At 48 bytes an entry, the scan's 2**29
# bytes (`exactverify.MAX_SCAN_BYTES`) admit 11,184,810 entries: 2^12 at
# k=2049 (8.4M) is in reach, 2^13 at k=4097 (33.6M) is not.  A larger matrix
# is refused before it is built (`restricted_matrix`).
MAX_MATRIX_ENTRIES = 2**29 // 48


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


@dataclass(frozen=True)
class FlatMatrix:
    """Coefficient matrix of a family restricted to some parties.

    Entry (i, j) is w**exponents[i, j] up to a nonzero column scale, where
    w is a primitive root of unity of the given order (prime for a family;
    the exact checks accept any order).  The scales are left out: they
    never change a rank or the zero-ness of a minor, so the exponents are
    the whole exact content.
    """

    root_order: int
    parties: tuple[int, ...]
    dims: tuple[int, ...]
    exponents: np.ndarray

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


def exponent_blocks(params: ConstructionParams, table=None) -> tuple[np.ndarray, ...]:
    """Per party m, the (k, dims[m]) int64 block of exponents table[i][m][s];
    with table None, the standard recipe's blocks, from the params."""
    if table is None:
        return _recipe_blocks(params)
    return tuple(
        np.array([row[m] for row in table], dtype=np.int64).reshape(len(table), d)
        for m, d in enumerate(params.dims)
    )


def restricted_matrix(params: ConstructionParams, parties, blocks) -> FlatMatrix:
    """The coefficient matrix of the given parties, from `exponent_blocks`.

    Raises ValueError when it would hold more than MAX_MATRIX_ENTRIES.
    """
    parties = tuple(parties)
    cols = math.prod(params.dims[m] for m in parties)
    if params.num_vectors * cols > MAX_MATRIX_ENTRIES:
        raise ValueError(
            f"a {params.num_vectors} x {cols} coefficient matrix has "
            f"{params.num_vectors * cols} entries, above the supported {MAX_MATRIX_ENTRIES}"
        )
    exps = np.zeros((params.num_vectors, 1), dtype=np.int64)
    for m in parties:
        exps = (exps[:, :, None] + blocks[m][:, None, :]).reshape(params.num_vectors, -1)
    return FlatMatrix(
        root_order=params.root_order,
        parties=parties,
        dims=tuple(params.dims[m] for m in parties),
        exponents=exps % params.root_order,
    )


def coefficient_matrix(params: ConstructionParams, table=None) -> FlatMatrix:
    """The full K x D coefficient matrix of the family."""
    return restricted_matrix(params, range(params.num_parties), exponent_blocks(params, table))


def factor_matrices(
    params: ConstructionParams, bipartition: Bipartition, table=None
) -> tuple[FlatMatrix, FlatMatrix]:
    """The two one-sided coefficient matrices of a bipartition."""
    if bipartition.num_parties != params.num_parties:
        raise ValueError("bipartition does not match the party count")
    blocks = exponent_blocks(params, table)
    return (
        restricted_matrix(params, bipartition.members, blocks),
        restricted_matrix(params, bipartition.complement, blocks),
    )


def build_nupb(params: ConstructionParams, table=None) -> np.ndarray:
    """The family as its (K, D) complex coefficient matrix, row i vector i.

    Entry (i, j) is w**e[i, j] times the product of the parties' scales at
    column j's levels.  Raises on invalid params or table.
    """
    ensure_valid(params, table)
    rows = coefficient_matrix(params, table).to_complex()
    if params.scales is not None:
        rows = rows * functools.reduce(
            np.kron, [np.array([complex(s) for s in row]) for row in params.scales]
        )
    return rows
