"""Exact certification: full rank, per-cut spanning, and Fourier minor scans.

The spanning property of a one-sided coefficient matrix is decided by
exhaustive enumeration: every subset of rows of the side's dimension must
have full rank.  No structural theorem is assumed on the way in; the
matrices are checked as given, so user-supplied exponent tables and scaled
columns get the same treatment as the standard recipe.  All verdicts are
exact; floating point never participates.  Nonzero column scales, exact or
floating, change neither a rank nor a minor's zero-ness, so the exact
verdicts read the exponent table alone.

Rank deficiency is proved without field elimination: a modular echelon
form names pivot rows P and columns C with M[P, C] nonsingular, and the
rank is exactly |P| when every bordered minor M[P + i, C + j] is proven
zero by the multimodular test of `minors`, because those minors are the
entries of the Schur complement of M[P, C] up to its nonzero determinant.

The Fourier-minor scan (`chebotarev_scan`) takes every minor's image mod q
from one depth-first Laplace expansion over row sets, and escalates only
the zero images to the same multimodular proof, for prime and composite
orders alike.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import minors
from .construct import ConstructionParams, validate_exponent_table, validate_params
from .cyclo import is_prime
from .partition import Bipartition, FlatMatrix, coefficient_matrix, enumerate_bipartitions, factor_matrices

_WITNESS_CAP = 20


@dataclass
class SpanningCheck:
    """Outcome of the all-subsets rank check for one side of a cut."""

    parties: tuple[int, ...]
    dimension: int
    subsets_total: int
    ok: bool
    witness: tuple[int, ...] | None = None
    failures: int = 0
    methods: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "parties": list(self.parties),
            "dimension": self.dimension,
            "subsets_total": self.subsets_total,
            "ok": self.ok,
            "witness": list(self.witness) if self.witness is not None else None,
            "failures": self.failures,
            "methods": dict(self.methods),
        }


@dataclass
class BipartitionCheck:
    members: tuple[int, ...]
    complement: tuple[int, ...]
    required_vectors: int
    count_ok: bool
    left: SpanningCheck | None
    right: SpanningCheck | None

    @property
    def ok(self) -> bool:
        return (
            self.count_ok
            and self.left is not None
            and self.right is not None
            and self.left.ok
            and self.right.ok
        )

    def to_doc(self) -> dict:
        return {
            "members": list(self.members),
            "complement": list(self.complement),
            "required_vectors": self.required_vectors,
            "count_ok": self.count_ok,
            "ok": self.ok,
            "left": self.left.to_doc() if self.left else None,
            "right": self.right.to_doc() if self.right else None,
        }


@dataclass
class ChebotarevScan:
    """Census of exactly-zero minors of the order-p Fourier matrix."""

    order: int
    max_size: int
    requested_size: int
    prime: bool
    checked: dict
    witnesses: list
    zero_count: int = 0
    elapsed: float = 0.0

    @property
    def clean(self) -> bool:
        return self.zero_count == 0

    @property
    def clamped(self) -> bool:
        return self.max_size != self.requested_size

    def to_doc(self) -> dict:
        return {
            "order": self.order,
            "max_size": self.max_size,
            "requested_size": self.requested_size,
            "prime": self.prime,
            "clean": self.clean,
            "checked": {str(k): v for k, v in self.checked.items()},
            "zero_count": self.zero_count,
            "witnesses": [
                {"size": len(rows), "rows": list(rows), "cols": list(cols)}
                for rows, cols in self.witnesses
            ],
            "elapsed_seconds": self.elapsed,
        }


@dataclass
class ExactReport:
    dims: tuple[int, ...]
    num_vectors: int
    root_order: int
    scales_exact: bool
    matrix_rank: int | None = None
    full_rank: bool | None = None
    rank_method: str | None = None
    bipartitions: list = field(default_factory=list)
    elapsed: float = 0.0
    # the exact stage always runs; these stay in the report schema
    skipped = False
    skip_reason = None

    @property
    def passed(self) -> bool:
        return bool(self.full_rank) and all(b.ok for b in self.bipartitions)

    def to_doc(self) -> dict:
        return {
            "dims": list(self.dims),
            "num_vectors": self.num_vectors,
            "root_order": str(self.root_order),
            "scales_exact": self.scales_exact,
            "skipped": self.skipped,
            "skip_reason": self.skip_reason,
            "matrix_rank": self.matrix_rank,
            "full_rank": self.full_rank,
            "rank_method": self.rank_method,
            "passed": self.passed,
            "bipartitions": [b.to_doc() for b in self.bipartitions],
            "elapsed_seconds": self.elapsed,
        }


def _modular_echelon(values: np.ndarray, q: int) -> tuple[list[int], list[int]]:
    """Pivot rows and pivot columns of a row echelon form over F_q.

    Division-free elimination with row swaps; the submatrix on the returned
    rows and columns is nonsingular mod q, and its size is the rank mod q.
    """
    a = (np.array(values, dtype=np.int64) % q).tolist()
    rows, cols = len(a), len(a[0]) if a else 0
    origin = list(range(rows))
    pivot_cols = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        origin[r], origin[piv] = origin[piv], origin[r]
        pr = a[r]
        for i in range(r + 1, rows):
            f = a[i][c]
            if f:
                a[i] = [(pr[c] * x - f * y) % q for x, y in zip(a[i], pr)]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    return sorted(origin[:r]), pivot_cols


def rank_full(flat: FlatMatrix) -> tuple[bool, int, str]:
    """(has full row rank, exact rank, deciding method) for a FlatMatrix.

    A modular image of full rank certifies the exact rank ("modular").
    Otherwise the image's pivot block gives rank >= r, and r is exact when
    every bordered minor is proven zero ("bordered"); a nonzero bordered
    minor means the image lost rank, and the next prime field is tried.
    """
    order = flat.root_order
    if not is_prime(order):
        raise ValueError(f"exact rank needs a prime root order, got {order}")
    k, dim = flat.exponents.shape
    for index in itertools.count():
        ctx = minors.modular_context(order, index)
        rows, cols = _modular_echelon(ctx.power_table()[flat.exponents], ctx.modulus)
        r = len(rows)
        if r == k or r == dim:
            return r == k, r, "modular"
        row_sets = np.array([rows + [i] for i in range(k) if i not in rows], dtype=np.int64)
        col_sets = np.array([cols + [j] for j in range(dim) if j not in cols], dtype=np.int64)
        bordered = flat.exponents[row_sets[:, None, :, None], col_sets[None, :, None, :]]
        if minors.multimodular_zero(bordered.reshape(-1, r + 1, r + 1), order).all():
            return False, r, "bordered"


def spanning_property(flat: FlatMatrix, *, chunk: int = 100_000) -> SpanningCheck:
    """Exhaustive check that every dimension-sized row subset has full rank.

    Raises when the row count is below the side dimension, where the
    spanning hypothesis cannot hold.
    """
    k = flat.num_vectors
    dim = flat.dimension
    if k < dim:
        raise ValueError(
            f"{k} vectors cannot satisfy the spanning hypothesis on a dimension-{dim} side"
        )
    methods: dict = {}
    witness = None
    failures = 0
    for rows in minors.iter_index_combinations(k, dim, chunk):
        verdicts = minors.decide_nonzero(flat.exponents[rows], flat.root_order, stats=methods)
        if not verdicts.all():
            bad = np.nonzero(~verdicts)[0]
            failures += int(bad.size)
            if witness is None:
                witness = tuple(int(x) for x in rows[bad[0]])
    return SpanningCheck(
        parties=flat.parties,
        dimension=dim,
        subsets_total=math.comb(k, dim),
        ok=failures == 0,
        witness=witness,
        failures=failures,
        methods=methods,
    )


def verify_all_bipartitions(
    params: ConstructionParams, table=None, *, chunk: int = 100_000
) -> ExactReport:
    """Full-rank plus per-cut spanning over every canonical bipartition."""
    problems = validate_params(params)
    if problems:
        raise ValueError("; ".join(problems))
    if table is not None:
        problems = validate_exponent_table(params, table)
        if problems:
            raise ValueError("; ".join(problems))
    start = time.perf_counter()
    report = ExactReport(
        dims=params.dims,
        num_vectors=params.num_vectors,
        root_order=params.root_order,
        scales_exact=params.scales_exact,
    )
    flat = coefficient_matrix(params, table)
    ok, r, method = rank_full(flat)
    report.matrix_rank = r
    report.full_rank = ok
    report.rank_method = method
    for cut in enumerate_bipartitions(params.num_parties):
        left_flat, right_flat = factor_matrices(params, cut, table)
        required = left_flat.dimension + right_flat.dimension - 1
        count_ok = params.num_vectors >= required
        left = right = None
        if count_ok:
            left = spanning_property(left_flat, chunk=chunk)
            right = spanning_property(right_flat, chunk=chunk)
        report.bipartitions.append(
            BipartitionCheck(
                members=cut.members,
                complement=cut.complement,
                required_vectors=required,
                count_ok=count_ok,
                left=left,
                right=right,
            )
        )
    report.elapsed = time.perf_counter() - start
    return report


def _lex_keys(combos: np.ndarray, order: int) -> np.ndarray:
    """Integer keys that sort equal-size index tuples in lexicographic order."""
    return combos @ order ** np.arange(combos.shape[1] - 1, -1, -1, dtype=np.int64)


def _check_witness(rows, cols, order: int) -> None:
    """Raise unless the minor is below 1e-30 at 50 digits (an independent check)."""
    import mpmath

    with mpmath.workdps(50):
        w = mpmath.exp(2j * mpmath.pi / order)
        value = mpmath.det(mpmath.matrix([[w ** (r * c % order) for c in cols] for r in rows]))
        if abs(value) > 1e-30:
            raise RuntimeError(
                f"minor rows {rows} cols {cols} proved zero but its value is {value}"
            )


def chebotarev_scan(order: int, max_size: int, *, chunk: int = 250_000) -> ChebotarevScan:
    """Enumerate all square minors of the order-n Fourier matrix up to a size.

    For prime order the expected witness list is empty (total
    nonsingularity); composite orders surface exactly-zero minors.

    One depth-first Laplace pass mod q visits the row sets R in
    lexicographic order and keeps the images det F[R, C] mod q over every
    column set C with |C| = |R|.  Each child R + x (x > max R) takes its
    images from the parent's by expansion along the new row, so a minor
    costs |C| multiply-adds, and memory stays near max_size * n *
    C(n, max_size) residues.  A nonzero image proves a minor nonzero; the
    zero images, per size and in lexicographic order, escalate in batches
    of at most `chunk` to the multimodular zero proof of `minors`, which
    clears spurious ones.  Every recorded witness is re-evaluated with
    mpmath at 50 digits and must fall below 1e-30.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    requested = max_size
    max_size = min(max_size, order)
    start = time.perf_counter()
    ctx = minors.modular_context(order)
    q = ctx.modulus
    fourier = ctx.power_table()[np.outer(np.arange(order), np.arange(order)) % order]
    combos = [
        np.array(list(itertools.combinations(range(order), s)), dtype=np.int64)
        .reshape(math.comb(order, s), s)
        for s in range(max_size + 1)
    ]
    keys = [_lex_keys(c, order) for c in combos]
    # per size and expansion position: the parent's image index of C minus
    # its pos-th column, and the signed entries F[x, C[pos]] for every row x
    drops, entries = [None], [None]
    for s in range(1, max_size + 1):
        drops.append([
            np.searchsorted(keys[s - 1], _lex_keys(np.delete(combos[s], pos, axis=1), order))
            for pos in range(s)
        ])
        entries.append([
            fourier[:, combos[s][:, pos]] if (s - 1 + pos) % 2 == 0
            else q - fourier[:, combos[s][:, pos]]
            for pos in range(s)
        ])
    checked = {s: len(combos[s]) ** 2 for s in range(1, max_size + 1)}
    pending = {s: [] for s in checked}
    waiting = dict.fromkeys(checked, 0)
    zeros = {s: [] for s in checked}
    zero_total = 0

    def escalate(size: int) -> None:
        nonlocal zero_total
        rows = np.concatenate([r for r, _ in pending[size]])
        cols = np.concatenate([c for _, c in pending[size]])
        pending[size].clear()
        waiting[size] = 0
        for lo in range(0, len(rows), chunk):
            r, c = rows[lo : lo + chunk], cols[lo : lo + chunk]
            zero = minors.multimodular_zero(r[:, :, None] * c[:, None, :] % order, order)
            zero_total += int(zero.sum())
            keep = _WITNESS_CAP - len(zeros[size])
            zeros[size].extend(zip(r[zero][:keep].tolist(), c[zero][:keep].tolist()))

    def expand(rows: tuple, images: np.ndarray) -> None:
        size = len(rows) + 1
        first = rows[-1] + 1 if rows else 0
        acc = sum(e[first:] * images[d] for e, d in zip(entries[size], drops[size])) % q
        xs, cs = np.nonzero(acc == 0)
        if xs.size:
            block = np.empty((xs.size, size), dtype=np.int64)
            block[:, :-1] = rows
            block[:, -1] = xs + first
            pending[size].append((block, combos[size][cs]))
            waiting[size] += xs.size
            if waiting[size] >= chunk:
                escalate(size)
        if size < max_size:
            for x in range(first, order - 1):
                expand(rows + (x,), acc[x - first])

    expand((), np.ones(1, dtype=np.int64))
    for size in checked:
        if pending[size]:
            escalate(size)
    witnesses = [
        (tuple(rows), tuple(cols)) for size in checked for rows, cols in zeros[size]
    ][:_WITNESS_CAP]
    for rows, cols in witnesses:
        _check_witness(rows, cols, order)
    return ChebotarevScan(
        order=order,
        max_size=max_size,
        requested_size=requested,
        prime=is_prime(order),
        checked=checked,
        witnesses=witnesses,
        zero_count=zero_total,
        elapsed=time.perf_counter() - start,
    )
