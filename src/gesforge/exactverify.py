"""Exact certification: full rank, per-cut spanning, and Fourier minor scans.

Every exact verdict here comes down to "no minor vanishes", and one pass
decides it: `_zero_minors` takes the image mod q of every square minor of
a matrix by a depth-first Laplace expansion and marks the zero images in
one boolean table per minor size; only those need a zero proof.  All
verdicts are exact; floating point never participates.  Nonzero column
scales, exact or floating, change neither a rank nor a minor's zero-ness,
so the exact verdicts read the exponent table alone.

Before any pass, the table is checked exactly for Fourier form
(`_fourier_form`): with p prime and f = E - E[:, 0] - E[0, :] + E[0, 0]
mod p, the form holds when f = r c^T mod p with the r_i distinct and the
c_j distinct.  Then E[i, j] = E[i, 0] + E[0, j] - E[0, 0] + r_i c_j, so
w**E is F_p[r, c], a submatrix of the order-p Fourier matrix, with its
rows and columns scaled by roots of unity.  By Chebotarev's theorem no
square minor of F_p vanishes (Stevenhagen & Lenstra, Math. Intelligencer
18, 1996; Tao, Math. Res. Lett. 12, 2005), so the matrix has rank
min(k, D) and every maximal minor is nonzero, with no elimination and no
pass ("chebotarev").  The standard recipe and every relabelling of it
have this form; the structure is checked, not assumed, and every other
table (a copied row, a party with a repeated level, a composite order)
goes through the scan below.

`verify_all_bipartitions` checks the form once, on the full matrix, and
then builds no side.  A side S's matrix is the full matrix on the columns
where every party outside S sits at level 0, less a shift per row: the
shift is the row's sum of those parties' level-0 exponents.  A row shift
cancels in f, so the side's own f_S is those columns of the full f.  When
f = r c^T with distinct r and distinct c, f_S = r c_S^T, with c_S part of
c and so distinct too, and it has a nonzero entry, since k >= 2 and the
side dimension is at least 2.  So every side has Fourier form and gets
the verdict `spanning_property` would give it.  When the full check
fails, each side is built and checked on its own, and a side without the
offending structure (a party outside it with a repeated level, say) can
still pass by the theorem.

The spanning property asks every D-row subset of a side's k x D matrix M
to have full rank.  Gauss-Jordan elimination of M^T mod q picks basis
rows B with M_B nonsingular and gives A = M_rest M_B^-1.  Every maximal
minor of M is +-det M_B times exactly one square minor of A: the row set
(B minus B[C]) + rest[R] goes with det A[R, C], since the Pluecker
coordinates of the row span of [I; A] are the minors of A (Fomin &
Zelevinsky, Math. Intelligencer 22, 2000).  So one scan of A's square
minors covers all C(k, D) maximal minors.

Rank deficiency is proved without field elimination, one circuit at a
time.  A circuit is a minimal dependent row set (Oxley, Matroid Theory,
2nd ed., ch. 1); every row set that contains a dependent one is
dependent.  `_proven_circuits` takes the echelon form of the image mod q
of M's transpose: it names independent rows P and, for each other row i,
a null vector mod q within P + i whose support is a candidate circuit.
The candidate C is proven dependent when `minors.exact_rank` of M[C] is
below |C|: every image of M[C], under each embedding w -> root**a in each
field the multimodular bound for min(|C|, D) asks for, has rank below
|C|, so every maximal minor of M[C] is zero.  A copied row makes a circuit
of two rows.  When every candidate is proven the rank is exactly |P|; a
candidate that fails was dependent only mod q, and the next field is
tried.  The rank of a matrix, a side's rank (whose field gives its A) and
each zero image of the spanning check go through this one proof: the
first zero image still open is either cleared by a field where its image
has full rank, or proven singular by its circuits, and each of them
settles every zero image that contains it.

The Fourier-minor scan (`chebotarev_scan`) runs the same pass on F_n,
for prime and composite orders alike, over the row sets and the column
sets that hold 0 only.  With F_n[i, j] = w**(i * j), a translation of the
rows scales column c by w**(t * c), and one of the columns scales row r by
w**(r * t), so det F[R + t, C] = w**(t * sum(C)) * det F[R, C] and
det F[R, C + t] = w**(t * sum(R)) * det F[R, C], unit multiples in every
image.  R - min R holds 0 with no wrap-around, so zero[s][R, C] =
zero[s][R - min R, C - min C]; the sets that hold 0 are the first
C(n - 1, s - 1) of each size in lexicographic order, and the pass walks
the depth-first subtree of row 0.  (The spanning scan has no such
symmetry.)  The pass expands a child along its new row and drops one
column of C at a time; C without a column other than 0 still holds 0, and
C without 0, whose least column is c_1, is read at its translate by -c_1
in the parent's table, times w**(c_1 * sum R) for the parent's rows R.
The zero images are proven from the pass's own tables: the embedding
w -> root**a multiplies every exponent r * c by the unit a, so the image
of det F[R, C] under it is +-det F[sorted(a * R mod n), C] under
w -> root.  A zero image is proven zero when the images of its whole
orbit vanish, in as many fields as the multimodular bound m! * max|R|
asks for; at the 10**6 modulus floor that is one field up to size 9
(max|R| = 1 below order 105).  Each table is and-ed with itself, rows
permuted by R -> sorted(a * R mod n), once per unit a, which keeps 0 in
a set and leaves C alone; what stays True is a union of whole orbits that
vanish, and every other minor is read by translation on both axes.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import minors
from .construct import ConstructionParams, ensure_valid
from .cyclo import is_prime, power_reduction_matrix
from .partition import FlatMatrix, enumerate_bipartitions, exponent_blocks, restricted_matrix

_WITNESS_CAP = 20
# A Laplace pass over a rows x cols matrix (`_zero_minors`) holds, 8 bytes
# a residue, the matrix and its image mod q (2 * rows * cols) and per size s
# a signed table of s * rows * C(cols, s) residues, the row sums of
# rows * C(cols, s) kept along the walk and three column tables of
# (2s + 1) * C(cols, s); while the largest of these expands, it holds them
# once more.  Its answer takes a byte a minor: per size s a boolean table
# of C(rows, s) * C(cols, s).  It decides sum_s C(rows, s) * C(cols, s)
# minors.  A Fourier scan of order n visits the C(n - 1, s - 1) row sets
# and walks the C(n - 1, s - 1) column sets of each size s that hold 0, so
# its signed table, images and tables, and its minors, count those.  Per
# size s it also holds the column tables over every set, a translation
# index of C(n, s), and its family: drop index, twist exponents and their
# powers, s + 2n residues a set; while a size expands, its einsum output
# and residues.  A composite order adds its reduction modulo Phi_n, at most
# n * n residues, the orbit proof one permuted copy of the largest table,
# and the scan's Python objects 64 KiB.  A pass above either bound is
# refused before any table is built (`_check_scan_reach`).  The Fourier
# survey's (14, 6) needs 7.0 MB and 2.3M minors, (16, 8) 145.6 MB and
# 77.6M, the sides of 3x3x3 at k=26 at most 91.2 MB and 3.1M minors.  The
# zero images of a spanning
# scan, whose number only the minor count bounds, are counted once the
# pass is done and refused before any is read out (`_zero_image_reach`).
# Then the zero tables and the column tables are still held, and each
# zero image adds its row set as a k-byte mask, a k-byte copy of it (among
# the failures, or gathered by a circuit proof) and three flags; while its
# size s is read out, it also holds its two indices, its row and column
# sets, their row numbers and its place, 24 + 32 s bytes.  A side of
# 3x3x3 at k=26 counts 60.0 MB that way, for 346,104 zero images.
MAX_SCAN_BYTES = 2**29
MAX_SCAN_MINORS = 2**27


@dataclass
class SpanningCheck:
    """Outcome of the all-subsets rank check for one side of a cut.

    `methods` maps the deciding method, "chebotarev" (Fourier form) or
    "modular" (the scan), to the row subsets it decided.
    """

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
    left: SpanningCheck
    right: SpanningCheck
    # validation rejects families below the worst cut's D_S + D_Sbar - 1
    # vectors, so every cut has enough; the key stays in the report schema
    count_ok = True

    @property
    def ok(self) -> bool:
        return self.left.ok and self.right.ok

    def to_doc(self) -> dict:
        return {
            "members": list(self.members),
            "complement": list(self.complement),
            "required_vectors": self.required_vectors,
            "count_ok": self.count_ok,
            "ok": self.ok,
            "left": self.left.to_doc(),
            "right": self.right.to_doc(),
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
    matrix_rank: int
    full_rank: bool
    rank_method: str
    bipartitions: list = field(default_factory=list)
    elapsed: float = 0.0
    # the exact stage always runs; these stay in the report schema
    skipped = False
    skip_reason = None

    @property
    def passed(self) -> bool:
        return self.full_rank and all(b.ok for b in self.bipartitions)

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


def _modular_echelon(values: np.ndarray, q: int) -> tuple[list[int], list[int], list[list[int]]]:
    """Pivot rows, pivot columns and the reduced row echelon form over F_q.

    Gauss-Jordan elimination with row swaps: each pivot is scaled to 1 and
    cleared from every other row.  The submatrix on the returned rows and
    columns is nonsingular mod q, its size is the rank mod q, and the
    reduced form has one row per pivot, in pivot order.
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
        inverse = pow(a[r][c], q - 2, q)
        # the pivot row is zero before column c, so only columns c.. change
        pr = [x * inverse % q for x in a[r][c:]]
        a[r][c:] = pr
        for i in range(rows):
            f = a[i][c]
            if f and i != r:
                a[i][c:] = [(x - f * y) % q for x, y in zip(a[i][c:], pr)]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    return sorted(origin[:r]), pivot_cols, a[:r]


def _distinct(values: np.ndarray) -> bool:
    ordered = np.sort(values)
    return bool((ordered[1:] != ordered[:-1]).all())


def _fourier_form(flat: FlatMatrix) -> bool:
    """Whether w**E is a scaled submatrix of F_p (module docstring).

    f = r c^T has rank one, so any nonzero entry f[i, j] pins it down:
    f[i, j] * f = f[:, j] f[i, :]^T mod p, and f[:, j] and f[i, :] are unit
    multiples of r - r_0 and c - c_0, which are distinct exactly when r and
    c are.  An all-zero f (a single row or column, or repeated r or c) does
    not qualify.  The distinctness test is the cheaper, so it goes first.
    """
    p = flat.root_order
    if not is_prime(p):
        return False
    e = flat.exponents
    f = (e - e[:, :1] - e[:1, :] + e[0, 0]) % p
    nonzero = np.flatnonzero(f)
    if not nonzero.size:
        return False
    i, j = divmod(int(nonzero[0]), f.shape[1])
    r, c = f[:, j], f[i, :]
    return _distinct(r) and _distinct(c) and bool((f * f[i, j] % p == np.outer(r, c) % p).all())


def _proven_circuits(
    exponents: np.ndarray, order: int, dependent: dict | None = None
) -> tuple[int, list[int], list[list[int]], list[list[int]]]:
    """(modulus, independent rows P, reduced echelon form, circuits) of the
    field that decides the rank of w**exponents; circuits [] mean full rank.

    In each field of the modular_context sequence the echelon form of the
    image's transpose names independent rows P.  An image of rank min(k, D)
    proves that rank.  Otherwise each other row i gives the support of a
    null vector within P + i, a candidate circuit (module docstring); when
    `minors.exact_rank` proves every candidate of that field dependent,
    that field is returned and the rank is exactly |P|.  A candidate that
    fails means the image lost rank mod q, and the next field is tried.  An
    exact rank holds in every field, so `dependent`, keyed by a candidate's
    exponent rows, keeps each verdict for the caller's later proofs.
    """
    if dependent is None:
        dependent = {}

    def proven(rows: np.ndarray) -> bool:
        key = rows.tobytes()
        if key not in dependent:
            dependent[key] = minors.exact_rank(rows, order) < len(rows)
        return dependent[key]

    k, dim = exponents.shape
    for index in itertools.count():
        ctx = minors.modular_context(order, index)
        _, basis, reduced = _modular_echelon(ctx.power_table()[exponents].T, ctx.modulus)
        if len(basis) == min(k, dim):
            return ctx.modulus, basis, reduced, []
        circuits = [
            sorted([i] + [b for b, row in zip(basis, reduced) if row[i]])
            for i in range(k) if i not in basis
        ]
        if all(proven(exponents[c]) for c in circuits):
            return ctx.modulus, basis, reduced, circuits


def rank_full(flat: FlatMatrix) -> tuple[bool, int, str]:
    """(has full row rank, exact rank, deciding method) for a FlatMatrix.

    A matrix of Fourier form has rank min(k, D) by Chebotarev's theorem
    ("chebotarev").  Any other matrix gets `_proven_circuits`: a modular
    image of rank min(k, D) certifies that rank ("modular"), and otherwise
    each proven circuit takes one row off the rank ("bordered").  Any
    root order will do: `minors` picks the fields and the proof bound for
    composite orders too.
    """
    k, dim = flat.exponents.shape
    if _fourier_form(flat):
        return k <= dim, min(k, dim), "chebotarev"
    return _proven_rank(flat)


def _proven_rank(flat: FlatMatrix) -> tuple[bool, int, str]:
    """`rank_full` of a matrix already known not to have Fourier form."""
    k, dim = flat.exponents.shape
    circuits = _proven_circuits(flat.exponents, flat.root_order)[3]
    if not circuits:
        return k <= dim, min(k, dim), "modular"
    return False, k - len(circuits), "bordered"


def _binomials(n: int, max_size: int) -> np.ndarray:
    """binom[c, i] = C(c, i) for c < n and i <= max_size."""
    return np.array(
        [[math.comb(c, i) for i in range(max_size + 1)] for c in range(n)], dtype=np.int64
    ).reshape(n, max_size + 1)


def _colex(sets: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Colex ranks sum_i C(c_i, i + 1) of the sorted s-sets in the rows of
    `sets`; they number the s-subsets of range(n) 0..C(n, s) - 1."""
    return binom[sets, np.arange(1, sets.shape[1] + 1)].sum(axis=1)


# A verify_all_bipartitions call needs one table per distinct side dimension:
# 32 serves any call up to five parties (2**5 - 2 sides) without a rebuild,
# yet bounds a long-lived process (3x3x3 at k=26 alone needs a 10 MB table).
@lru_cache(maxsize=32)
def _column_tables(ncols: int, max_size: int) -> tuple[list, list, list]:
    """Column sets of each size s up to max_size, in lexicographic order;
    per size the index in that order of each set by its colex rank; and per
    size an (s, C(ncols, s)) array: the index of each set without its
    pos-th column among the sets one smaller."""
    combos = [
        np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(ncols), s)),
            dtype=np.int64, count=s * math.comb(ncols, s),
        ).reshape(math.comb(ncols, s), s)
        for s in range(max_size + 1)
    ]
    binom = _binomials(ncols, max_size)
    lex = [np.argsort(_colex(sets, binom)) for sets in combos]
    drops = [None]
    for s, sets in enumerate(combos[1:], start=1):
        # without c_pos, the columns before it keep their colex terms
        # C(c_i, i + 1) and those after it move down to C(c_i, i)
        before, after = binom[sets, np.arange(1, s + 1)], binom[sets, np.arange(s)]
        kept = np.cumsum(before, axis=1) - before
        moved = np.cumsum(after[:, ::-1], axis=1)[:, ::-1] - after
        drops.append(lex[s - 1][(kept + moved).T])
    return combos, lex, drops


def _check_scan_reach(
    what: str, rows: int, cols: int, max_size: int, from_row_zero: bool = False
) -> None:
    """Raise ValueError unless a Laplace pass over the square minors up to
    max_size of a rows x cols matrix fits MAX_SCAN_BYTES and
    MAX_SCAN_MINORS (their comment); it builds no table.  The Fourier pass
    (`from_row_zero`) visits only the C(rows - 1, s - 1) row sets of each
    size s that hold row 0 and walks only the C(cols - 1, s - 1) column
    sets that hold column 0; its tables hold those alone."""
    # the peak grows with the size, so a huge order fails at size 1 without
    # forming a huge binomial
    held = expanding = tables = largest_table = 0
    matrices, objects = 2 * rows * cols, 0
    if from_row_zero:
        # a composite order's reduction modulo Phi_n has n x phi(n)
        # residues; 64 KiB covers the scan's Python objects and small arrays
        matrices += 0 if is_prime(rows) else rows * cols
        objects = 2**16
    for size in range(1, max_size + 1):
        columns = math.comb(cols, size)
        if from_row_zero:
            walked = math.comb(cols - 1, size - 1)
            table = math.comb(rows - 1, size - 1) * walked
            held += (2 * size + 2) * columns + ((size + 2) * rows + size) * walked
            expanding = max(expanding, (2 * rows + size) * walked)
        else:
            table = math.comb(rows, size) * columns
            residues = ((size + 1) * rows + 2 * size + 1) * columns
            held, expanding = held + residues, max(expanding, residues)
        tables, largest_table = tables + table, max(largest_table, table)
        peak = 8 * (matrices + held + expanding) + tables + largest_table + objects
        if peak > MAX_SCAN_BYTES:
            raise ValueError(
                f"{what} needs {peak} bytes at once up to size {size}, "
                f"above the supported {MAX_SCAN_BYTES}"
            )
    if tables > MAX_SCAN_MINORS:
        raise ValueError(f"{what} needs {tables} minors, above the supported {MAX_SCAN_MINORS}")


def largest_scan_size(order: int, max_size: int) -> int:
    """The largest size up to min(max_size, order) whose scan of this order
    `chebotarev_scan` admits, or 0 when even size 1 is out of reach."""
    for size in range(min(max_size, order), 0, -1):
        try:
            _check_scan_reach("", order, order, size, from_row_zero=True)
        except ValueError:
            continue
        return size
    return 0


def _zero_minors(
    matrix: np.ndarray, q: int, max_size: int, family: tuple, zero: list | None = None
) -> list:
    """Per size s up to max_size, which s x s minors have a zero image mod q.

    matrix holds residues mod q.  `family` is the column family to walk,
    per size s: the s-sets of columns, in lexicographic order; an (s, sets)
    array, the index of each set without its pos-th column among the sets
    one smaller; and, for the Fourier pass only (else None), the twist
    exponents (below).  zero[s][i, j] is True when the minor on the i-th
    s-set of rows, in lexicographic order, and the j-th set of the family
    has a zero image; zero[0], the empty minor, is False.  Tables passed in
    (a previous field's, or fresh ones) are and-ed in place.  The pass
    visits the row sets R depth first in lexicographic order and keeps the
    images det X[R, C] over the family's sets C with |C| = |R|.  The
    children R + x (x > max R) are consecutive row sets and take their
    images from the parent's by expansion along the new row, so a minor
    costs |C| multiply-adds, and memory stays near max_size * rows * (the
    family's sets of size max_size) residues besides the tables.

    The walk starts from the m rows of the size-1 table, so it visits the
    row sets whose least row is below m, the first C(rows, s) - C(rows - m,
    s) of each size s: tables made here have m = rows, and
    `chebotarev_scan` passes m = 1.  The spanning scan walks every column
    set; the Fourier pass walks only those that hold column 0
    (`_fourier_columns`), and its matrix is F_n's image, whose row 1 holds
    the powers of the root.  There the index at pos 0 is that of C without
    0, less c_1, and the image it reads is multiplied by root**(c_1 * sum R)
    for the parent's rows R: per size the exponents t * c_1 mod n, a row
    per row sum t, give that factor (module docstring).
    """
    sets, drops, exponents = family
    rows = len(matrix)
    if zero is None:
        zero = [np.full((math.comb(rows, s), len(sets[s])), s > 0) for s in range(max_size + 1)]
    # per size, expansion position pos and row x: X[x, C[pos]] times the
    # Laplace sign of position pos along the last row
    entries = [None]
    for s in range(1, max_size + 1):
        signed = matrix[:, sets[s].T].swapaxes(0, 1)
        signed[s % 2 :: 2] *= -1
        entries.append(signed)
    if exponents is not None:
        twists = [None] + [matrix[1, exponents[s]] for s in range(1, max_size + 1)]
    filled = [0] * (max_size + 1)
    # (size of the children, their first and past-last new row, the parent's
    # images and row sum); the children of a row set go on in reverse, so
    # the smallest comes off first
    stack = [(1, 0, len(zero[1]), np.ones(1, dtype=np.int64), 0)] if max_size else []
    while stack:
        size, first, stop, images, total = stack.pop()
        dropped = images[drops[size]]
        if exponents is not None and total % rows:
            dropped[0] *= twists[size][total % rows]
            dropped[0] %= q
        acc = np.einsum("pxc,pc->xc", entries[size][:, first:stop], dropped) % q
        zero[size][filled[size] : filled[size] + len(acc)] &= acc == 0
        filled[size] += len(acc)
        if size < max_size:
            children = range(first, min(stop, rows - 1))
            stack += [(size + 1, x + 1, rows, acc[x - first], total + x) for x in reversed(children)]
    return zero


def _circuit_zeros(flat: FlatMatrix, masks: np.ndarray) -> np.ndarray:
    """Which of the zero-image row sets, the rows of the boolean `masks`
    over the k rows, are exactly singular.

    The first set still open is closed by `_proven_circuits` of its rows:
    none means a field proved it nonsingular; otherwise every circuit
    returned is proven dependent, so every set that contains one,
    this set among them, is singular and closed too.  A candidate circuit
    that several sets hold gets its exact rank once.
    """
    zero = np.zeros(len(masks), dtype=bool)
    open_sets = np.ones(len(masks), dtype=bool)
    dependent = {}
    while open_sets.any():
        first = int(np.argmax(open_sets))
        open_sets[first] = False
        rows = np.flatnonzero(masks[first])
        for circuit in _proven_circuits(flat.exponents[rows], flat.root_order, dependent)[3]:
            covered = masks[:, rows[circuit]].all(axis=1)
            zero |= covered
            open_sets &= ~covered
    return zero


def spanning_property(flat: FlatMatrix) -> SpanningCheck:
    """Check that every dimension-sized row subset has full rank.

    A side of Fourier form passes by Chebotarev's theorem ("chebotarev");
    every other side gets the scan of `_spanning_scan` ("modular").

    Raises when the row count is below the side dimension, where the
    spanning hypothesis cannot hold, and when the scan is out of reach
    (`_check_scan_reach`).
    """
    k, dim = flat.exponents.shape
    if k < dim:
        raise ValueError(
            f"{k} vectors cannot satisfy the spanning hypothesis on a dimension-{dim} side"
        )
    if _fourier_form(flat):
        return _spanning_check(flat.parties, k, dim)
    return _spanning_check(flat.parties, k, dim, *_spanning_scan(flat), method="modular")


def _spanning_check(
    parties, k: int, dim: int, failures: int = 0, witness=None, method: str = "chebotarev"
) -> SpanningCheck:
    total = math.comb(k, dim)
    return SpanningCheck(
        parties=tuple(parties), dimension=dim, subsets_total=total, ok=failures == 0,
        witness=witness, failures=failures, methods={method: total},
    )


def _zero_image_reach(what: str, zero: list, k: int, cols: int) -> int:
    """The number of zero images in the tables of a spanning scan's pass
    over cols columns; raises ValueError unless, read out as row-set masks
    over k rows, they fit MAX_SCAN_BYTES (its comment)."""
    counts = [int(np.count_nonzero(table)) for table in zero]
    held = (
        sum(table.size for table in zero)
        + 8 * sum((2 * s + 1) * math.comb(cols, s) for s in range(len(zero)))
        + sum(counts) * (2 * k + 3)
        + max(count * (24 + 32 * s) for s, count in enumerate(counts))
    )
    if held > MAX_SCAN_BYTES:
        raise ValueError(
            f"{what} has {sum(counts)} zero images, which need {held} bytes at once, "
            f"above the supported {MAX_SCAN_BYTES}"
        )
    return sum(counts)


def _spanning_scan(flat: FlatMatrix) -> tuple[int, tuple[int, ...] | None]:
    """(failing row subsets, the first of them) of a side with k >= D rows.

    The field where `_proven_circuits` decides the side's rank gives the
    Schur complement A (module docstring); one Laplace pass mod q scans its
    square minors, and `_circuit_zeros` proves the zero images.  A side
    proven below rank D fails every subset.
    """
    k, dim = flat.exponents.shape
    q, basis, reduced, circuits = _proven_circuits(flat.exponents, flat.root_order)
    if circuits:
        return math.comb(k, dim), tuple(range(dim))  # every maximal minor vanishes
    rest = np.array([i for i in range(k) if i not in basis], dtype=np.int64)
    basis = np.array(basis, dtype=np.int64)
    schur = np.array(reduced, dtype=np.int64)[:, rest]  # A^T: rows follow basis, columns rest
    # the pass walks the row sets, so it runs on the side with fewer rows
    flipped = len(rest) < dim
    size = min(dim, len(rest))
    what, cols = f"a spanning scan of a {k} x {dim} side", max(dim, len(rest))
    _check_scan_reach(what, size, cols, size)
    col_sets, _, drops = _column_tables(cols, size)
    zero = _zero_minors(schur.T if flipped else schur, q, size, (col_sets, drops, None))
    masks = np.zeros((_zero_image_reach(what, zero, k, cols), k), dtype=bool)
    masks[:, basis] = True
    row_sets = _column_tables(size, size)[0]
    filled = 0
    for s, table in enumerate(zero):
        i, j = np.nonzero(table)
        row_set, col_set = row_sets[s][i], col_sets[s][j]
        dropped, added = (col_set, row_set) if flipped else (row_set, col_set)
        at = np.arange(filled, filled + len(i))[:, None]
        masks[at, basis[dropped]] = False
        masks[at, rest[added]] = True
        filled += len(i)
    failing = masks[_circuit_zeros(flat, masks)]
    if not len(failing):
        return 0, None
    # the lexicographically first sorted row set has the greatest mask
    first = failing[np.lexsort(failing.T[::-1])[-1]]
    return len(failing), tuple(np.flatnonzero(first).tolist())


def verify_all_bipartitions(params: ConstructionParams, table=None) -> ExactReport:
    """Full-rank plus per-cut spanning over every canonical bipartition.

    The exponents are read once, as one int block per party.  When the full
    matrix has Fourier form, so does every side (module docstring), and no
    side is built; otherwise each side is built and checked on its own.
    """
    ensure_valid(params, table)
    start = time.perf_counter()
    blocks = exponent_blocks(params, table)
    full = restricted_matrix(params, range(params.num_parties), blocks)
    fourier = _fourier_form(full)
    k = params.num_vectors

    def side_check(parties) -> SpanningCheck:
        if fourier:
            return _spanning_check(parties, k, math.prod(params.dims[m] for m in parties))
        return spanning_property(restricted_matrix(params, parties, blocks))

    # the cuts go first, so that a scan out of reach is refused before the
    # rank proof of a rank-deficient table, which can take seconds
    cuts = []
    for cut in enumerate_bipartitions(params.num_parties):
        left, right = side_check(cut.members), side_check(cut.complement)
        cuts.append(
            BipartitionCheck(
                members=cut.members,
                complement=cut.complement,
                required_vectors=left.dimension + right.dimension - 1,
                left=left,
                right=right,
            )
        )
    if fourier:
        full_rank, rank, method = k <= full.dimension, min(k, full.dimension), "chebotarev"
    else:
        full_rank, rank, method = _proven_rank(full)
    report = ExactReport(
        dims=params.dims,
        num_vectors=params.num_vectors,
        root_order=params.root_order,
        scales_exact=params.scales_exact,
        matrix_rank=rank,
        full_rank=full_rank,
        rank_method=method,
        bipartitions=cuts,
    )
    report.elapsed = time.perf_counter() - start
    return report


def _check_witnesses(witnesses, order: int) -> None:
    """Raise unless every witness minor of F_n is exactly zero.

    A minor of size s is sum_t c_t w**t with integer power counts c, and
    it is zero exactly when c @ R == 0, with R the reduction of the powers
    of w modulo the n-th cyclotomic polynomial
    (`cyclo.power_reduction_matrix`).  The counts come from a Laplace
    expansion along the rows, batched over the witnesses of one size: for
    each r-set C of columns, det X[:r, C] is the signed sum over pos of
    w**e[r - 1, C[pos]] * det X[:r - 1, C without C[pos]], and multiplying
    counts by w**e shifts them cyclically by e.  Only integer additions
    occur; no field, float or root of unity takes part, so the check is
    independent of the pass and the orbit proof.  An r x r minor has r!
    terms, so sum_t |c_t| <= r! and every reduced coefficient is at most
    s! * max|R|, which must stay within int64: it is checked before any
    expansion (1.3e12 * max|R| at size 15, the largest size in reach).
    """
    if not witnesses:
        return
    reduction = power_reduction_matrix(order)
    wheel = np.arange(order)
    by_size = {}
    for rows, cols in witnesses:
        by_size.setdefault(len(rows), []).append((rows, cols))
    for size, group in by_size.items():
        bound = math.factorial(size) * int(np.abs(reduction).max())
        if bound > np.iinfo(np.int64).max:
            raise ValueError(
                f"a size-{size} minor of order {order} reduces to coefficients up to {bound}, "
                "above int64"
            )
        row_sets, col_sets = (np.array(sets, dtype=np.int64) for sets in zip(*group))
        exponents = row_sets[:, :, None] * col_sets[:, None, :] % order
        combos, _, drops = _column_tables(size, size)
        # counts[i, m] are the power counts of det X_m[:r, C_i] for the i-th
        # r-set of columns C_i; r = 0 is the empty minor, w**0
        counts = np.zeros((1, len(group), order), dtype=np.int64)
        counts[..., 0] = 1
        for r in range(1, size + 1):
            expanded = np.zeros((len(combos[r]), len(group), order), dtype=np.int64)
            for pos in range(r):
                shift = exponents[:, r - 1, combos[r][:, pos]].T[:, :, None]
                term = np.take_along_axis(counts[drops[r][pos]], (wheel - shift) % order, axis=2)
                if (r - 1 + pos) % 2:
                    expanded -= term
                else:
                    expanded += term
            counts = expanded
        reduced = counts[0] @ reduction
        for (rows, cols), value in zip(group, reduced):
            if value.any():
                raise RuntimeError(
                    f"minor rows {rows} cols {cols} proved zero but its value is "
                    f"{value.tolist()} on the basis w**0..w**{len(value) - 1} of Z[w]"
                )


def _translated_rows(order: int, max_size: int) -> list:
    """Per size s, the index of R - min R among the s-sets that hold 0, for
    each s-set R of range(order) in lexicographic order: the sets that hold
    0 are the first C(n - 1, s - 1), and row R and column C of a full zero
    table of F_n are row R - min R and column C - min C of
    `_fourier_zero_images`' table (module docstring)."""
    combos, lex, _ = _column_tables(order, max_size)
    binom = _binomials(order, max_size)
    return [lex[s][_colex(sets - sets[:, :1], binom)] for s, sets in enumerate(combos)]


def _fourier_columns(order: int, max_size: int, translated: list) -> tuple[list, list, list]:
    """The column family of the Fourier pass (`_zero_minors`), per size s:
    the C(n - 1, s - 1) sets that hold column 0, which come first in
    lexicographic order; the index of each without its pos-th column among
    those one smaller, where at pos 0 it is C without 0, less c_1, read
    through `translated`; and the twist exponents t * c_1 mod n, a row per
    row sum t.  c_1 is a set's second column (0 for size 1, whose {0}
    drops to the empty set)."""
    combos, _, drops = _column_tables(order, max_size)
    sums = np.arange(order)[:, None]
    sets, reduced, exponents = [combos[0]], [None], [None]
    for s in range(1, max_size + 1):
        held = combos[s][: math.comb(order - 1, s - 1)]
        drop = drops[s][:, : len(held)].copy()
        drop[0] = translated[s - 1][drop[0]]
        sets.append(held)
        reduced.append(drop)
        exponents.append(sums * held[:, min(s, 2) - 1] % order)
    return sets, reduced, exponents


def _fourier_zero_images(order: int, max_size: int, translated: list) -> list:
    """Per size s, which s x s minors of F_n on the sets that hold 0 have a
    zero image in every field that the bound for max_size asks for.

    zero[s][i, j] is the minor on the i-th s-set of rows and the j-th s-set
    of columns that hold 0, in lexicographic order; `translated` is
    `_translated_rows`.  The Laplace pass runs from row 0 alone over the
    column family of `_fourier_columns` (`_zero_minors`), once per field,
    and-ed into these tables.
    """
    grid = np.outer(np.arange(order), np.arange(order)) % order
    family = _fourier_columns(order, max_size, translated)
    zero = [np.full((len(sets),) * 2, s > 0) for s, sets in enumerate(family[0])]
    for ctx in minors.proof_fields(order, max_size):
        zero = _zero_minors(ctx.power_table()[grid], ctx.modulus, max_size, family, zero)
    return zero


def chebotarev_scan(order: int, max_size: int) -> ChebotarevScan:
    """Enumerate all square minors of the order-n Fourier matrix up to a size.

    For prime order the expected witness list is empty (total
    nonsingularity); composite orders surface exactly-zero minors.

    det F[R + t, C] = w**(t * sum(C)) * det F[R, C] and det F[R, C + t] =
    w**(t * sum(R)) * det F[R, C], so (R, C) has a zero image exactly when
    (R - min R, C - min C) does: one Laplace pass mod q from row 0 alone
    (`_fourier_zero_images`) decides every minor's image while visiting
    only the C(n - 1, s - 1) row sets and column sets of each size s that
    hold 0.  A nonzero image proves a minor nonzero; a zero image is proven
    zero by its orbit under the units (module docstring), in every field
    that the bound m! * max|R| asks for (`minors.proof_fields`).  So the
    pass runs once per field that the largest size needs, and-ed into one
    table per size; a field beyond those a size needs changes nothing
    there, since the minors they prove zero vanish in every field.  The
    orbits are checked on these tables, and every other minor is then read
    by translation on both axes (`_translated_rows`).  Every recorded
    witness is then proven zero once more, exactly and independently of
    the pass: its integer power counts must reduce to zero modulo the n-th
    cyclotomic polynomial (`_check_witnesses`).

    Raises ValueError when the pass is out of reach (`_check_scan_reach`),
    which counts the row and column sets that hold 0, not every set.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    requested = max_size
    max_size = min(max_size, order)
    _check_scan_reach(
        f"a scan of order {order} to size {max_size}", order, order, max_size, from_row_zero=True
    )
    start = time.perf_counter()
    combos, lex, _ = _column_tables(order, max_size)
    binom = _binomials(order, max_size)
    translated = _translated_rows(order, max_size)
    zero = _fourier_zero_images(order, max_size, translated)
    zero_total = 0
    witnesses = []
    for size, (sets, table, moved) in enumerate(zip(combos, zero, translated)):
        if not table.any():  # a prime order's tables rarely hold a zero image
            continue
        with_zero = sets[: len(table)]
        for a in minors.units(order):
            table &= table[lex[size][_colex(np.sort(a * with_zero % order, axis=1), binom)]]
        # a set D that holds 0 stands for its n - max D translates, on
        # either axis; einsum counts them without widening the table
        copies = order - with_zero[:, -1]
        zero_total += int(np.einsum("i,ij,j->", copies, table, copies))
        rows = np.flatnonzero(table.any(axis=1)[moved])[:_WITNESS_CAP]
        full = table[moved[rows]][:, moved]
        at, cols = np.divmod(np.flatnonzero(full)[:_WITNESS_CAP], len(sets))
        witnesses += zip(map(tuple, sets[rows[at]].tolist()), map(tuple, sets[cols].tolist()))
    witnesses = witnesses[:_WITNESS_CAP]
    _check_witnesses(witnesses, order)
    return ChebotarevScan(
        order=order,
        max_size=max_size,
        requested_size=requested,
        prime=is_prime(order),
        checked={s: math.comb(order, s) ** 2 for s in range(1, max_size + 1)},
        witnesses=witnesses,
        zero_count=zero_total,
        elapsed=time.perf_counter() - start,
    )
