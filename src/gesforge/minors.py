"""Batched exact zero and nonzero tests for minors of root-power matrices.

Every matrix handled here has entries of the form scale_j * w**e[i, j]
where w is a root of unity of a fixed order and scale_j is a nonzero
per-column constant.  A nonzero column scale multiplies each minor by a
nonzero factor, so every verdict depends on the exponents alone and the
scales are ignored.

Prime orders are decided by one modular engine.  Entries are pushed
through ring homomorphisms Z[w] -> F_q, w -> root**a, with root of exact
order p in F_q for deterministically chosen primes q = 1 (mod p):

* certificates: a determinant that is nonzero mod q is nonzero, full stop.
  The converse does not hold, so a zero image only escalates the minor.
* multimodular zero proofs (von zur Gathen & Gerhard, Modern Computer
  Algebra, ch. 5): an m x m minor is sum_t c_t w**t with
  sum_t |c_t| <= m!, and it is zero exactly when every
  d_t = c_t - c_{p-1} (t < p-1) is zero.  If its images under all p - 1
  embeddings a = 1..p-1 vanish mod q, then d = 0 (mod q), because the
  Vandermonde matrix on the distinct root**a is invertible.  Vanishing
  modulo primes whose product exceeds m! >= |d_t| therefore proves zero,
  and a single nonzero image proves nonzero.

Composite orders only occur in negative controls; their determinants are
expanded into integer count vectors over the powers of w and reduced
modulo the cyclotomic polynomial, which decides zero exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclo import is_prime, power_counts_are_zero

# Large moduli keep spurious zero images rare (about size/q per minor), so
# escalations to the zero proof stay exceptional.
_MODULUS_FLOOR = 1_000_000

# Subset dynamic programming is exponential in the minor size.
_DP_SIZE_LIMIT = 14


@dataclass(frozen=True)
class ModularContext:
    """A prime field together with an image of w of exact order `order`."""

    order: int
    modulus: int
    root: int

    def power_table(self) -> np.ndarray:
        return _power_table(self.order, self.modulus, self.root)


@lru_cache(maxsize=None)
def _power_table(order: int, modulus: int, root: int) -> np.ndarray:
    table = np.empty(order, dtype=np.int64)
    value = 1
    for t in range(order):
        table[t] = value
        value = value * root % modulus
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def modular_context(order: int, index: int = 0) -> ModularContext:
    """Deterministic choice of the (index+1)-th usable prime field.

    q runs over primes with q = 1 (mod order) starting at a fixed floor;
    the root image is h**((q-1)/order) for the smallest h that gives an
    element of exact multiplicative order `order`.
    """
    if order < 2:
        raise ValueError("root order must be at least 2")
    q = _MODULUS_FLOOR - (_MODULUS_FLOOR % order) + 1
    while q < _MODULUS_FLOOR:
        q += order
    found = 0
    while True:
        if is_prime(q):
            if found == index:
                break
            found += 1
        q += order
    factors = [f for f in range(2, order + 1) if order % f == 0 and is_prime(f)]
    for h in range(2, q):
        root = pow(h, (q - 1) // order, q)
        if all(pow(root, order // f, q) != 1 for f in factors):
            return ModularContext(order=order, modulus=q, root=root)
    raise RuntimeError(f"no element of order {order} mod {q}")


def certify_nonzero_mod(exponents: np.ndarray, ctx: ModularContext) -> np.ndarray:
    """True where the minor's image in F_q is nonzero, which certifies it.

    exponents: (N, k, k) integers modulo the order.  Division-free
    elimination: rows below the pivot are replaced by piv*row - c*pivrow,
    which scales the determinant by nonzero factors mod q.  A zero pivot is
    swapped for the first nonzero entry below it, so False means the image
    is zero, not merely that the certificate was withheld.
    """
    q = ctx.modulus
    a = ctx.power_table()[exponents]
    n, k, _ = a.shape
    alive = np.ones(n, dtype=bool)
    for r in range(k):
        stuck = np.nonzero(alive & (a[:, r, r] == 0))[0]
        if stuck.size:
            below = a[stuck, r:, r] != 0
            found = below.any(axis=1)
            alive[stuck[~found]] = False
            swap = stuck[found]
            at = r + below[found].argmax(axis=1)
            pivot_rows = a[swap, at]
            a[swap, at] = a[swap, r]
            a[swap, r] = pivot_rows
        if r == k - 1:
            break
        piv = a[:, r, r][:, None, None]
        coeff = a[:, r + 1 :, r][:, :, None]
        block = a[:, r + 1 :, r + 1 :]
        np.remainder(piv * block - coeff * a[:, r : r + 1, r + 1 :], q, out=block)
    return alive


def multimodular_zero(exponents: np.ndarray, order: int) -> np.ndarray:
    """True where a prime-order minor is exactly zero (see module docstring).

    exponents: (N, m, m) integers modulo the prime `order`.  The batch runs
    through the embeddings w -> root**a one at a time, over successive
    fields until their moduli multiply past m!; each image drops the minors
    it proves nonzero, so work and memory shrink to the zero survivors.
    """
    if not is_prime(order):
        raise ValueError("multimodular zero proofs require a prime order")
    exponents = np.asarray(exponents, dtype=np.int64)
    n, m = exponents.shape[:2]
    zero = np.ones(n, dtype=bool)
    todo = np.arange(n)
    batch = exponents
    bound = math.factorial(m)
    product = 1
    index = 0
    while product <= bound and todo.size:
        ctx = modular_context(order, index)
        for a in range(1, order):
            nonzero = certify_nonzero_mod(batch if a == 1 else batch * a % order, ctx)
            zero[todo[nonzero]] = False
            todo, batch = todo[~nonzero], batch[~nonzero]
            if todo.size == 0:
                break
        product *= ctx.modulus
        index += 1
    return zero


def det_power_counts(exponents: np.ndarray, order: int) -> np.ndarray:
    """Exact determinants of root-power matrices as integer count vectors.

    exponents: (N, k, k) integers modulo `order`.  Returns (N, order) int64
    counts c with det = sum_t c[t] * w**t, built by Laplace expansion with
    dynamic programming over column subsets; multiplying by w**e is a
    cyclic index shift, so only integer additions occur.
    """
    exponents = np.asarray(exponents, dtype=np.int64)
    n, k, _ = exponents.shape
    base = np.zeros((n, order), dtype=np.int64)
    base[:, 0] = 1
    if k == 0:
        return base
    if k > _DP_SIZE_LIMIT:
        raise ValueError(f"subset expansion limited to size {_DP_SIZE_LIMIT}")
    wheel = np.arange(order)[None, :]
    prev = {(): base}
    for r in range(1, k + 1):
        cur = {}
        for subset in itertools.combinations(range(k), r):
            acc = np.zeros((n, order), dtype=np.int64)
            for pos, j in enumerate(subset):
                rest = subset[:pos] + subset[pos + 1 :]
                idx = (wheel - exponents[:, r - 1, j][:, None]) % order
                shifted = np.take_along_axis(prev[rest], idx, axis=1)
                if (r - 1 + pos) % 2:
                    acc -= shifted
                else:
                    acc += shifted
            cur[subset] = acc
        prev = cur
    return prev[tuple(range(k))]


def decide_nonzero(
    exponents: np.ndarray, order: int, stats: dict | None = None
) -> np.ndarray:
    """Exact nonzero verdicts for a batch of minors.

    exponents: (N, k, k) integers modulo `order`.  Prime orders are decided
    by the multimodular zero proof, whose first image settles almost every
    nonzero minor; composite orders use the integer reduction route.
    Column scales are not taken: nonzero scales cannot change a verdict.
    """
    exponents = np.asarray(exponents, dtype=np.int64)
    n = exponents.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    if is_prime(order):
        method, zero = "modular", multimodular_zero(exponents, order)
    else:
        method = "reduction"
        zero = power_counts_are_zero(det_power_counts(exponents, order), order)
    if stats is not None:
        stats[method] = stats.get(method, 0) + n
    return ~zero


def iter_index_combinations(n: int, size: int, chunk: int):
    """Yield lexicographic size-subsets of range(n) as (N, size) int64 blocks."""
    it = itertools.combinations(range(n), size)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            return
        yield np.array(block, dtype=np.int64)
