"""Exact zero proofs and ranks for root-power matrices, batched mod q.

Every matrix handled here has entries of the form scale_j * w**e[i, j]
where w is a primitive root of unity of a fixed order n and scale_j is a
nonzero per-column constant.  A nonzero column scale multiplies each minor
by a nonzero factor, so every verdict depends on the exponents alone and
the scales are ignored.

Every order, prime or composite, is decided by one modular engine.  Entries
are pushed through ring homomorphisms Z[w] -> F_q, w -> root**a, with root
of exact order n in F_q for deterministically chosen primes q = 1 (mod n)
and a running over the phi(n) units mod n:

* certificates: a determinant that is nonzero mod q is nonzero, full stop.
  The converse does not hold, so a zero image decides nothing alone: the
  exact rank below settles it (the rank and the spanning check), or its
  orbit does (the Fourier-minor scan of `exactverify`).
* zero proofs (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 5):
  an m x m minor is sum_t c_t w**t with sum_t |c_t| <= m!.  Reduced
  modulo the cyclotomic polynomial Phi_n it is sum_i r_i w**i
  (i < phi(n)) with |r_i| <= m! * max|R|, R the reduction matrix of
  `cyclo.power_reduction_matrix`, and it is zero exactly when r = 0.
  Phi_n splits into the distinct linear factors x - root**a mod q, so if
  the images under all phi(n) embeddings vanish, then r = 0 (mod q) by the
  invertible Vandermonde matrix on the root**a.  Vanishing modulo primes
  whose product exceeds m! * max|R| therefore proves zero, and a single
  nonzero image proves nonzero.  For a prime order max|R| = 1 and the
  units are 1..p-1.  `proof_fields` owns this stopping rule.
* exact ranks: the rank r of a k x D matrix w**E is the size of its
  largest nonzero minor.  No image has a larger nonzero minor, and a
  nonzero r x r minor has a nonzero image under some unit in one of the
  fields that the bound for min(k, D) asks for.  So `exact_rank` is the
  largest image rank over those units and fields, and rows C are proven
  dependent when every image of E[C] has rank below |C|: then every
  maximal minor of E[C] is zero.  The Fourier-minor scan of `exactverify`
  applies the zero proof by lookup instead: there each embedding of a
  minor is a column-permuted minor that its own pass has already reduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclo import is_prime, power_reduction_matrix

# Large moduli keep spurious zero images rare (about size/q per minor), so
# escalations to the zero proof stay exceptional.
_MODULUS_FLOOR = 1_000_000
# An exact rank takes its embeddings in groups of at most this many entries,
# paying a batched elimination's fixed cost once per group.
_STACKED_ENTRIES = 1 << 16


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


@lru_cache(maxsize=None)
def units(order: int) -> np.ndarray:
    """The units a mod order: the embeddings w -> root**a onto the primitive roots."""
    a = np.arange(1, order, dtype=np.int64)
    a = a[np.gcd(a, order) == 1]
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def proof_fields(order: int, size: int) -> tuple[ModularContext, ...]:
    """The first fields of the modular_context sequence whose moduli multiply
    past size! * max|R|: a size x size minor whose images vanish in each of
    them, under every unit, is zero (module docstring)."""
    # a prime order has max|R| = 1 (x**(p-1) = -(1 + x + ... + x**(p-2))),
    # and R itself would take order**2 entries
    reduction_max = 1 if is_prime(order) else int(np.abs(power_reduction_matrix(order)).max())
    bound = math.factorial(size) * reduction_max
    fields, product = [], 1
    while product <= bound:
        fields.append(modular_context(order, len(fields)))
        product *= fields[-1].modulus
    return tuple(fields)


def _rank_mod(values: np.ndarray, q: int) -> np.ndarray:
    """Ranks over F_q of a stack of matrices, values (N, k, D) residues mod q.

    Division-free echelon form, one row at a time: row i is reduced by each
    earlier reduced row s, in order, as piv_s * row - row[c_s] * row_s
    (c_s the first nonzero column of row s, piv_s its entry there), which
    scales the row by a nonzero factor and clears column c_s.  The rank is
    the number of rows that stay nonzero; a zero row, given piv 1, leaves
    the later rows as they are.
    """
    n, k, dim = values.shape
    reduced = np.zeros((k, n, dim), dtype=np.int64)
    cols = np.zeros((k, n), dtype=np.int64)
    pivots = np.ones((k, n, 1), dtype=np.int64)
    rank = np.zeros(n, dtype=np.int64)
    at = np.arange(n)
    for i in range(k):
        row = values[:, i]
        for s in range(i):
            row = (pivots[s] * row - row[at, cols[s]][:, None] * reduced[s]) % q
        cols[i] = (row != 0).argmax(axis=1)
        pivot = row[at, cols[i]]
        rank += pivot != 0
        reduced[i], pivots[i, :, 0] = row, np.where(pivot, pivot, 1)
    return rank


def exact_rank(exponents: np.ndarray, order: int) -> int:
    """The rank of w**exponents over Q(w), for a (k, D) exponent table.

    No image of the matrix under w -> root**a has more than its rank r, and
    its nonzero r x r minor has a nonzero image under some unit in one of
    the `proof_fields` of min(k, D) (module docstring).  So the rank is the
    largest image rank; embeddings go in groups of at most _STACKED_ENTRIES
    entries, and the search stops once an image reaches min(k, D).
    """
    exponents = np.asarray(exponents, dtype=np.int64) % order
    k, dim = exponents.shape
    full, rank = min(k, dim), 0
    embeddings = units(order)
    step = max(1, _STACKED_ENTRIES // max(1, k * dim))
    for ctx in proof_fields(order, full):
        for lo in range(0, len(embeddings), step):
            group = embeddings[lo : lo + step, None, None]
            images = ctx.power_table()[group * exponents % order]
            rank = max(rank, int(_rank_mod(images, ctx.modulus).max()))
            if rank == full:
                return rank
    return rank
