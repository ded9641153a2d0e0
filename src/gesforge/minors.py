"""Batched exact zero and nonzero tests for minors of root-power matrices.

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
  The converse does not hold, so a zero image only escalates the minor.
* multimodular zero proofs (von zur Gathen & Gerhard, Modern Computer
  Algebra, ch. 5): an m x m minor is sum_t c_t w**t with
  sum_t |c_t| <= m!.  Reduced modulo the cyclotomic polynomial Phi_n it
  is sum_i r_i w**i (i < phi(n)) with |r_i| <= m! * max|R|, R the
  reduction matrix of `cyclo.power_reduction_matrix`, and it is zero
  exactly when r = 0.  Phi_n splits into the distinct linear factors
  x - root**a mod q, so if the images under all phi(n) embeddings vanish,
  then r = 0 (mod q) by the invertible Vandermonde matrix on the root**a.
  Vanishing modulo primes whose product exceeds m! * max|R| therefore
  proves zero, and a single nonzero image proves nonzero.  For a prime
  order max|R| = 1 and the units are 1..p-1.  `proof_fields` owns this
  stopping rule.  The Fourier-minor scan of `exactverify` applies it
  without `multimodular_zero`: there each embedding of a minor is a
  column-permuted minor that its own pass has already reduced.
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
# Few survivors take several embeddings in one elimination of at most this
# many entries, paying an elimination's fixed cost once per group.
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


@lru_cache(maxsize=None)
def units(order: int) -> tuple[int, ...]:
    """The units a mod order: the embeddings w -> root**a onto the primitive roots."""
    return tuple(a for a in range(1, order) if math.gcd(a, order) == 1)


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


def multimodular_zero(exponents: np.ndarray, order: int) -> np.ndarray:
    """True where a minor is exactly zero (see module docstring).

    exponents: (N, m, m) integers modulo `order`.  The batch runs through
    the embeddings w -> root**a in each of the `proof_fields`; each group
    of images drops the minors it proves nonzero, so work and memory
    shrink to the zero survivors.
    """
    exponents = np.asarray(exponents, dtype=np.int64)
    n, m = exponents.shape[:2]
    zero = np.ones(n, dtype=bool)
    todo = np.arange(n)
    batch = exponents
    embeddings = units(order)
    for ctx in proof_fields(order, m):
        if not todo.size:
            break
        step = max(1, _STACKED_ENTRIES // max(1, todo.size * m * m))
        for lo in range(0, len(embeddings), step):
            group = np.array(embeddings[lo : lo + step])[:, None, None, None]
            certified = certify_nonzero_mod((batch * group % order).reshape(-1, m, m), ctx)
            nonzero = certified.reshape(len(group), -1).any(axis=0)
            zero[todo[nonzero]] = False
            todo, batch = todo[~nonzero], batch[~nonzero]
            if todo.size == 0:
                break
    return zero
