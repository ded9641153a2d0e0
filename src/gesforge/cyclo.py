"""Integer arithmetic with roots of unity: primality, cyclotomic polynomials.

For any order n, `power_reduction_matrix` reduces the powers of
w = exp(2*pi*1j/n) modulo the n-th cyclotomic polynomial Phi_n, so an
integer combination sum_t c_t w**t is zero exactly when c @ R == 0.  The
multimodular zero proofs of `minors` take their coefficient bound from it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["is_prime", "cyclotomic_polynomial", "power_reduction_matrix"]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _int_poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    lead = den[-1]
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c, rem = divmod(num[k + len(den) - 1], lead)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        quot[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    if n < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (n - 1) + [1]  # x**n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def power_reduction_matrix(n: int) -> np.ndarray:
    """Row t is x**t reduced modulo the n-th cyclotomic polynomial.

    Shape (n, deg Phi_n), int64, read-only.  A count vector c over the
    powers {w**0, ..., w**(n-1)} represents zero exactly when c @ R == 0.
    """
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(n):
        rows.append(list(cur))
        top = cur[deg - 1]
        cur = [0] + cur[: deg - 1]
        if top:
            for j in range(deg):
                cur[j] -= top * phi[j]
    out = np.array(rows, dtype=np.int64)
    out.setflags(write=False)
    return out

