"""Exact arithmetic in prime-order cyclotomic fields.

Values are elements of Q(i)(w) for a prime order p, where w = exp(2*pi*1j/p).
They are stored on the power basis {1, w, ..., w**(p-2)} using the relation
1 + w + ... + w**(p-1) = 0, so the representation is unique and equality or
zero tests reduce to coefficient comparison.  Coefficients are Gaussian
rationals (exact rational real and imaginary parts); keeping i inside the
coefficient ring lets column scale factors with rational real/imaginary
parts live in the same field as the roots of unity.

Composite orders are not field elements here and only occur in negative
controls.  For any order n, `power_reduction_matrix` reduces the powers of
exp(2*pi*1j/n) modulo the n-th cyclotomic polynomial; the multimodular
zero proofs of `minors` take their coefficient bound from it.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "GaussianRational",
    "CycNum",
    "CycMatrix",
    "root_power",
    "det",
    "rank",
    "is_prime",
    "cyclotomic_polynomial",
    "power_reduction_matrix",
]


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


class GaussianRational:
    """Exact complex scalar a + b*i with rational a and b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("GaussianRational parts must be exact (int, Fraction, str)")
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"GaussianRational({str(self.re)!r}, {str(self.im)!r})"


_GR_ZERO = GaussianRational(0)
_GR_ONE = GaussianRational(1)


# ---------------------------------------------------------------------------
# polynomial helpers over GaussianRational, used for field inversion


def _poly_trim(coeffs: list) -> list:
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    return coeffs


def _poly_sub(a: list, b: list) -> list:
    out = list(a) + [_GR_ZERO] * (len(b) - len(a))
    for k, v in enumerate(b):
        out[k] = out[k] - v
    return _poly_trim(out)


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [_GR_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai.is_zero:
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _poly_trim(out)


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    num = list(num)
    lead = den[-1]
    if len(num) < len(den):
        return [], _poly_trim(num)
    quot = [_GR_ZERO] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1] / lead
        quot[k] = c
        if not c.is_zero:
            for j, d in enumerate(den):
                num[k + j] = num[k + j] - c * d
    return _poly_trim(quot), _poly_trim(num[: len(den) - 1])


class CycNum:
    """Element of Q(i)(w), w a primitive root of unity of prime order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if not is_prime(order):
            raise ValueError(
                f"order {order} is not prime; composite orders are handled by the "
                "power-count helpers, not by field elements"
            )
        coeffs = tuple(GaussianRational.coerce(c) for c in coeffs)
        if len(coeffs) != order - 1:
            raise ValueError(
                f"expected {order - 1} coefficients for order {order}, got {len(coeffs)}"
            )
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def zero(cls, order: int) -> "CycNum":
        return cls(order, (_GR_ZERO,) * (order - 1))

    @classmethod
    def one(cls, order: int) -> "CycNum":
        return cls.from_scalar(1, order)

    @classmethod
    def from_scalar(cls, value, order: int) -> "CycNum":
        c = [GaussianRational.coerce(value)] + [_GR_ZERO] * (order - 2)
        return cls(order, c)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def _require_same(self, other: "CycNum") -> None:
        if self.order != other.order:
            raise ValueError(f"mixed orders {self.order} and {other.order}")

    def __add__(self, other):
        if isinstance(other, CycNum):
            self._require_same(other)
            return CycNum(self.order, (a + b for a, b in zip(self.coeffs, other.coeffs)))
        return self + CycNum.from_scalar(other, self.order)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.order, (-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, CycNum):
            self._require_same(other)
            return CycNum(self.order, (a - b for a, b in zip(self.coeffs, other.coeffs)))
        return self - CycNum.from_scalar(other, self.order)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, CycNum):
            scalar = GaussianRational.coerce(other)
            return CycNum(self.order, (c * scalar for c in self.coeffs))
        self._require_same(other)
        p = self.order
        m = p - 1
        # convolve, then fold exponents with w**p = 1 and the basis relation
        # w**(p-1) = -(1 + w + ... + w**(p-2))
        acc = [_GR_ZERO] * p
        for i, ai in enumerate(self.coeffs):
            if ai.is_zero:
                continue
            for j, bj in enumerate(other.coeffs):
                if bj.is_zero:
                    continue
                acc[(i + j) % p] = acc[(i + j) % p] + ai * bj
        tail = acc[m]
        return CycNum(p, (acc[t] - tail for t in range(m)))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        p = self.order
        modulus = [_GR_ONE] * p  # 1 + x + ... + x**(p-1)
        r_prev, r_cur = _poly_trim(list(self.coeffs)), list(modulus)
        u_prev, u_cur = [_GR_ONE], []
        while r_cur:
            quot, rem = _poly_divmod(r_prev, r_cur)
            r_prev, r_cur = r_cur, rem
            u_prev, u_cur = u_cur, _poly_sub(u_prev, _poly_mul(quot, u_cur))
        if len(r_prev) != 1:
            raise RuntimeError("gcd with the cyclotomic modulus is not a unit")
        scale = _GR_ONE / r_prev[0]
        inv = [c * scale for c in u_prev]
        if len(inv) >= p:
            _, inv = _poly_divmod(inv, modulus)
        inv = inv + [_GR_ZERO] * (p - 1 - len(inv))
        return CycNum(p, inv)

    def __truediv__(self, other):
        if isinstance(other, CycNum):
            self._require_same(other)
            return self * other.inverse()
        return self * (_GR_ONE / GaussianRational.coerce(other))

    def __eq__(self, other):
        if not isinstance(other, CycNum):
            if isinstance(other, (int, Fraction, GaussianRational)):
                return self == CycNum.from_scalar(other, self.order)
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def to_complex(self) -> complex:
        p = self.order
        return sum(
            (c.to_complex() * cmath.exp(2j * cmath.pi * t / p) for t, c in enumerate(self.coeffs)),
            0j,
        )

    def __repr__(self):
        terms = [f"{c!r}*w{t}" for t, c in enumerate(self.coeffs) if not c.is_zero]
        body = " + ".join(terms) if terms else "0"
        return f"CycNum(order={self.order}: {body})"


def root_power(exponent: int, order: int) -> CycNum:
    """w**exponent as a CycNum, exponent taken modulo the prime order."""
    e = exponent % order
    if e < order - 1:
        coeffs = [_GR_ZERO] * (order - 1)
        coeffs[e] = _GR_ONE
        return CycNum(order, coeffs)
    minus_one = -_GR_ONE
    return CycNum(order, (minus_one,) * (order - 1))


class CycMatrix:
    """Dense matrix of CycNum entries sharing one order, row-major."""

    __slots__ = ("rows", "cols", "order", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match the matrix shape")
        if not entries:
            raise ValueError("empty matrix")
        order = entries[0].order
        if any(e.order != order for e in entries):
            raise ValueError("entries mix different orders")
        self.rows = rows
        self.cols = cols
        self.order = order
        self.entries = entries

    @classmethod
    def from_rows(cls, rows) -> "CycMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, (e for r in rows for e in r))

    def entry(self, i: int, j: int) -> CycNum:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[CycNum]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def submatrix(self, row_idx, col_idx) -> "CycMatrix":
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        ents = (self.entry(i, j) for i in row_idx for j in col_idx)
        return CycMatrix(len(row_idx), len(col_idx), ents)

    def to_complex_array(self) -> np.ndarray:
        out = np.empty((self.rows, self.cols), dtype=complex)
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = self.entry(i, j).to_complex()
        return out

    def __repr__(self):
        return f"CycMatrix({self.rows}x{self.cols}, order={self.order})"


def det(matrix: CycMatrix) -> CycNum:
    """Exact determinant by Gaussian elimination over the field."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    n = matrix.rows
    a = [matrix.row(i) for i in range(n)]
    sign = 1
    out = CycNum.one(matrix.order)
    for col in range(n):
        piv_row = next((r for r in range(col, n) if not a[r][col].is_zero), None)
        if piv_row is None:
            return CycNum.zero(matrix.order)
        if piv_row != col:
            a[col], a[piv_row] = a[piv_row], a[col]
            sign = -sign
        piv = a[col][col]
        out = out * piv
        inv = piv.inverse()
        for r in range(col + 1, n):
            if a[r][col].is_zero:
                continue
            f = a[r][col] * inv
            for c in range(col + 1, n):
                a[r][c] = a[r][c] - f * a[col][c]
            a[r][col] = CycNum.zero(matrix.order)
    return out if sign > 0 else -out


def rank(matrix: CycMatrix) -> int:
    """Exact rank by row echelon over the field."""
    a = [matrix.row(i) for i in range(matrix.rows)]
    r = 0
    for col in range(matrix.cols):
        piv_row = next((i for i in range(r, matrix.rows) if not a[i][col].is_zero), None)
        if piv_row is None:
            continue
        a[r], a[piv_row] = a[piv_row], a[r]
        inv = a[r][col].inverse()
        for i in range(r + 1, matrix.rows):
            if a[i][col].is_zero:
                continue
            f = a[i][col] * inv
            for c in range(col + 1, matrix.cols):
                a[i][c] = a[i][c] - f * a[r][c]
            a[i][col] = CycNum.zero(matrix.order)
        r += 1
        if r == matrix.rows:
            break
    return r


# ---------------------------------------------------------------------------
# composite-order support: integer combinations of powers of exp(2*pi*1j/n)


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

