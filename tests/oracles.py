"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: permutation-expansion determinants,
the Leibniz formula and integer subset expansion of determinants over the
powers of a root of unity, ranks by minors, dense grid searches,
reduced-density Schmidt coefficients, the alternating biproduct search
run one restart at a time, and the family's amplitudes as one Kronecker
chain of per-party amplitudes per vector.  None of it shares code with the
package, so agreement is meaningful evidence; the one exception is the
cyclotomic reduction matrix that `power_counts_are_zero` reads, which
`test_cyclo` checks against numeric roots of unity.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np
from scipy.optimize import minimize

from gesforge.cyclo import power_reduction_matrix
from gesforge.numcert import MAX_SWEEPS, TOL

# Subset expansion is exponential in the minor size.
DP_SIZE_LIMIT = 14


def det_permutation_sum(rows):
    """Determinant by the Leibniz formula over any commutative ring.

    `rows` is a square nested list; entries need +, * and unary -.
    Exponential cost, fine for the sizes tests use (n <= 5).
    """
    n = len(rows)
    assert all(len(r) == n for r in rows)
    total = None
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        if inversions % 2:
            term = -term
        total = term if total is None else total + term
    return total


def det_power_counts(exponents, order: int) -> np.ndarray:
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
    if k > DP_SIZE_LIMIT:
        raise ValueError(f"subset expansion limited to size {DP_SIZE_LIMIT}")
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


def power_counts_are_zero(counts, order: int) -> np.ndarray:
    """Exact zero test for integer combinations sum_t counts[..., t] * w**t."""
    counts = np.asarray(counts, dtype=np.int64)
    reduced = counts @ power_reduction_matrix(order)
    return (reduced == 0).all(axis=-1)


def det_leibniz_counts(exponents, order: int) -> np.ndarray:
    """Determinants of root-power matrices by the Leibniz formula.

    exponents: (..., k, k) integers.  Returns (..., order) counts c with
    det = sum_t c[t] * w**t: each permutation adds its sign at index
    sum_i e[i, perm(i)] mod order.  Cost k! per matrix, so keep k <= 6.
    """
    exponents = np.asarray(exponents, dtype=np.int64)
    k = exponents.shape[-1]
    flat = exponents.reshape(math.prod(exponents.shape[:-2]), k, k)
    counts = np.zeros((len(flat), order), dtype=np.int64)
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
        index = flat[:, range(k), perm].sum(axis=1) % order
        np.add.at(counts, (np.arange(len(flat)), index), -1 if inversions % 2 else 1)
    return counts.reshape(exponents.shape[:-2] + (order,))


def rank_by_minors(exponents, order: int) -> int:
    """Exact rank of a root-power matrix: its largest nonzero minor's size."""
    exponents = np.asarray(exponents, dtype=np.int64)
    rows, cols = exponents.shape
    for size in range(min(rows, cols), 0, -1):
        minors = np.array([
            exponents[np.ix_(r, c)]
            for r in itertools.combinations(range(rows), size)
            for c in itertools.combinations(range(cols), size)
        ])
        if not power_counts_are_zero(det_leibniz_counts(minors, order), order).all():
            return size
    return 0


def _qubit_state(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta) * np.exp(1j * phi)])


def min_biproduct_grid(grouped: np.ndarray, n_theta: int = 121, n_phi: int = 240) -> float:
    """Minimum of <a (x) b| G |a (x) b> when the `a` side is a qubit.

    `grouped` is G reshaped to (2, m, 2, m) with the qubit side first.  For
    each qubit state a on a dense (theta, phi) grid, the inner problem over
    b is solved exactly as the smallest eigenvalue of the 2x2-contracted
    operator; a Nelder-Mead polish then refines the best grid cell.  No
    alternating steps anywhere.
    """
    assert grouped.shape[0] == 2 and grouped.shape[2] == 2

    def inner(angles) -> float:
        a = _qubit_state(angles[0], angles[1])
        eff = np.einsum("aibj,a,b->ij", grouped, a.conj(), a)
        return float(np.linalg.eigvalsh(eff)[0])

    best = np.inf
    best_angles = (0.0, 0.0)
    for theta in np.linspace(0.0, math.pi / 2, n_theta):
        for phi in np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False):
            v = inner((theta, phi))
            if v < best:
                best = v
                best_angles = (theta, phi)
    res = minimize(inner, best_angles, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
    return min(best, float(res.fun))


def max_overlap_grid(grouped: np.ndarray, n_theta: int = 121, n_phi: int = 240) -> float:
    """Same scheme as min_biproduct_grid but maximizing (largest eigenvalue)."""
    assert grouped.shape[0] == 2 and grouped.shape[2] == 2

    def inner(angles) -> float:
        a = _qubit_state(angles[0], angles[1])
        eff = np.einsum("aibj,a,b->ij", grouped, a.conj(), a)
        return -float(np.linalg.eigvalsh(eff)[-1])

    best = np.inf
    best_angles = (0.0, 0.0)
    for theta in np.linspace(0.0, math.pi / 2, n_theta):
        for phi in np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False):
            v = inner((theta, phi))
            if v < best:
                best = v
                best_angles = (theta, phi)
    res = minimize(inner, best_angles, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
    return -min(best, float(res.fun))


def alternating_extremum_reference(grouped: np.ndarray, minimize: bool, options, stream):
    """The alternating eigenvector search, one restart after another.

    The restarts read their starts in order from the cut's one seeded
    stream, block r of a (restarts, 2, d_right) normal draw for restart r,
    as the package's stacked search does.  Each restart runs its own
    einsum/eigh sweeps until its value moves by less than TOL, or for at
    most MAX_SWEEPS sweeps; the best restart wins, ties going to the
    earliest.  Returns (value, left, right, sweeps, converged).
    """
    d_left, d_right = grouped.shape[0], grouped.shape[1]
    pick = 0 if minimize else -1
    better = (lambda a, b: a < b) if minimize else (lambda a, b: a > b)
    seq = np.random.SeedSequence(entropy=options.seed, spawn_key=stream)
    draw = np.random.default_rng(seq).standard_normal((options.restarts, 2, d_right))
    best = None
    for restart in range(options.restarts):
        right = draw[restart, 0] + 1j * draw[restart, 1]
        right = right / np.linalg.norm(right)
        left = None
        value = None
        converged = False
        sweeps = 0
        for sweep in range(MAX_SWEEPS):
            sweeps = sweep + 1
            eff_left = np.einsum("abcd,b,d->ac", grouped, right.conj(), right)
            w, vecs = np.linalg.eigh((eff_left + eff_left.conj().T) / 2)
            left = vecs[:, pick]
            eff_right = np.einsum("abcd,a,c->bd", grouped, left.conj(), left)
            w, vecs = np.linalg.eigh((eff_right + eff_right.conj().T) / 2)
            right = vecs[:, pick]
            new_value = float(w[pick])
            if value is not None and abs(new_value - value) < TOL:
                value = new_value
                converged = True
                break
            value = new_value
        candidate = (value, left, right, sweeps, converged)
        if best is None or better(value, best[0]):
            best = candidate
    return best


def schmidt_by_reduced_density(state: np.ndarray, left_dim: int, right_dim: int) -> np.ndarray:
    """Schmidt coefficients from the left reduced density operator.

    Avoids the SVD on purpose: eigenvalues of rho = X X^dag are the squared
    coefficients.
    """
    x = np.asarray(state, dtype=complex).reshape(left_dim, right_dim)
    rho = x @ x.conj().T
    eigs = np.linalg.eigvalsh(rho)[::-1]
    return np.sqrt(np.clip(eigs, 0.0, None))


def local_amplitudes(root_order: int, exponents, scales=None) -> np.ndarray:
    """One party's amplitudes scale[s] * exp(2 pi i e_s / p), level by level."""
    amps = np.array([cmath.exp(2j * cmath.pi * e / root_order) for e in exponents])
    if scales is not None:
        # exact scales are read through their rational parts, not the package
        values = [s if isinstance(s, complex) else float(s.re) + 1j * float(s.im) for s in scales]
        amps = amps * np.array(values)
    return amps


def kron_family(params, table) -> np.ndarray:
    """The family's (K, D) amplitudes, vector by vector, as a Kronecker chain
    of the parties' local amplitudes (party 0 most significant)."""
    rows = []
    for vector in table:
        out = np.array([1.0 + 0j])
        for m, exponents in enumerate(vector):
            scales = None if params.scales is None else params.scales[m]
            out = np.kron(out, local_amplitudes(params.root_order, exponents, scales))
        rows.append(out)
    return np.array(rows)
