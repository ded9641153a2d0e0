"""Numeric certification of genuine entanglement in the complement.

The exact stage proves that no product vector is orthogonal to the whole
family.  This module quantifies the margin: for each bipartition S|Sbar it
minimizes sum_i |<psi_i|x>|^2 over normalized biproduct states
x = a (x) b, by alternating updates of one factor at a time.  Fixing one
factor makes the objective a Hermitian quadratic form in the other, so a
half step is a smallest-eigenvector problem.  The first two sweeps of a
restart solve it exactly; later ones take one shifted inverse-iteration
step from the previous factor, which is already close to the answer and
never raises the objective.  Plain alternating sweeps crawl where the
minimum lies along a shallow valley, so every second warm sweep also tries
a step past the new factors along their last move, and keeps it only
where it lowers the value (extrapolation with an acceptance test: Rajih,
Comon & Harshman, SIAM J. Matrix Anal. Appl. 30, 1128 (2008); Ang &
Gillis, Neural Computation 31, 417 (2019)).  The descent stays monotone.
Each cut draws the starts of all its restarts from one seeded stream, and
every cut with the same (left, right) dimensions runs in one search: each
half step is one stacked eigen-solve, or after the first two sweeps one
stacked LU solve, over the restarts of those cuts that have not yet
converged.
A strictly positive minimum over every cut witnesses that the orthogonal
complement of the span contains no biproduct state, i.e. it is genuinely
entangled.  The dual diagnostic, 1 minus the same search's minimum on
1 - P, P the complement projector, must stay strictly below one.  The
family comes in as its (K, D) coefficient rows (`partition.build_nupb`)
and local dimensions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .construct import complex_pairs
from .partition import Bipartition, enumerate_bipartitions

_HERMITIAN_TOL = 1e-10
_RESIDUAL_TOL = 1e-10
# Sweeps of one restart stop here; a restart that reaches the cap reports
# converged = False.
MAX_SWEEPS = 500
# A restart has converged once a sweep moves its value by less than TOL.
TOL = 1e-12
# A cut's minimum passes the numeric check above THRESHOLD.  The verdict is
# the exact stage's proof; this only flags a tight margin.
THRESHOLD = 1e-6
# The first sweeps of a restart solve each half step with a full stacked
# eigh; later ones take one shifted inverse-iteration step from the
# previous factor, with the shift _SHIFT * tr M (`_inverse_step`).
_COLD_SWEEPS = 2
_SHIFT = 1e-10
# Every second warm sweep tries an extrapolated step along the last sweep's
# move of both factors (`_extrapolated`), kept only where it lowers the
# value.  Each restart keeps its own step factor beta: it grows on a kept
# step, up to _BETA_MAX, and shrinks on a refused one.
_EXTRAPOLATE_EVERY = 2
_BETA_START = 0.5
_BETA_GROW = 1.5
_BETA_MAX = 8.0
_BETA_SHRINK = 0.5
# A stacked search over R restarts of (d_left, d_right) cuts holds, 16 bytes
# a complex entry, per restart its two factors and their start draw, twice
# (the active set and the finished one), the factors the sweep started from
# and an extrapolated pair, and per half step at most three arrays of
# max(d_left, d_right)**2 entries: the outer products, the effective
# operators built from them, and a cold sweep's eigenvectors.  A warm sweep
# holds less: numpy's batched solve factors one matrix at a time, so its LU
# copy and pivots are one matrix's, beside the solutions and their unit
# copies of max(d_left, d_right) entries per restart; an extrapolated
# pair's value takes one outer-product and one operator array.  A search
# above the bound is refused before any start is drawn
# (`_biproduct_searches`), and the cuts of one shape run in as few stacked
# searches as the bound allows.  50 restarts of a 64|2 cut of 2^7 need
# 10 MB.
MAX_SEARCH_BYTES = 2**26


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the alternating eigenvector searches.

    Defaults: 50 restarts, seed 0; each restart stops once a sweep moves
    its value by less than TOL, or after MAX_SWEEPS sweeps.
    Each cut's starts come from one stream, seeded by the seed and the
    cut's index in `enumerate_bipartitions`; restart r takes block r of
    it.  So restart r's start depends on (seed, cut, r) only, not on the
    restart count or on which cuts run together, and a seed reproduces a
    run bit for bit.
    """

    restarts: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    def to_doc(self) -> dict:
        return {
            "restarts": self.restarts,
            "max_sweeps": MAX_SWEEPS,
            "tol": TOL,
            "seed": self.seed,
        }


@dataclass
class BiproductSearch:
    """One cut's search: the best value found and its biproduct witness."""

    members: tuple[int, ...]
    complement: tuple[int, ...]
    value: float
    left: np.ndarray
    right: np.ndarray
    witness: np.ndarray
    sweeps: int
    converged: bool
    restarts_agreeing: int

    def to_doc(self) -> dict:
        return {
            "members": list(self.members),
            "complement": list(self.complement),
            "min_biproduct_value": self.value,
            "converged": self.converged,
            "sweeps": self.sweeps,
            "restarts_agreeing": self.restarts_agreeing,
            "witness": complex_pairs(self.witness),
        }


@dataclass
class GesBasis:
    """Orthonormal basis of the orthogonal complement of the family span."""

    dims: tuple[int, ...]
    columns: np.ndarray
    residual_max: float
    orthonormality_error: float

    @property
    def dimension(self) -> int:
        return self.columns.shape[1]

    def to_doc(self) -> dict:
        return {
            "dims": list(self.dims),
            "dimension": self.dimension,
            "residual_max": self.residual_max,
            "orthonormality_error": self.orthonormality_error,
            "columns": complex_pairs(self.columns.T),
        }


@dataclass
class NumericCertificate:
    # a class constant, echoed in the report; the exact stage decides the verdict
    threshold = THRESHOLD

    dims: tuple[int, ...]
    num_vectors: int
    options: OptimizerOptions
    outcomes: list[BiproductSearch] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def min_value(self) -> float:
        return min(o.value for o in self.outcomes)

    @property
    def passed(self) -> bool:
        return all(o.value > self.threshold for o in self.outcomes)

    def to_doc(self) -> dict:
        return {
            "dims": list(self.dims),
            "num_vectors": self.num_vectors,
            "threshold": self.threshold,
            "options": self.options.to_doc(),
            "passed": self.passed,
            "min_value": self.min_value,
            "bipartitions": [o.to_doc() for o in self.outcomes],
            "elapsed_seconds": self.elapsed,
        }


def family_operator(rows) -> np.ndarray:
    """G = sum_i |psi_i><psi_i| over the family's rows, each normalized first."""
    rows = rows / np.linalg.norm(rows, axis=1)[:, None]
    return rows.T @ rows.conj()


def _check_hermitian(op: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(op).max()))
    if np.abs(op - op.conj().T).max() > _HERMITIAN_TOL * scale:
        raise ValueError("operator is not Hermitian")


def _grouped_operator(op: np.ndarray, dims, cut: Bipartition) -> tuple[np.ndarray, int, int]:
    """Reshape a D x D operator so the cut's parties group as (Ds, Dsb) legs."""
    dims = tuple(dims)
    n = len(dims)
    perm = list(cut.members) + list(cut.complement)
    d_left = math.prod(dims[m] for m in cut.members)
    d_right = math.prod(dims[m] for m in cut.complement)
    tensor = op.reshape(dims + dims)
    tensor = tensor.transpose(tuple(perm) + tuple(m + n for m in perm))
    return tensor.reshape(d_left, d_right, d_left, d_right), d_left, d_right


def _ungroup_state(left: np.ndarray, right: np.ndarray, dims, cut: Bipartition) -> np.ndarray:
    """Kron the two sides and permute the legs back to global party order."""
    dims = tuple(dims)
    perm = list(cut.members) + list(cut.complement)
    inverse = np.argsort(perm)
    grouped_dims = tuple(dims[m] for m in perm)
    state = np.kron(left, right).reshape(grouped_dims)
    return state.transpose(inverse).reshape(-1)


def _start_factors(seed: int, stream: tuple[int, int], restarts: int, dim: int) -> np.ndarray:
    """Unit right factors of one cut's restarts, read in order from its stream."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=stream))
    draw = rng.standard_normal((restarts, 2, dim))
    starts = draw[:, 0] + 1j * draw[:, 1]
    return starts / np.linalg.norm(starts, axis=1, keepdims=True)


def _search_bytes(restarts: int, d_left: int, d_right: int) -> int:
    """Peak bytes of a stacked search over restarts of (d_left, d_right) cuts."""
    side = max(d_left, d_right)
    return 16 * restarts * (6 * (d_left + d_right) + 3 * side * side)


def _eigen_step(eff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenpair of each Hermitian matrix in the stack: (values, unit vectors)."""
    # eigh reads the lower triangle, the Hermitian operator up to rounding
    w, vecs = np.linalg.eigh(eff)
    return w[:, 0], np.ascontiguousarray(vecs[:, :, 0])


def _inverse_step(eff: np.ndarray, previous: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One shifted inverse-iteration step per matrix, from the previous factors.

    Solves (M + s I) y = x with x the previous unit factor and
    s = _SHIFT * tr M, and returns y / |y| with its value
    <y|M|y> / |y|^2 = Re<y|x> / |y|^2 - s.  For positive semidefinite M the
    step never raises the Rayleigh quotient, and near convergence x is
    close to the smallest eigenvector, so one step recovers it at the cost
    of an LU solve rather than a full eigen-decomposition.  The shift's
    floor keeps an all-zero M nonsingular, with |y| = 1e100 far from
    overflow.  The shift is added to `eff` in place.
    """
    dim = eff.shape[1]
    diagonal = eff.reshape(len(eff), dim * dim)[:, ::dim + 1]
    shift = np.maximum(_SHIFT * diagonal.real.sum(axis=1), 1e-100)
    diagonal += shift[:, None]
    y = np.linalg.solve(eff, previous[:, :, None])[:, :, 0]
    norms = np.linalg.norm(y, axis=1)
    overlap = np.einsum("ij,ij->i", y.conj(), previous).real
    return overlap / (norms * norms) - shift, y / norms[:, None]


def _extrapolated(factors: np.ndarray, held: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Unit rows of factors + beta (factors - held), one beta per row.

    For unit rows the norm is at least (1 + beta) - beta = 1, so the
    division is safe.
    """
    step = factors + betas[:, None] * (factors - held)
    return step / np.linalg.norm(step, axis=1, keepdims=True)


def _product_values(eff: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Re <v|M|v> for each matrix M of the stack and its row v."""
    return np.einsum("ij,ij->i", vectors.conj(), np.matmul(eff, vectors[:, :, None])[:, :, 0]).real


def _alternating_extremum(
    groupeds: list[np.ndarray],
    options: OptimizerOptions,
    streams: list[tuple[int, int]],
) -> list[tuple[float, np.ndarray, np.ndarray, int, bool, np.ndarray]]:
    """Alternating smallest-eigenvector search from every restart of every cut at once.

    All cuts share one (d_left, d_right) shape; cut c starts its restarts
    from `streams[c]`.  The restarts still active are kept compacted in cut
    order, so each cut owns one contiguous slice.  A half step builds each
    cut's effective operators with one matmul of its slice against its
    operator reshaped to (a c),(b d).  The first _COLD_SWEEPS sweeps solve
    them with one stacked eigh, which gives each factor exactly; from then
    on each half step is one batched shifted LU solve, a step of inverse
    iteration from the restart's previous factor (`_inverse_step`), which
    never raises the value either.  That step keeps each factor's phase
    next to the previous one's, so from the second warm sweep on the move
    a_k - a_{k-1} of a sweep is a real direction; every _EXTRAPOLATE_EVERY
    sweeps the search evaluates (a_k + beta (a_k - a_{k-1})) / norm and the
    same for b, with one matmul per cut and a quadratic form per restart,
    and keeps the pair on the restarts where it lowers the value.  Each
    restart's beta grows on a kept step and shrinks on a refused one.  A
    restart is written out and leaves the active set once a sweep moves its
    value by less than TOL; a kept step only starts the next sweep lower.
    Nothing a cut computes reads another cut's rows, so its outcome does
    not depend on the others.  Returns per cut the best restart's (value,
    left, right, sweeps, converged), ties going to the lowest restart index,
    and the final values of all its restarts.
    """
    d_left, d_right = groupeds[0].shape[0], groupeds[0].shape[1]
    restarts = options.restarts
    total = len(groupeds) * restarts
    # by_pairs[(a c), (b d)] = G[a, b, c, d]; conj(r)_b r_d contracts the right legs
    by_pairs = [
        g.transpose(0, 2, 1, 3).reshape(d_left * d_left, d_right * d_right) for g in groupeds
    ]
    to_left = [m.T for m in by_pairs]

    def effective(vectors: np.ndarray, operators, counts, dim: int) -> np.ndarray:
        outer = (vectors.conj()[:, :, None] * vectors[:, None, :]).reshape(len(vectors), -1)
        eff = np.empty((len(vectors), dim * dim), dtype=complex)
        start = 0
        for operator, count in zip(operators, counts):
            if count:
                np.matmul(outer[start:start + count], operator, out=eff[start:start + count])
            start += count
        return eff.reshape(-1, dim, dim)

    def half_step(vectors: np.ndarray, operators, counts, dim: int, previous, cold: bool):
        eff = effective(vectors, operators, counts, dim)
        return _eigen_step(eff) if cold else _inverse_step(eff, previous)

    rights = np.concatenate([
        _start_factors(options.seed, stream, restarts, d_right) for stream in streams
    ])
    counts = [restarts] * len(groupeds)
    owner = np.arange(total)
    values = np.full(total, np.nan)
    final_values = np.empty(total)
    final_lefts = np.empty((total, d_left), dtype=complex)
    final_rights = np.empty((total, d_right), dtype=complex)
    sweeps = np.full(total, MAX_SWEEPS)
    converged = np.zeros(total, dtype=bool)
    betas = np.full(total, _BETA_START)
    lefts = None  # the first sweep has no left factor to start from
    for sweep in range(MAX_SWEEPS):
        cold = sweep < _COLD_SWEEPS
        held_lefts, held_rights = lefts, rights
        _, lefts = half_step(rights, to_left, counts, d_left, lefts, cold)
        new_values, rights = half_step(lefts, by_pairs, counts, d_right, rights, cold)
        done = np.abs(new_values - values) < TOL
        values = new_values
        # the held factors of a sweep after the first warm one came from a
        # warm step too, so both differences follow the factors' phases
        if sweep > _COLD_SWEEPS and (sweep - _COLD_SWEEPS) % _EXTRAPOLATE_EVERY == 0:
            trial_lefts = _extrapolated(lefts, held_lefts, betas)
            trial_rights = _extrapolated(rights, held_rights, betas)
            trials = _product_values(effective(trial_lefts, by_pairs, counts, d_right), trial_rights)
            accept = (trials < values) & ~done
            np.copyto(lefts, trial_lefts, where=accept[:, None])
            np.copyto(rights, trial_rights, where=accept[:, None])
            values = np.where(accept, trials, values)
            betas = np.where(accept, np.minimum(_BETA_GROW * betas, _BETA_MAX), _BETA_SHRINK * betas)
        if done.any():
            finished = owner[done]
            final_values[finished] = values[done]
            final_lefts[finished] = lefts[done]
            final_rights[finished] = rights[done]
            sweeps[finished] = sweep + 1
            converged[finished] = True
            keep = ~done
            owner, values, lefts, rights = owner[keep], values[keep], lefts[keep], rights[keep]
            betas = betas[keep]
            counts = np.bincount(owner // restarts, minlength=len(groupeds)).tolist()
            if not owner.size:
                break
    else:
        # the restarts still active at MAX_SWEEPS end unconverged
        final_values[owner] = values
        final_lefts[owner] = lefts
        final_rights[owner] = rights

    results = []
    for cut in range(len(groupeds)):
        block = slice(cut * restarts, (cut + 1) * restarts)
        finals = final_values[block]
        best = cut * restarts + int(np.argmin(finals))
        results.append((
            float(final_values[best]),
            final_lefts[best],
            final_rights[best],
            int(sweeps[best]),
            bool(converged[best]),
            finals,
        ))
    return results


def _search_result(outcome, dims, cut: Bipartition) -> BiproductSearch:
    value, left, right, sweeps, converged, finals = outcome
    agreeing = np.abs(finals - value) <= 1e-6 * abs(value) + 1e-15
    return BiproductSearch(
        members=cut.members,
        complement=cut.complement,
        value=max(value, 0.0),
        left=left,
        right=right,
        witness=_ungroup_state(left, right, dims, cut),
        sweeps=sweeps,
        converged=converged,
        restarts_agreeing=int(np.count_nonzero(agreeing)),
    )


def _biproduct_searches(
    operator: np.ndarray, dims, cuts: list[Bipartition], options: OptimizerOptions
) -> list[BiproductSearch]:
    """Stacked searches over `cuts`, one per cut shape as far as MAX_SEARCH_BYTES
    allows; the results follow the order of `cuts`."""
    dims = tuple(dims)
    shapes: dict[tuple[int, int], list[int]] = {}
    for position, cut in enumerate(cuts):
        d_left = math.prod(dims[m] for m in cut.members)
        d_right = math.prod(dims[m] for m in cut.complement)
        need = _search_bytes(options.restarts, d_left, d_right)
        if need > MAX_SEARCH_BYTES:
            raise ValueError(
                f"{options.restarts} restarts on a {d_left}x{d_right} cut need {need} bytes "
                f"at once, above the supported {MAX_SEARCH_BYTES}; use fewer restarts"
            )
        shapes.setdefault((d_left, d_right), []).append(position)
    every = enumerate_bipartitions(len(dims))
    found: list[BiproductSearch | None] = [None] * len(cuts)
    for shape, positions in shapes.items():
        batch = MAX_SEARCH_BYTES // _search_bytes(options.restarts, *shape)
        for first in range(0, len(positions), batch):
            chunk = [cuts[position] for position in positions[first:first + batch]]
            # every search reads stream (0, cut index), the key that keeps a
            # seed's minimum-search starts as earlier releases drew them
            outcomes = _alternating_extremum(
                [_grouped_operator(operator, dims, cut)[0] for cut in chunk],
                options,
                [(0, every.index(cut)) for cut in chunk],
            )
            for position, cut, outcome in zip(positions[first:], chunk, outcomes):
                found[position] = _search_result(outcome, dims, cut)
    return found


def min_biproduct_value(
    operator: np.ndarray,
    dims,
    cut: Bipartition,
    options: OptimizerOptions | None = None,
) -> BiproductSearch:
    """Minimize <x|G|x> over normalized biproduct states x = a (x) b.

    Multi-start alternating smallest-eigenvector descent.  In the first
    two sweeps each half step solves its factor exactly; after them it
    takes one inverse-iteration step from the previous factor, and every
    second such sweep tries an extrapolated step along the factors' last
    move, kept only where it lowers the value.  None of them raises the
    objective, so it is monotone within a restart.  The
    returned value is the best over all restarts and is clipped at zero
    (G is positive semidefinite).
    """
    options = options or OptimizerOptions()
    _check_hermitian(operator)
    return _biproduct_searches(operator, dims, [cut], options)[0]


def max_product_overlap(
    basis: GesBasis,
    cut: Bipartition,
    options: OptimizerOptions | None = None,
) -> BiproductSearch:
    """Maximize <x|P|x> over biproduct x, P the complement projector.

    <x|P|x> = 1 - <x|(1 - P)|x> for a unit x, so this is 1 minus
    `min_biproduct_value` on 1 - P, with its witness.  Strictly below one
    on every cut means the basis columns span no biproduct state.
    """
    projector = basis.columns @ basis.columns.conj().T
    low = min_biproduct_value(np.eye(len(projector)) - projector, basis.dims, cut, options)
    return replace(low, value=1 - low.value)


def ges_basis(rows, dims, exact_rank: int) -> GesBasis:
    """Orthonormal null-space basis of the family's (K, D) coefficient rows.

    The columns are the right singular vectors of the rows past the exact
    rank.  The floating rank, the count of singular values above
    max(K, D)·eps·σ_max, must agree with the exact rank, otherwise a
    numerical-pathology error is raised; so must the residual, scaled by
    the largest row entry.
    """
    _, singular, vh = np.linalg.svd(rows)
    cutoff = max(rows.shape) * np.finfo(singular.dtype).eps * singular.max(initial=0.0)
    float_rank = int(np.count_nonzero(singular > cutoff))
    if float_rank != exact_rank:
        width = rows.shape[1]
        raise ValueError(
            f"floating null space has dimension {width - float_rank}, exact rank demands "
            f"{width - exact_rank}; numerical pathology"
        )
    columns = vh[exact_rank:].conj().T
    residual = float(np.abs(rows @ columns).max()) if columns.size else 0.0
    gram = columns.conj().T @ columns
    ortho = float(np.abs(gram - np.eye(columns.shape[1])).max()) if columns.size else 0.0
    # the columns have unit norm, so the residual scales with the rows
    tolerance = _RESIDUAL_TOL * float(np.abs(rows).max(initial=0.0))
    if residual > tolerance:
        raise ValueError(f"null-space residual {residual} exceeds {tolerance}")
    return GesBasis(
        dims=tuple(dims),
        columns=columns,
        residual_max=residual,
        orthonormality_error=ortho,
    )


def certify_ges_numeric(rows, dims, options: OptimizerOptions | None = None) -> NumericCertificate:
    """Minimum biproduct value for every canonical bipartition.

    Passes when each minimum clears the threshold, certifying (numerically)
    that nothing in the complement of the span is biproduct along any cut.
    Cuts of one shape share a stacked search; each cut's outcome is the one
    `min_biproduct_value` finds on that cut alone.
    """
    start = time.perf_counter()
    options = options or OptimizerOptions()
    dims = tuple(dims)
    operator = family_operator(rows)
    _check_hermitian(operator)
    outcomes = _biproduct_searches(operator, dims, enumerate_bipartitions(len(dims)), options)
    return NumericCertificate(
        dims=dims,
        num_vectors=len(rows),
        options=options,
        outcomes=outcomes,
        elapsed=time.perf_counter() - start,
    )


def sample_ges_state(basis: GesBasis, seed: int = 0) -> np.ndarray:
    """A Haar-like random unit vector inside the complement subspace."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    state = basis.columns @ z
    return state / np.linalg.norm(state)


def schmidt_coefficients(state: np.ndarray, dims, cut: Bipartition) -> np.ndarray:
    """Descending Schmidt coefficients of a pure state across a cut."""
    dims = tuple(dims)
    perm = list(cut.members) + list(cut.complement)
    d_left = math.prod(dims[m] for m in cut.members)
    matrix = state.reshape(dims).transpose(perm).reshape(d_left, -1)
    return np.linalg.svd(matrix, compute_uv=False)
