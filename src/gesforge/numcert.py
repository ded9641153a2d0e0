"""Numeric certification of genuine entanglement in the complement.

The exact stage proves that no product vector is orthogonal to the whole
family.  This module quantifies the margin: for each bipartition S|Sbar it
minimizes sum_i |<psi_i|x>|^2 over normalized biproduct states
x = a (x) b, by alternating exact eigenvector updates (fixing one factor
makes the objective a Hermitian quadratic form in the other, so each half
step is a smallest-eigenvalue problem and the objective never increases).
All seeded restarts of a cut run together: each half step is one stacked
eigen-solve over the restarts that have not yet converged.
A strictly positive minimum over every cut witnesses that the orthogonal
complement of the span contains no biproduct state, i.e. it is genuinely
entangled.  The dual diagnostic maximizes overlap with the complement
projector and must stay strictly below one.  The family comes in as its
(K, D) coefficient rows (`partition.build_nupb`) and local dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .partition import Bipartition, enumerate_bipartitions

_HERMITIAN_TOL = 1e-10
_RESIDUAL_TOL = 1e-10
# Sweeps of one restart stop here; a restart that reaches the cap reports
# converged = False.
MAX_SWEEPS = 500


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the alternating eigenvector searches.

    Defaults: 50 restarts, 1e-12 convergence tolerance, pass threshold
    1e-6, seed 0; each restart stops after at most MAX_SWEEPS sweeps.
    Restart seeds are derived from the seed and a (bipartition, restart)
    counter, so results are reproducible and independent of scheduling.
    """

    restarts: int = 50
    tol: float = 1e-12
    threshold: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        for name in ("tol", "threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    def to_doc(self) -> dict:
        return {
            "restarts": self.restarts,
            "max_sweeps": MAX_SWEEPS,
            "tol": self.tol,
            "threshold": self.threshold,
            "seed": self.seed,
        }


@dataclass
class BiproductSearch:
    """Best value found plus the achieving biproduct state."""

    value: float
    left: np.ndarray
    right: np.ndarray
    state: np.ndarray
    sweeps: int
    converged: bool
    restarts_agreeing: int


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
            "columns": [
                [[z.real, z.imag] for z in self.columns[:, c]] for c in range(self.dimension)
            ],
        }


@dataclass
class CutOutcome:
    members: tuple[int, ...]
    complement: tuple[int, ...]
    value: float
    converged: bool
    sweeps: int
    restarts_agreeing: int
    witness: np.ndarray

    def to_doc(self) -> dict:
        return {
            "members": list(self.members),
            "complement": list(self.complement),
            "min_biproduct_value": self.value,
            "converged": self.converged,
            "sweeps": self.sweeps,
            "restarts_agreeing": self.restarts_agreeing,
            "witness": [[z.real, z.imag] for z in self.witness],
        }


@dataclass
class NumericCertificate:
    dims: tuple[int, ...]
    num_vectors: int
    threshold: float
    options: OptimizerOptions
    outcomes: list = field(default_factory=list)

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


def _random_unit(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _alternating_extremum(
    grouped: np.ndarray,
    minimize: bool,
    options: OptimizerOptions,
    spawn_prefix: tuple[int, ...],
) -> tuple[float, np.ndarray, np.ndarray, int, bool, np.ndarray]:
    """Alternating eigenvector search from every restart at once.

    Each restart starts from its own seeded random right factor.  A half
    step builds the effective operators of all restarts still active with
    one matmul against the operator reshaped to (a c),(b d), and solves
    them with one stacked eigh; a restart leaves the active set once its
    value moves by less than tol.  Returns the best restart's (value,
    left, right, sweeps, converged), ties going to the lowest
    restart index, and the final values of all restarts.
    """
    d_left, d_right = grouped.shape[0], grouped.shape[1]
    pick = 0 if minimize else -1
    # by_pairs[(a c), (b d)] = G[a, b, c, d]; conj(r)_b r_d contracts the right legs
    by_pairs = grouped.transpose(0, 2, 1, 3).reshape(d_left * d_left, d_right * d_right)

    def half_step(vectors: np.ndarray, reshaped: np.ndarray, dim: int):
        outer = (vectors.conj()[:, :, None] * vectors[:, None, :]).reshape(len(vectors), -1)
        eff = (outer @ reshaped).reshape(-1, dim, dim)
        w, vecs = np.linalg.eigh((eff + eff.conj().transpose(0, 2, 1)) / 2)
        return w[:, pick], vecs[:, :, pick]

    rights = np.array([
        _random_unit(
            np.random.default_rng(
                np.random.SeedSequence(entropy=options.seed, spawn_key=spawn_prefix + (restart,))
            ),
            d_right,
        )
        for restart in range(options.restarts)
    ])
    lefts = np.empty((options.restarts, d_left), dtype=complex)
    values = np.full(options.restarts, np.nan)
    sweeps = np.zeros(options.restarts, dtype=int)
    converged = np.zeros(options.restarts, dtype=bool)
    active = np.arange(options.restarts)
    for sweep in range(MAX_SWEEPS):
        _, lefts[active] = half_step(rights[active], by_pairs.T, d_left)
        new_values, rights[active] = half_step(lefts[active], by_pairs, d_right)
        sweeps[active] = sweep + 1
        done = np.abs(new_values - values[active]) < options.tol
        values[active] = new_values
        converged[active[done]] = True
        active = active[~done]
        if not active.size:
            break
    best = int(np.argmin(values) if minimize else np.argmax(values))
    return (
        float(values[best]),
        lefts[best],
        rights[best],
        int(sweeps[best]),
        bool(converged[best]),
        values,
    )


def _biproduct_search(
    operator: np.ndarray, dims, cut: Bipartition, minimize: bool, options: OptimizerOptions
) -> BiproductSearch:
    grouped, _, _ = _grouped_operator(operator, dims, cut)
    cut_index = enumerate_bipartitions(cut.num_parties).index(cut)
    value, left, right, sweeps, converged, finals = _alternating_extremum(
        grouped, minimize, options, (0 if minimize else 1, cut_index)
    )
    agreeing = np.abs(finals - value) <= 1e-6 * abs(value) + 1e-15
    return BiproductSearch(
        value=max(value, 0.0) if minimize else min(value, 1.0),
        left=left,
        right=right,
        state=_ungroup_state(left, right, dims, cut),
        sweeps=sweeps,
        converged=converged,
        restarts_agreeing=int(np.count_nonzero(agreeing)),
    )


def min_biproduct_value(
    operator: np.ndarray,
    dims,
    cut: Bipartition,
    options: OptimizerOptions | None = None,
) -> BiproductSearch:
    """Minimize <x|G|x> over normalized biproduct states x = a (x) b.

    Multi-start alternating smallest-eigenvector descent; each half step
    solves its factor exactly, so the objective is monotone within a
    restart.  The returned value is the best over all restarts and is
    clipped at zero (G is positive semidefinite).
    """
    options = options or OptimizerOptions()
    _check_hermitian(operator)
    return _biproduct_search(operator, dims, cut, True, options)


def max_product_overlap(
    basis: GesBasis,
    cut: Bipartition,
    options: OptimizerOptions | None = None,
) -> BiproductSearch:
    """Maximize <x|P|x> over biproduct x, P the complement projector.

    Strictly below one on every cut means the subspace spanned by the
    basis columns holds no biproduct state.
    """
    options = options or OptimizerOptions()
    projector = basis.columns @ basis.columns.conj().T
    return _biproduct_search(projector, basis.dims, cut, False, options)


def ges_basis(rows, dims, exact_rank: int) -> GesBasis:
    """Orthonormal null-space basis of the family's (K, D) coefficient rows.

    The floating rank must agree with the exact rank, otherwise a
    numerical-pathology error is raised.
    """
    columns = scipy.linalg.null_space(rows)
    expected = rows.shape[1] - exact_rank
    if columns.shape[1] != expected:
        raise ValueError(
            f"floating null space has dimension {columns.shape[1]}, exact rank demands "
            f"{expected}; numerical pathology"
        )
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
    """
    options = options or OptimizerOptions()
    dims = tuple(dims)
    operator = family_operator(rows)
    certificate = NumericCertificate(
        dims=dims,
        num_vectors=len(rows),
        threshold=options.threshold,
        options=options,
    )
    for cut in enumerate_bipartitions(len(dims)):
        found = min_biproduct_value(operator, dims, cut, options)
        certificate.outcomes.append(
            CutOutcome(
                members=cut.members,
                complement=cut.complement,
                value=found.value,
                converged=found.converged,
                sweeps=found.sweeps,
                restarts_agreeing=found.restarts_agreeing,
                witness=found.state,
            )
        )
    return certificate


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
