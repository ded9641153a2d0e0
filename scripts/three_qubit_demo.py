#!/usr/bin/env python3
"""Walk through the canonical three-qubit family end to end.

Builds the five-vector family over the order-11 roots, shows the exponent
tuples, certifies the complement exactly and numerically, then samples a
state from the complement and prints its Schmidt coefficients per cut.
"""

import argparse

import numpy as np

from gesforge import (
    build_nupb,
    certify_ges_numeric,
    enumerate_bipartitions,
    exponent_table,
    ges_basis,
    make_params,
    sample_ges_state,
    schmidt_coefficients,
    verify_all_bipartitions,
)
from gesforge.numcert import OptimizerOptions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="optimizer and sampling seed")
    args = parser.parse_args()

    params = make_params(n=3, d=2, num_vectors=5)
    print(f"family: dims={params.dims} vectors={params.num_vectors} "
          f"root_order={params.root_order}")
    print(f"complement dimension: {params.complement_dim} "
          f"(maximal: {params.is_max_complement})\n")

    table = exponent_table(params)
    print("exponent tuples (party exponents of the level-1 amplitude):")
    for i, row in enumerate(table):
        tuples = tuple(exps[1] for exps in row)
        print(f"  vector {i}: {tuples}")
    print()

    report = verify_all_bipartitions(params)
    print(f"exact: rank {report.matrix_rank}/{params.num_vectors}, "
          f"spanning on {len(report.bipartitions)} bipartitions, "
          f"passed={report.passed} ({report.elapsed:.3f}s)")

    rows = build_nupb(params)
    cert = certify_ges_numeric(rows, params.dims, OptimizerOptions(seed=args.seed))
    for outcome in cert.outcomes:
        cut = "{" + ",".join(map(str, outcome.members)) + "}"
        print(f"numeric: cut {cut:7s} min biproduct value {outcome.value:.6e}")
    print(f"numeric: passed={cert.passed} (threshold {cert.threshold:g})\n")

    basis = ges_basis(rows, params.dims, exact_rank=report.matrix_rank)
    print(f"basis: dimension {basis.dimension}, residual {basis.residual_max:.2e}, "
          f"orthonormality error {basis.orthonormality_error:.2e}")

    state = sample_ges_state(basis, seed=args.seed)
    for cut in enumerate_bipartitions(3):
        coeffs = schmidt_coefficients(state, params.dims, cut)
        pretty = ", ".join(f"{c:.4f}" for c in coeffs)
        print(f"sampled state, cut {cut.label():9s} schmidt: [{pretty}]")
    print("\nevery cut carries at least two nonzero Schmidt coefficients, "
          "so the sampled state is genuinely multiparty entangled")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
