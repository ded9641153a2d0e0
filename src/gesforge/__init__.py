"""Product families from prime-order Fourier matrices, with certified
genuinely entangled complements."""

__version__ = "0.1.0"

from .construct import (
    ConstructionParams,
    GaussianRational,
    exponent_table,
    make_params,
    mixed_radix_weights,
    smallest_prime_geq,
    validate_params,
    vectors_from_doc,
    vectors_to_doc,
)
from .exactverify import (
    ExactReport,
    chebotarev_scan,
    spanning_property,
    verify_all_bipartitions,
)
from .numcert import (
    GesBasis,
    NumericCertificate,
    OptimizerOptions,
    certify_ges_numeric,
    family_operator,
    ges_basis,
    max_product_overlap,
    min_biproduct_value,
    sample_ges_state,
    schmidt_coefficients,
)
from .partition import Bipartition, build_nupb, coefficient_matrix, enumerate_bipartitions, factor_matrices

__all__ = [
    "Bipartition",
    "ConstructionParams",
    "ExactReport",
    "GaussianRational",
    "GesBasis",
    "NumericCertificate",
    "OptimizerOptions",
    "build_nupb",
    "certify_ges_numeric",
    "chebotarev_scan",
    "coefficient_matrix",
    "enumerate_bipartitions",
    "exponent_table",
    "factor_matrices",
    "family_operator",
    "ges_basis",
    "make_params",
    "max_product_overlap",
    "min_biproduct_value",
    "mixed_radix_weights",
    "sample_ges_state",
    "schmidt_coefficients",
    "smallest_prime_geq",
    "spanning_property",
    "validate_params",
    "vectors_from_doc",
    "vectors_to_doc",
    "verify_all_bipartitions",
]
