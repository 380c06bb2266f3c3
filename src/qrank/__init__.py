"""qrank: exact rank computations for definable groups presented by
companion matrices over their quasiendomorphism number field, with the
supporting hereditary factorization, number-field factorization, and
degree-ratio machinery."""

__version__ = "0.1.0"

from .arith import (
    factor_integer,
    rational_nth_root,
)
from .classify import (
    CorrespondenceDegrees,
    FixedFieldQuery,
    combine,
    degree_ratio,
    fixed_field_rank,
    fixed_field_subfield,
    intersection_degree,
    rank_bound_from_ratio,
    rationality_exponent,
    subgroup_constraint,
)
from .groups import (
    UNDEFINED,
    CompanionPresentation,
    RankReport,
    ValidationReport,
    eigenvalue_compatible,
    prolong,
    qacfa_rank,
    rank_in_reduct,
    subgroup_degree_spectrum,
    validate,
)
from .hereditary import (
    HereditaryCertificate,
    HereditaryFactorization,
    capelli_certificate,
    capelli_obstruction,
    has_root_of_unity_root,
    hereditary_factorization,
    oracle_factor_counts,
)
from .numfield import (
    QQ,
    NFElement,
    NumberField,
    Obstruction,
    factor_over_K,
    factor_over_Q,
    flatten,
    in_minus4_fourth_powers,
    minimal_polynomial,
)
from .poly import (
    CompanionMatrix,
    Poly,
    charpoly_of,
    companion_of,
    divrem,
    gcd,
    substitute_power,
)

__all__ = [
    "__version__",
    "factor_integer",
    "rational_nth_root",
    "Poly",
    "CompanionMatrix",
    "companion_of",
    "charpoly_of",
    "divrem",
    "gcd",
    "substitute_power",
    "NumberField",
    "NFElement",
    "QQ",
    "Obstruction",
    "factor_over_Q",
    "factor_over_K",
    "flatten",
    "in_minus4_fourth_powers",
    "minimal_polynomial",
    "has_root_of_unity_root",
    "capelli_obstruction",
    "capelli_certificate",
    "hereditary_factorization",
    "oracle_factor_counts",
    "HereditaryCertificate",
    "HereditaryFactorization",
    "CompanionPresentation",
    "ValidationReport",
    "RankReport",
    "UNDEFINED",
    "validate",
    "prolong",
    "rank_in_reduct",
    "qacfa_rank",
    "eigenvalue_compatible",
    "subgroup_degree_spectrum",
    "CorrespondenceDegrees",
    "FixedFieldQuery",
    "degree_ratio",
    "combine",
    "subgroup_constraint",
    "rationality_exponent",
    "rank_bound_from_ratio",
    "fixed_field_rank",
    "fixed_field_subfield",
    "intersection_degree",
]
