"""Finite-group cyclic-subgroup density: exact computation and exhaustive
verification of the density inequality against the center, its equality
characterization, and the corollaries that follow from it."""

from .arith import euler_phi, factorize, is_prime
from .catalog import GroupSpec, build_group, load_table_with_report, parse_group_spec
from .density import (
    CyclicCensus,
    alpha,
    alpha_via_totient,
    average_order,
    census_matches_orders,
    cyclic_subgroups,
    subgroup_count_identity_check,
)
from .errors import (
    GroupError,
    InvalidArgument,
    NoIdentityAtZero,
    NoInverse,
    NotASubgroup,
    NotAssociative,
    NotClosed,
    ParseError,
    SizeLimitExceeded,
    SpecSyntaxError,
)
from .groups import (
    Subgroup,
    center,
    direct_product,
    size_cap,
    validate_table_with_report,
)
from .sweep import SweepConfig, SweepResult, corpus_specs, run_sweep
from .verify import (
    AlphaReport,
    CosetCheck,
    PerCosetFindings,
    StructuralResult,
    full_report,
    is_2_central,
    is_4_abelian_witness,
    per_coset_analysis,
    structural_condition,
)

__version__ = "1.0.0"
