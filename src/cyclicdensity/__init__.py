"""Finite-group cyclic-subgroup density: exact computation and exhaustive
verification of the density inequality against the center, its equality
characterization, and the corollaries that follow from it."""

from .catalog import GroupSpec, build_group, load_table_with_report, parse_group_spec
from .density import alpha, average_order, cyclic_subgroups
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
from .groups import Subgroup, center, direct_product, validate_table_with_report
from .sweep import SweepConfig, run_sweep
from .verify import AlphaReport, four_abelian_failure, full_report

__version__ = "1.0.0"
