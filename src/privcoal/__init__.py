"""Privileged-coalition theory for Shamir-style sharing with the secret
in an arbitrary coefficient: coalition enumeration over prime fields,
multi-secret access structures, the full deal/recover protocol, and an
exact perfectness auditor."""

__version__ = "0.1.0"

from .audit import (
    ALL_NONZERO,
    FULL_FIELD,
    AuditReport,
    perfectness_report,
)
from .coalition import (
    CoalitionQuery,
    CoalitionReport,
    extension_condition,
    is_privileged,
    minimal_privileged_coalitions,
    privileged_coalitions,
    privileged_tracks,
    valid_lengths,
)
from .errors import AuthorizationError, CapacityError, ParameterError
from .field import PrimeField, is_prime
from .scheme import (
    AccessStructure,
    AuthorizedSet,
    SchemeConfig,
    SecretVector,
    ShareTable,
    deal,
    derive_access_structure,
    extension_track,
    recover,
    recover_privileged,
)
from .symfun import (
    Track,
    as_track,
    elem_sym_all,
    poly_eval,
)

__all__ = [
    "ALL_NONZERO",
    "AccessStructure",
    "AuditReport",
    "AuthorizationError",
    "AuthorizedSet",
    "CapacityError",
    "CoalitionQuery",
    "CoalitionReport",
    "FULL_FIELD",
    "ParameterError",
    "PrimeField",
    "SchemeConfig",
    "SecretVector",
    "ShareTable",
    "Track",
    "as_track",
    "deal",
    "derive_access_structure",
    "elem_sym_all",
    "extension_condition",
    "extension_track",
    "is_prime",
    "is_privileged",
    "minimal_privileged_coalitions",
    "perfectness_report",
    "poly_eval",
    "privileged_coalitions",
    "privileged_tracks",
    "recover",
    "recover_privileged",
    "valid_lengths",
]
