"""Error types shared across the package.

Each maps to a stable CLI exit code: parameter errors 2, authorization
errors 3, capacity errors 4.
"""

ENUMERATION_GUARD = 10**8  # work items above this are not desk-scale
IDENTITY_BOUND = 10**6  # identities one command may hold in memory


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class AuthorizationError(RuntimeError):
    """A participant subset cannot determine the requested secret."""


class CapacityError(RuntimeError):
    """An exhaustive enumeration would exceed the desk-scale guard, or a
    command would hold more identities than the identity bound."""
