"""Error types shared across the package, and its one capacity policy.

Each error maps to a stable CLI exit code: parameter errors 2,
authorization errors 3, capacity errors 4.

Coalitions, subsets and histogram values are listed exhaustively, so a
command counts what it would do before it builds anything: `bound_work`
refuses more than ENUMERATION_GUARD work items and `bound_held` more than
IDENTITY_BOUND items held in memory.  They are the only code that
compares a count with a bound, and a refusal's message is written only
when it is raised.
"""

from __future__ import annotations

from typing import Callable, Iterable

ENUMERATION_GUARD = 10**8  # work items above this are not desk-scale
IDENTITY_BOUND = 10**6  # items one command may hold in memory


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class AuthorizationError(RuntimeError):
    """A participant subset cannot determine the requested secret."""


class CapacityError(RuntimeError):
    """An exhaustive enumeration would exceed the desk-scale guard, or a
    command would hold more items than the identity bound."""


def binomial_sum(n: int, sizes: Iterable[int]) -> int:
    """The sum of C(n, k) over the sizes, exact up to ENUMERATION_GUARD.

    Each binomial grows term by term (C(n, i) rises up to i = n / 2), and
    the count stops once it passes the guard, so a huge binomial is
    never computed.
    """
    total = 0
    for k in sizes:
        c = int(0 <= k <= n)
        for i in range(min(k, n - k)):
            c = c * (n - i) // (i + 1)
            if total + c > ENUMERATION_GUARD:
                return total + c
        total += c
    return total


def bound_work(count: int, what: Callable[[], str]) -> None:
    """Refuse more than ENUMERATION_GUARD work items; `what()` words the
    refusal up to the guard, e.g. "t - 2 = 5 exceeds"."""
    if count > ENUMERATION_GUARD:
        raise CapacityError(f"{what()} the {ENUMERATION_GUARD} enumeration guard")


def bound_held(count: int, what: Callable[[], str]) -> None:
    """Refuse holding more than IDENTITY_BOUND items, worded as in
    `bound_work`."""
    if count > IDENTITY_BOUND:
        raise CapacityError(f"{what()} the {IDENTITY_BOUND} identity bound")
