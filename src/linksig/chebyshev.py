"""Chebyshev polynomials of the first and second kind.

Evaluation goes through the defining trigonometric identities
T_m(cos psi) = cos(m psi) and U_m(cos psi) sin(psi) = sin((m+1) psi)
rather than the three-term recurrence, so a value costs O(1) at any degree
up to MAX_DEGREE: the curve route evaluates T_{2|ell|} once per sample, and
delta_closed U_{m-1} once per minor.
"""

from __future__ import annotations

import math

MAX_DEGREE = 10**6


def check_degree(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError(f"degree {m!r} is no int")
    if m < 0:
        raise ValueError("degree must be non-negative")
    if m > MAX_DEGREE:
        raise ValueError(f"degree {m} exceeds guard limit {MAX_DEGREE}")


def eval_T(m: int, x: float) -> float:
    """T_m(x), the degree-m Chebyshev polynomial of the first kind."""
    check_degree(m)
    if -1.0 <= x <= 1.0:
        return math.cos(m * math.acos(x))
    if x > 1.0:
        return math.cosh(m * math.acosh(x))
    value = math.cosh(m * math.acosh(-x))
    return value if m % 2 == 0 else -value


def eval_U(m: int, x: float) -> float:
    """U_m(x), the degree-m Chebyshev polynomial of the second kind.

    The removable singularities at x = +/-1 are filled with the limit
    values +/-(m+1).
    """
    check_degree(m)
    if x == 1.0:
        return float(m + 1)
    if x == -1.0:
        return float(m + 1) if m % 2 == 0 else -float(m + 1)
    if -1.0 < x < 1.0:
        psi = math.acos(x)
        return math.sin((m + 1) * psi) / math.sin(psi)
    if x > 1.0:
        t = math.acosh(x)
        return math.sinh((m + 1) * t) / math.sinh(t)
    t = math.acosh(-x)
    value = math.sinh((m + 1) * t) / math.sinh(t)
    return value if m % 2 == 0 else -value
