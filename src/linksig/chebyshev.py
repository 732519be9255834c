"""Chebyshev polynomials of the first and second kind.

Evaluation goes through the defining trigonometric identities
T_m(cos psi) = cos(m psi) and U_m(cos psi) sin(psi) = sin((m+1) psi), past
+-1 through their hyperbolic forms at t = acosh|x| with the parity sign
(-1)^m for x < -1 (and NaN), rather than the three-term recurrence, so a
value costs O(1) at any degree up to MAX_DEGREE: the curve route evaluates
T_{2|ell|} once per sample, and delta_closed U_{m-1} once per minor.
"""

from __future__ import annotations

import math

from .errors import shown

MAX_DEGREE = 10**6


def check_degree(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError(f"degree {m!r} is no int")
    if m < 0:
        raise ValueError("degree must be non-negative")
    if m > MAX_DEGREE:
        raise ValueError(f"degree {shown(m)} exceeds guard limit {MAX_DEGREE}")


def eval_T(m: int, x: float) -> float:
    """T_m(x), the degree-m Chebyshev polynomial of the first kind;
    eval_T(10**6, 2.0) raises OverflowError."""
    check_degree(m)
    if -1.0 <= x <= 1.0:
        return math.cos(m * math.acos(x))
    mirror = not x > 1.0
    value = math.cosh(m * math.acosh(-x if mirror else x))
    return -value if mirror and m % 2 else value


def eval_U(m: int, x: float) -> float:
    """U_m(x), the degree-m Chebyshev polynomial of the second kind; at
    x = +/-1, where t = 0, the limit +/-(m+1).  eval_U(10**6, -2.0) raises
    OverflowError."""
    check_degree(m)
    if -1.0 < x < 1.0:
        psi = math.acos(x)
        return math.sin((m + 1) * psi) / math.sin(psi)
    mirror = not x >= 1.0
    t = math.acosh(-x if mirror else x)
    value = math.sinh((m + 1) * t) / math.sinh(t) if t else float(m + 1)
    return -value if mirror and m % 2 else value
