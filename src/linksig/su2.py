"""Unit quaternions as SU(2), and the braid action on tuples of them.

SU(2) is identified with the unit quaternions throughout; an element is
written q = a + b*i + c*j + d*k with trace 2a.  The arithmetic works on
plain 4-tuples (a, b, c, d): qmul, qinv and qpow, which the curve route
calls once per sample.  UnitQuaternion wraps a tuple for the braid action
and the orientation frame, and delegates its arithmetic to them.

Braid generators act on tuples of quaternions on the right: the generator
with index i maps (..., X_i, X_{i+1}, ...) to (..., X_i X_{i+1} X_i^{-1},
X_i, ...), and words are applied letter by letter, left to right.
"""

from __future__ import annotations

import math

from ._values import Frozen
from .errors import shown

TAU_UNIT = 1e-12


def _unit(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    """(a, b, c, d), renormalized when its squared norm is off 1 by more than TAU_UNIT."""
    n2 = a * a + b * b + c * c + d * d
    if n2 < 1e-30:
        raise ValueError("cannot normalize a (near-)zero quaternion")
    if abs(n2 - 1.0) > TAU_UNIT:
        n = math.sqrt(n2)
        return (a / n, b / n, c / n, d / n)
    return (a, b, c, d)


def qmul(p: tuple, q: tuple) -> tuple[float, float, float, float]:
    """The product pq of unit quaternions given as 4-tuples (a, b, c, d)."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return _unit(
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def qinv(q: tuple) -> tuple[float, float, float, float]:
    a, b, c, d = q
    return _unit(a, -b, -c, -d)


def qpow(q: tuple, n: int) -> tuple[float, float, float, float]:
    """q^n by repeated squaring, for any integer n."""
    if n < 0:
        return qpow(qinv(q), -n)
    result = (1.0, 0.0, 0.0, 0.0)
    while n:
        if n & 1:
            result = qmul(result, q)
        n >>= 1
        if n:
            q = qmul(q, q)
    return result


class UnitQuaternion(Frozen):
    """A quaternion of unit norm, renormalized on construction; its
    arithmetic is that of the 4-tuple functions above."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        super().__init__(*_unit(a, b, c, d))

    def __mul__(self, other: "UnitQuaternion") -> "UnitQuaternion":
        return UnitQuaternion(*qmul(self._fields(), other._fields()))

    def inverse(self) -> "UnitQuaternion":
        return UnitQuaternion(*qinv(self._fields()))

I = UnitQuaternion(0.0, 1.0, 0.0, 0.0)
J = UnitQuaternion(0.0, 0.0, 1.0, 0.0)
K = UnitQuaternion(0.0, 0.0, 0.0, 1.0)


QuatTuple = tuple[UnitQuaternion, ...]


def act(word: tuple[int, ...], tup: QuatTuple) -> QuatTuple:
    """Apply a braid word to a quaternion tuple, one letter at a time.

    word holds signed generator indices: +i for the generator crossing
    strand i+1 over strand i, -i for its inverse (1-based, below len(tup)).
    """
    n = len(tup)
    xs = list(tup)
    for w in word:
        if not 1 <= abs(w) < n:
            raise ValueError(f"generator index {shown(w)} out of range for {n} strands")
        i = abs(w) - 1
        a, b = xs[i], xs[i + 1]
        if w > 0:
            xs[i], xs[i + 1] = a * b * a.inverse(), a
        else:
            xs[i], xs[i + 1] = b, b.inverse() * a * b
    return tuple(xs)
