"""Unit quaternions as SU(2), colored braid words, and the braid action.

SU(2) is identified with the unit quaternions throughout; an element is
written q = a + b*i + c*j + d*k with trace 2a.  Braid generators act on
tuples of quaternions on the right: the generator with index i maps
(..., X_i, X_{i+1}, ...) to (..., X_i X_{i+1} X_i^{-1}, X_i, ...), and
words are applied letter by letter, left to right.
"""

from __future__ import annotations

import math

from ._values import Frozen

TAU_UNIT = 1e-12


class UnitQuaternion(Frozen):
    """A quaternion of unit norm.  Renormalized on construction."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        n2 = a * a + b * b + c * c + d * d
        if n2 < 1e-30:
            raise ValueError("cannot normalize a (near-)zero quaternion")
        if abs(n2 - 1.0) > TAU_UNIT:
            n = math.sqrt(n2)
            a, b, c, d = a / n, b / n, c / n, d / n
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __mul__(self, other: "UnitQuaternion") -> "UnitQuaternion":
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return UnitQuaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def __pow__(self, n: int) -> "UnitQuaternion":
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "UnitQuaternion":
        return UnitQuaternion(self.a, -self.b, -self.c, -self.d)

    def isclose(self, other: "UnitQuaternion", tol: float = 1e-10) -> bool:
        return (
            abs(self.a - other.a) <= tol
            and abs(self.b - other.b) <= tol
            and abs(self.c - other.c) <= tol
            and abs(self.d - other.d) <= tol
        )


ONE = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
I = UnitQuaternion(0.0, 1.0, 0.0, 0.0)
J = UnitQuaternion(0.0, 0.0, 1.0, 0.0)
K = UnitQuaternion(0.0, 0.0, 0.0, 1.0)


QuatTuple = tuple[UnitQuaternion, ...]


class ColoredBraidWord(Frozen):
    """A braid word with a strand coloring whose closure is a colored link.

    word holds signed generator indices (+i for the generator crossing
    strand i+1 over strand i, -i for its inverse, 1-based).  coloring
    assigns colors 1..mu to the strand starting positions; the word's
    underlying permutation must preserve the coloring so that the closure
    is well-colored.
    """

    __slots__ = ("strands", "word", "coloring")

    def __init__(self, strands: int, word: tuple[int, ...], coloring: tuple[int, ...]):
        n = strands
        if n < 1:
            raise ValueError("strands must be positive")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "word", tuple(word))
        object.__setattr__(self, "coloring", tuple(coloring))
        for w in self.word:
            if not 1 <= abs(w) < n:
                raise ValueError(f"generator index {w} out of range for {n} strands")
        if len(self.coloring) != n:
            raise ValueError("coloring length must equal strand count")
        mu = max(self.coloring)
        if set(self.coloring) != set(range(1, mu + 1)):
            raise ValueError("coloring must be surjective onto {1..mu}")
        perm = self.permutation()
        if any(self.coloring[perm[p]] != self.coloring[p] for p in range(n)):
            raise ValueError("braid permutation does not preserve the coloring")

    def permutation(self) -> tuple[int, ...]:
        """Position -> strand map at the bottom of the braid."""
        pos = list(range(self.strands))
        for w in self.word:
            i = abs(w) - 1
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        return tuple(pos)


def act(word: ColoredBraidWord, tup: QuatTuple) -> QuatTuple:
    """Apply a braid word to a quaternion tuple, one letter at a time."""
    if len(tup) != word.strands:
        raise ValueError(f"tuple length {len(tup)} != strand count {word.strands}")
    xs = list(tup)
    for w in word.word:
        i = abs(w) - 1
        a, b = xs[i], xs[i + 1]
        if w > 0:
            xs[i], xs[i + 1] = a * b * a.inverse(), a
        else:
            xs[i], xs[i + 1] = b, b.inverse() * a * b
    return tuple(xs)


def closure_linking_number(word: ColoredBraidWord, color_a: int, color_b: int) -> int:
    """Linking number between the two colored sublinks of the closure.

    Equals half the signed count of crossings between strands of the two
    colors; the closure arcs contribute no crossings.
    """
    if color_a == color_b:
        raise ValueError("colors must be distinct")
    present = set(word.coloring)
    for c in (color_a, color_b):
        if c not in present:
            raise ValueError(f"unknown color {c}")
    pos = list(range(word.strands))
    pair = {color_a, color_b}
    total = 0
    for w in word.word:
        i = abs(w) - 1
        s, t = pos[i], pos[i + 1]
        if {word.coloring[s], word.coloring[t]} == pair:
            total += 1 if w > 0 else -1
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    if total % 2:
        raise ValueError("odd signed crossing count; word is not well-colored")
    return total // 2
