"""Representation-theoretic closed forms for (2,2l)-torus links.

The torus link with linking number ell is the closure of the 2-strand
braid sigma_1^(2*ell).  For meridional trace angles (alpha1, alpha2) in
(0, pi)^2, the conjugacy classes of irreducible SU(2) representations of
its group are indexed by the integers m in {1..|ell|-1} for which

    cos(alpha1) cos(alpha2) - sin(alpha1) sin(alpha2) cos(phi) = cos(pi m / |ell|)

has a solution phi in (0, pi), i.e. cos(pi m/|ell|) lies between
cos(alpha1 + alpha2) and cos(alpha1 - alpha2).  The count is well defined
away from the root locus of the two-variable Alexander polynomial
((t1 t2)^|ell| - 1)/(t1 t2 - 1), and the signed invariant is
sign(ell) times the count.

Angles are rational multiples of pi whenever possible so that root-locus
membership is an exact integer test, never a float comparison.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from ._values import Frozen
from .chebyshev import eval_U
from .errors import NotDefinedError, PositiveOnlyError, ZeroLinkingError
from .su2 import ColoredBraidWord

TAU_ROOT = 1e-9


def check_ell(ell: int) -> int:
    if ell == 0:
        raise ZeroLinkingError(
            "ell = 0: the Alexander polynomial vanishes identically and the "
            "invariant is not defined"
        )
    return ell


class RationalAngle(Frozen):
    """The angle (p/q)*pi with 0 < p/q < 1, stored in lowest terms."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if q == 0:
            raise ValueError("zero denominator")
        if q < 0:
            p, q = -p, -q
        g = math.gcd(p, q)
        if g > 1:
            p, q = p // g, q // g
        if not 0 < p < q:
            raise ValueError(f"angle {p}/{q}*pi is outside (0, pi)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "RationalAngle":
        return cls(f.numerator, f.denominator)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def radians(self) -> float:
        return math.pi * self.p / self.q

    def complement(self) -> "RationalAngle":
        """pi minus this angle."""
        return RationalAngle(self.q - self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


Angle = RationalAngle | float


def _as_radians(a: Angle) -> float:
    return a.radians if isinstance(a, RationalAngle) else a


class AnglePair(Frozen):
    """Trace angles (alpha1, alpha2), each exact (rational multiple of pi) or float."""

    __slots__ = ("alpha1", "alpha2")

    def __init__(self, alpha1: Angle, alpha2: Angle):
        for a in (alpha1, alpha2):
            if isinstance(a, RationalAngle):
                continue
            if not isinstance(a, float):
                raise TypeError("angles must be RationalAngle or float radians")
            if not 0.0 < a < math.pi:
                raise ValueError(f"angle {a} is outside (0, pi)")
        object.__setattr__(self, "alpha1", alpha1)
        object.__setattr__(self, "alpha2", alpha2)

    @classmethod
    def from_radians(cls, a1: float, a2: float) -> "AnglePair":
        return cls(float(a1), float(a2))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.alpha1, RationalAngle) and isinstance(
            self.alpha2, RationalAngle
        )

    @property
    def radians(self) -> tuple[float, float]:
        return (_as_radians(self.alpha1), _as_radians(self.alpha2))

    def omega(self) -> tuple[complex, complex]:
        a1, a2 = self.radians
        return (cmath.exp(2j * a1), cmath.exp(2j * a2))

    def flip_alpha2(self) -> "AnglePair":
        """Replace alpha2 by pi - alpha2, i.e. omega2 by its inverse."""
        a2 = self.alpha2
        if isinstance(a2, RationalAngle):
            return AnglePair(self.alpha1, a2.complement())
        return AnglePair(self.alpha1, math.pi - a2)

    def sum_over_pi(self) -> Fraction | float:
        """(alpha1 + alpha2)/pi, exact when both angles are rational."""
        if self.is_exact:
            return self.alpha1.fraction + self.alpha2.fraction
        a1, a2 = self.radians
        return (a1 + a2) / math.pi


def angle_pair(a1, a2) -> AnglePair:
    """Coerce a pair of angle-like values ("p/q", Fraction, RationalAngle, float)."""

    def coerce(a) -> Angle:
        if isinstance(a, RationalAngle):
            return a
        if isinstance(a, Fraction):
            return RationalAngle.from_fraction(a)
        if isinstance(a, str):
            num, _, den = a.partition("/")
            return RationalAngle(int(num), int(den or "1"))
        if isinstance(a, float):
            return a
        raise TypeError(f"cannot interpret {a!r} as an angle")

    return AnglePair(coerce(a1), coerce(a2))


def torus_braid(ell: int) -> ColoredBraidWord:
    """sigma_1^(2*ell) in B_2 with coloring (1, 2); its closure is the torus link."""
    check_ell(ell)
    letter = 1 if ell > 0 else -1
    return ColoredBraidWord(2, (letter,) * (2 * abs(ell)), (1, 2))


def alexander_eval(ell: int, omega1: complex, omega2: complex) -> complex:
    """The two-variable Alexander polynomial ((t1 t2)^|ell| - 1)/(t1 t2 - 1).

    At omega1*omega2 = 1 the quotient is extended by its limit |ell|.
    """
    check_ell(ell)
    z = omega1 * omega2
    if abs(z - 1.0) < 1e-13:
        return complex(abs(ell))
    return (z ** abs(ell) - 1.0) / (z - 1.0)


def _excluded_exact(ell: int, x: Fraction) -> bool:
    # x is an angle sum/(pi) in (0, 2); the locus is x = m/|ell| for
    # 0 < m < 2|ell|, m != |ell|.
    t = x * abs(ell)
    return t.denominator == 1 and t.numerator != abs(ell)


def _excluded_near(ell: int, x_rad: float, tau: float) -> bool:
    # x_rad is an angle sum in (0, 2*pi); band of width tau around each line.
    ell = abs(ell)
    t = x_rad * ell / math.pi
    m = round(t)
    if not 0 < m < 2 * ell or m == ell:
        return False
    return abs(x_rad - math.pi * m / ell) < tau


def is_defined(ell: int, alpha: AnglePair, tau: float = TAU_ROOT) -> bool:
    """True iff alpha avoids the Alexander root locus of the torus link.

    Exact membership for rational angles; for float angles a rejection band
    of width tau (radians) around each excluded line.
    """
    check_ell(ell)
    if abs(ell) == 1:
        return True
    if alpha.is_exact:
        f1, f2 = alpha.alpha1.fraction, alpha.alpha2.fraction
        return not (
            _excluded_exact(ell, f1 + f2) or _excluded_exact(ell, f1 - f2 + 1)
        )
    a1, a2 = alpha.radians
    return not (
        _excluded_near(ell, a1 + a2, tau) or _excluded_near(ell, a1 - a2 + math.pi, tau)
    )


def _solution_range(ell: int, alpha: AnglePair) -> range:
    """Integers m with |alpha1 - alpha2| < pi*m/|ell| < pi - |pi - (alpha1 + alpha2)|.

    Both endpoint equalities land on the root locus, so on admissible input
    the open and closed conditions agree and no tie-breaking is needed.
    """
    big_l = abs(ell)
    if alpha.is_exact:
        f1, f2 = alpha.alpha1.fraction, alpha.alpha2.fraction
        d = abs(f1 - f2) * big_l
        s = (1 - abs(1 - (f1 + f2))) * big_l
        m_min = d.numerator // d.denominator + 1
        m_max = min(big_l - 1, s.numerator // s.denominator)
        return range(m_min, m_max + 1)
    a1, a2 = alpha.radians
    d = abs(a1 - a2) * big_l / math.pi
    s = (math.pi - abs(math.pi - (a1 + a2))) * big_l / math.pi
    return range(math.floor(d) + 1, min(big_l - 1, math.floor(s)) + 1)


def solve_phi(ell: int, alpha: AnglePair) -> list[tuple[int, float]]:
    """All (m, phi) with X1 X2 an |ell|-th root of +/-1 of real part cos(pi m/|ell|).

    Each admissible m has a unique phi in (0, pi); pairs come back sorted
    by m (phi is then strictly decreasing).
    """
    check_ell(ell)
    if not is_defined(ell, alpha):
        raise NotDefinedError("alpha on Alexander root locus")
    return _phis(ell, alpha)


def _phis(ell: int, alpha: AnglePair) -> list[tuple[int, float]]:
    """solve_phi without its root-locus check: the caller has already
    found is_defined(ell, alpha) true."""
    a1, a2 = alpha.radians
    c1c2 = math.cos(a1) * math.cos(a2)
    s1s2 = math.sin(a1) * math.sin(a2)
    out = []
    for m in _solution_range(ell, alpha):
        cos_phi = (c1c2 - math.cos(math.pi * m / abs(ell))) / s1s2
        cos_phi = max(-1.0, min(1.0, cos_phi))
        out.append((m, math.acos(cos_phi)))
    return out


def rep_count(ell: int, alpha: AnglePair) -> int:
    """Number of conjugacy classes of irreducible SU(2) representations.

    Equal to len(solve_phi(ell, alpha)), counted without building the phis.
    """
    check_ell(ell)
    if not is_defined(ell, alpha):
        raise NotDefinedError("alpha on Alexander root locus")
    return len(_solution_range(ell, alpha))


def h_invariant(ell: int, alpha: AnglePair) -> int:
    """Signed representation count: sign(ell) times rep_count."""
    check_ell(ell)
    if not is_defined(ell, alpha):
        raise NotDefinedError("alpha on Alexander root locus")
    return _h_count(ell, alpha)


def _h_count(ell: int, alpha: AnglePair) -> int:
    """h_invariant without its root-locus check: the caller has already
    found is_defined(ell, alpha) true."""
    count = len(_solution_range(ell, alpha))
    return count if ell > 0 else -count


def conway_potential_torus(ell: int, alpha: AnglePair) -> float:
    """Real value of the Conway potential at (e^{i alpha1}, e^{i alpha2}).

    Normalized as U_{ell-1}(cos(alpha1 + alpha2)), the unit that makes the
    mod-4 signature congruence hold.  Only the positive-linking normalization
    is pinned down, hence the restriction to ell > 0.
    """
    check_ell(ell)
    if ell < 0:
        raise PositiveOnlyError("Conway potential normalization fixed for ell > 0 only")
    a1, a2 = alpha.radians
    return eval_U(ell - 1, math.cos(a1 + a2))
