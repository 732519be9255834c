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

Off the root locus, h and the closed-form signatures depend only on the
strips, in steps of pi/|ell|, of the angle sum alpha1 + alpha2 and of the
flipped sum alpha1 - alpha2 + pi.  The strip kernel below finds both strips
and the root-locus test together, once per point, and each closed form is
one formula on them, shared by exact and float angles.  Exact angles make
the root-locus test an integer one: the strips of a lattice point
(p/res, q/res)*pi are two integer divisions, which the grid sweeps call
directly.  Float angles use floor and a band of width TAU_ROOT around each
root line.
"""

from __future__ import annotations

import cmath
import math

from ._values import Frozen
from .errors import NotDefinedError, ZeroLinkingError, shown

TAU_ROOT = 1e-9


def check_ell(ell: int) -> int:
    """ell itself, when a nonzero int.  0 raises ZeroLinkingError; anything
    else, a bool or an integral float included, raises TypeError."""
    if not isinstance(ell, int) or isinstance(ell, bool):
        raise TypeError(f"ell {ell!r} is no int")
    if ell == 0:
        raise ZeroLinkingError(
            "ell = 0: the Alexander polynomial vanishes identically and the "
            "invariant is not defined"
        )
    return ell


def parse_int(text: str) -> int:
    """text as an int when it is an optional "-" then ASCII digits; else ValueError."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad integer {text!r}")
    return int(text)


class RationalAngle(Frozen):
    """The angle (p/q)*pi with 0 < p/q < 1, stored in lowest terms; p and q
    are ints, and a bool raises TypeError."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if isinstance(p, bool) or isinstance(q, bool):
            raise TypeError(f"angle {p!r}/{q!r}: a bool is no integer")
        if q == 0:
            raise ValueError("zero denominator")
        if q < 0:
            p, q = -p, -q
        g = math.gcd(p, q)
        if g > 1:
            p, q = p // g, q // g
        if not 0 < p < q:
            raise ValueError(f"angle {shown(p)}/{shown(q)}*pi is outside (0, pi)")
        super().__init__(p, q)

    @classmethod
    def parse(cls, text: str) -> "RationalAngle":
        """The angle that "p/q" names; other text raises ValueError with the CLI's message."""
        if "/" not in text:
            raise ValueError(f"angle {text!r} is not of the form p/q (use --radians for decimals)")
        try:
            p, q = map(parse_int, text.split("/"))
        except ValueError:
            q = 0  # not two integers: as bad as a zero denominator
        if q == 0:
            raise ValueError(f"bad rational angle {text!r}")
        try:
            return cls(p, q)
        except ValueError:
            raise ValueError(f"angle {text} is outside (0, pi)") from None

    @property
    def radians(self) -> float:
        try:
            return math.pi * self.p / self.q
        except OverflowError:  # p or q past the float range: p / q rounds correctly
            return math.pi * (self.p / self.q)

    def complement(self) -> "RationalAngle":
        """pi minus this angle."""
        return RationalAngle(self.q - self.p, self.q)

    def __str__(self) -> str:
        return f"{shown(self.p)}/{shown(self.q)}"


Angle = RationalAngle | float


def _as_radians(a: Angle) -> float:
    return a.radians if isinstance(a, RationalAngle) else a


def omega_of(a: Angle) -> complex:
    """The unit complex number exp(2i*a) that the signature takes at trace angle a."""
    return cmath.exp(2j * _as_radians(a))


def _check_open(a: float) -> None:
    """A float angle lies in (0, pi); else ValueError with the CLI's message."""
    if not 0.0 < a < math.pi:
        raise ValueError(f"angle {a} is outside (0, pi)")


class AnglePair(Frozen):
    """Trace angles (alpha1, alpha2), each exact (rational multiple of pi) or float."""

    __slots__ = ("alpha1", "alpha2")

    def __init__(self, alpha1: Angle, alpha2: Angle):
        for a in (alpha1, alpha2):
            if isinstance(a, RationalAngle):
                continue
            if not isinstance(a, float):
                raise TypeError("angles must be RationalAngle or float radians")
            _check_open(a)
        super().__init__(alpha1, alpha2)

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
        """The pair as floats, which every float route reads.  An exact angle
        whose float leaves (0, pi), such as 1/10^400 (0.0) or
        (10^400 - 1)/10^400 (the float pi), raises ValueError there, as that
        float given as an angle would."""
        pair = (_as_radians(self.alpha1), _as_radians(self.alpha2))
        for a in pair:
            _check_open(a)
        return pair

    def omega(self) -> tuple[complex, complex]:
        return (omega_of(self.alpha1), omega_of(self.alpha2))

    def flip_alpha2(self) -> "AnglePair":
        """Replace alpha2 by pi - alpha2, i.e. omega2 by its inverse."""
        a2 = self.alpha2
        if isinstance(a2, RationalAngle):
            return AnglePair(self.alpha1, a2.complement())
        return AnglePair(self.alpha1, math.pi - a2)


def angle_pair(a1, a2) -> AnglePair:
    """Coerce a pair of angle-like values ("p/q", Fraction, RationalAngle, float)."""
    from fractions import Fraction

    def coerce(a) -> Angle:
        if isinstance(a, RationalAngle):
            return a
        if isinstance(a, Fraction):
            return RationalAngle(a.numerator, a.denominator)
        if isinstance(a, str):
            return RationalAngle.parse(a)
        if isinstance(a, float):
            return a
        raise TypeError(f"cannot interpret {a!r} as an angle")

    return AnglePair(coerce(a1), coerce(a2))


def torus_braid(ell: int) -> tuple[int, ...]:
    """The letters of sigma_1^(2*ell) in B_2; its closure is the torus link."""
    check_ell(ell)
    letter = 1 if ell > 0 else -1
    return (letter,) * (2 * abs(ell))


# The strip kernel.  With L = |ell|, the angle sum x = alpha1 + alpha2 lies in
# strip i = floor(x L / pi), and the flipped sum alpha1 - alpha2 + pi (the
# angle sum once alpha2 -> pi - alpha2) in strip j.  The root locus is the
# root lines x = pi*m/L (is_root_line) of either sum, and off it h and both
# signatures depend on (ell, i, j) alone.  An exact pair is the lattice point
# (p/res, q/res)*pi, whose sums over pi are s/res and d/res with s = p + q
# and d = p - q + res.


def is_root_line(big_l: int, m: int) -> bool:
    """True iff the sum x = pi*m/L is a root line: 0 < m < 2L and m != L."""
    return 0 < m < 2 * big_l and m != big_l


def lattice_point(alpha: AnglePair) -> tuple[int, int, int]:
    """(p, q, res) of an exact pair, with res the lcm of its denominators."""
    a1, a2 = alpha.alpha1, alpha.alpha2
    res = math.lcm(a1.q, a2.q)
    return a1.p * (res // a1.q), a2.p * (res // a2.q), res


def lattice_strips(ell: int, p: int, q: int, res: int) -> tuple[int, int] | None:
    """Strips (i, j) of a lattice point, or None on the root locus.  Its
    domain is res >= 1 and 0 < p, q < res, as strips and the grid sweeps
    pass it; res = 0 raises ZeroDivisionError."""
    big_l = abs(ell)
    i, s_rem = divmod((p + q) * big_l, res)
    j, d_rem = divmod((p - q + res) * big_l, res)
    if (s_rem == 0 and is_root_line(big_l, i)) or (d_rem == 0 and is_root_line(big_l, j)):
        return None
    return i, j


def _float_strip(big_l: int, x_rad: float) -> int | None:
    # x_rad is an angle sum in (0, 2*pi); None inside the band of width
    # TAU_ROOT around each of its root lines.  The lines m = i-1 .. i+2 always
    # hold the nearest root line, also when the admissible m = L is nearer
    # still and pi/L < TAU_ROOT puts L-1 or L+1 inside the band.  Past
    # L = 2*pi/TAU_ROOT the lines lie closer than the band is wide, so every
    # sum is on the root locus: None, without forming x L / pi, which
    # overflows for L past the float range (an int compares to a float exactly).
    if big_l > 2 * math.pi / TAU_ROOT:
        return None
    i = math.floor(x_rad / math.pi * big_l)
    for m in range(i - 1, i + 3):
        if is_root_line(big_l, m) and abs(x_rad - math.pi * m / big_l) < TAU_ROOT:
            return None
    return i


def strips(ell: int, alpha: AnglePair) -> tuple[int, int] | None:
    """Strips (i, j) of alpha, or None on the Alexander root locus.

    Exact membership for rational angles; for float angles a rejection band
    of width TAU_ROOT (radians) around each excluded line.
    """
    check_ell(ell)
    if alpha.is_exact:
        return lattice_strips(ell, *lattice_point(alpha))
    big_l = abs(ell)
    a1, a2 = alpha.radians
    i = _float_strip(big_l, a1 + a2)
    j = _float_strip(big_l, a1 - a2 + math.pi)
    return None if i is None or j is None else (i, j)


def is_defined(ell: int, alpha: AnglePair) -> bool:
    """True iff alpha avoids the Alexander root locus of the torus link."""
    return strips(ell, alpha) is not None


def defined_strips(ell: int, alpha: AnglePair) -> tuple[int, int]:
    """strips(ell, alpha), raising NotDefinedError on the root locus."""
    ij = strips(ell, alpha)
    if ij is None:
        raise NotDefinedError("alpha on Alexander root locus")
    return ij


def strip_m_range(ell: int, i: int, j: int) -> range:
    """The m of solve_phi off the root locus: lo < m <= hi, with
    lo = floor(|alpha1 - alpha2| L/pi) and
    hi = min(L - 1, floor((pi - |pi - (alpha1 + alpha2)|) L/pi)); strict and
    non-strict bounds agree there.  Empty, perhaps with stop < start, if hi <= lo."""
    big_l = abs(ell)
    lo = j - big_l if j >= big_l else big_l - 1 - j
    hi = i if i < big_l else 2 * big_l - 1 - i
    return range(lo + 1, hi + 1)


def strip_h(ell: int, i: int, j: int) -> int:
    """h off the root locus: sign(ell) times the size of strip_m_range,
    counted without len(), which overflows past sys.maxsize."""
    m_range = strip_m_range(ell, i, j)
    count = max(0, m_range.stop - m_range.start)
    return count if ell > 0 else -count


def strip_sigma(ell: int, i: int) -> int:
    """Closed-form signature in strip i of the angle sum, off the root locus.

    Strictly inside the strip i*pi/L < alpha1+alpha2 < (i+1)*pi/L the value
    is L-2i-1 (i < L) or -3L+2i+1 (i >= L).  On the admissible line
    alpha1+alpha2 = pi both neighbouring strips give 1-L, the Sylvester
    minor-sign count there.  Mirroring negates: sigma(-ell) = -sigma(ell).
    """
    big_l = abs(ell)
    value = big_l - 2 * i - 1 if i < big_l else -3 * big_l + 2 * i + 1
    return value if ell > 0 else -value


def strip_potential_sign(ell: int, i: int) -> int:
    """Sign of the Conway potential U_{L-1}(cos x) = sin(L x) / sin x in
    strip i of x = alpha1 + alpha2, off the root locus: (-1)^i for i < L,
    -(-1)^i from L on.  There L x / pi lies strictly inside (i, i + 1), so
    sin(L x) has the sign (-1)^i, and sin x > 0 exactly when i < L; at
    x = pi (i = L) the potential is U_{L-1}(-1) = (-1)^(L-1) L, the same
    sign.  The normalization is pinned for ell > 0 only (unchecked)."""
    sign = -1 if i % 2 else 1
    return sign if i < abs(ell) else -sign


def solve_phi(ell: int, alpha: AnglePair) -> list[tuple[int, float]]:
    """All (m, phi) with X1 X2 an |ell|-th root of +/-1 of real part cos(pi m/|ell|).

    Each admissible m has a unique phi in (0, pi); pairs come back sorted
    by m (phi is then strictly decreasing).
    """
    m_range = strip_m_range(ell, *defined_strips(ell, alpha))
    a1, a2 = alpha.radians
    c1c2 = math.cos(a1) * math.cos(a2)
    s1s2 = math.sin(a1) * math.sin(a2)
    out = []
    for m in m_range:
        out.append((m, clamped_acos((c1c2 - math.cos(math.pi * m / abs(ell))) / s1s2)))
    return out


def clamped_acos(c: float) -> float:
    """acos(c) of a cosine that rounding may carry a few ulp past +-1."""
    return math.acos(max(-1.0, min(1.0, c)))


def rep_count(ell: int, alpha: AnglePair) -> int:
    """Number of conjugacy classes of irreducible SU(2) representations.

    Equal to len(solve_phi(ell, alpha)), counted without building the phis.
    """
    return abs(h_invariant(ell, alpha))


def h_invariant(ell: int, alpha: AnglePair) -> int:
    """Signed representation count: sign(ell) times rep_count."""
    return strip_h(ell, *defined_strips(ell, alpha))


def sigma_torus_closed(ell: int, alpha: AnglePair) -> int:
    """Closed-form signature of the (2,2l)-torus link at omega from alpha
    (strip_sigma in the strip of alpha1 + alpha2)."""
    i, _ = defined_strips(ell, alpha)
    return strip_sigma(ell, i)
