"""The pillowcase and its intersection theory for 2-strand torus braids.

Away from phi in {0, pi} the quotient of pairs of trace-fixed SU(2)
2-tuples with equal products is a cylinder with coordinates
(phi, theta) in (0, pi) x [0, 2pi).  The diagonal curve sits at theta = 0;
the graph curve of sigma_1^(2*ell) is the set theta = theta(phi) computed
here by two independent routes:

  * quaternion route: conjugate P1 = cos(phi) i + sin(phi) j by
    (X1 X2)^ell and project onto the circle frame of the constraint plane;
  * closed form: cos(theta) = T_{2|ell|}(cos a1 cos a2 - cos(phi) sin a1 sin a2).

Each route is one loop over a list of phi values, with the trigonometry of
alpha done once before it; the quaternion route multiplies plain 4-tuples
(su2.qmul).  sample_curve runs a route over its uniform phi grid and the
gamma_cos_theta_* functions run it at one phi, so each route's formula is
written once; torus_rep.clamped_acos turns a cosine into theta in [0, pi].
A CurveSample holds its phi and theta values as float tuples.

intersections lists the crossings through theta = 0 but reads them off no
curve: solve_phi places them by h's own strip count, and each gets the sign
of ell, so their signed count is h by construction, not a second route to it.
The curve's self-checks, the Chebyshev fit of its leading coefficient and
the orientation frame that recomputes a crossing sign at one point, live
with the tests (tests/curve_selfchecks.py); this module needs no numpy.
"""

from __future__ import annotations

import math

from ._values import Frozen
from .chebyshev import eval_T
from .errors import DegeneratePhiError, TransversalityFailureError
from .su2 import _unit, qinv, qmul, qpow
from .torus_rep import AnglePair, check_ell, clamped_acos, solve_phi

TAU_TRANS = 1e-6

QUAT_PATH = "quaternion-path"
CHEB_PATH = "chebyshev-path"


class PillowPoint(Frozen):
    """(phi, theta) coordinates; phi strictly interior, theta reduced mod 2pi."""

    __slots__ = ("phi", "theta")

    def __init__(self, phi: float, theta: float):
        if not 0.0 < phi < math.pi:
            raise ValueError(f"phi = {phi} not in (0, pi)")
        super().__init__(phi, theta % (2.0 * math.pi))


class CurveSample(Frozen):
    """theta in [0, pi] at strictly increasing phi in (0, pi), by one route."""

    __slots__ = ("phis", "thetas", "provenance")

    def __init__(self, phis: tuple[float, ...], thetas: tuple[float, ...], provenance: str):
        if provenance not in (QUAT_PATH, CHEB_PATH):
            raise ValueError(f"unknown provenance {provenance!r}")
        if len(phis) != len(thetas):
            raise ValueError("a curve needs one theta per phi")
        if any(b <= a for a, b in zip(phis, phis[1:])):
            raise ValueError("phi must be strictly increasing along a curve")
        if phis and not (0.0 < phis[0] and phis[-1] < math.pi):
            raise ValueError("phi must lie in (0, pi)")
        super().__init__(phis, thetas, provenance)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """The (phi, theta) pairs."""
        return tuple(zip(self.phis, self.thetas))


class SignedIntersection(Frozen):
    __slots__ = ("point", "m", "sign")


def _plane_at(alpha: AnglePair):
    """The plane n . x = d that cuts the target circle for Q1 out of the
    2-sphere, as a function of phi that returns (sin phi, cos phi, n, d),
    with the trigonometry of alpha done once.  |d|/|n| < 1."""
    a1, a2 = alpha.radians
    s1, c1 = math.sin(a1), math.cos(a1)
    s2, c2 = math.sin(a2), math.cos(a2)
    s1c2, c1s2, ms1s2 = s1 * c2, c1 * s2, -s1 * s2

    def at(phi: float):
        if not 0.0 < phi < math.pi:
            raise DegeneratePhiError(f"phi = {phi} is not interior to (0, pi)")
        sp, cp = math.sin(phi), math.cos(phi)
        return sp, cp, (s1c2 * cp + c1s2, s1c2 * sp, ms1s2 * sp), s1c2 + c1s2 * cp

    return at


def _quaternion_cosines(ell: int, alpha: AnglePair, phis) -> list[float]:
    """cos(theta) at each phi by explicit quaternion conjugation: conjugate
    P1 = cos(phi) i + sin(phi) j by (X1 X2)^ell and project onto the plane."""
    check_ell(ell)
    at = _plane_at(alpha)
    a1, a2 = alpha.radians
    s1, c1 = math.sin(a1), math.cos(a1)
    s2, c2 = math.sin(a2), math.cos(a2)
    x2 = _unit(c2, s2, 0.0, 0.0)
    s2s2 = s2 * s2
    out = []
    for phi in phis:
        sp, cp, (nx, ny, nz), d = at(phi)
        g = qpow(qmul(_unit(c1, s1 * cp, s1 * sp, 0.0), x2), ell)
        _, qb, qc, qd = qmul(qmul(g, _unit(0.0, cp, sp, 0.0)), qinv(g))
        n2 = nx * nx + ny * ny + nz * nz
        num = (n2 * cp - d * nx) * qb + (n2 * sp - d * ny) * qc + (-d * nz) * qd
        out.append(num / (s2s2 * sp * sp))
    return out


def _chebyshev_cosines(ell: int, alpha: AnglePair, phis) -> list[float]:
    """cos(theta) = T_{2|ell|}(cos a1 cos a2 - cos(phi) sin a1 sin a2) at each phi."""
    check_ell(ell)
    a1, a2 = alpha.radians
    s1, s2, c1c2 = math.sin(a1), math.sin(a2), math.cos(a1) * math.cos(a2)
    m = 2 * abs(ell)
    return [eval_T(m, c1c2 - math.cos(phi) * s1 * s2) for phi in phis]


def gamma_cos_theta_quaternion(ell: int, alpha: AnglePair, phi: float) -> float:
    """cos(theta) on the graph curve by explicit quaternion conjugation."""
    return _quaternion_cosines(ell, alpha, (phi,))[0]


def gamma_cos_theta_chebyshev(ell: int, alpha: AnglePair, phi: float) -> float:
    """cos(theta) = T_{2|ell|}(cos a1 cos a2 - cos(phi) sin a1 sin a2).

    Even degree makes the curve identical for ell and -ell; the sign of ell
    enters only through orientations.  Extends continuously to phi in {0, pi}.
    """
    return _chebyshev_cosines(ell, alpha, (phi,))[0]


def sample_curve(ell: int, alpha: AnglePair, samples: int, path: str) -> CurveSample:
    """Sample the graph curve at `samples` uniform interior phi values."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if path not in (QUAT_PATH, CHEB_PATH):
        raise ValueError(f"unknown provenance {path!r}")
    cosines = _quaternion_cosines if path == QUAT_PATH else _chebyshev_cosines
    phis = tuple(math.pi * (k + 1) / (samples + 1) for k in range(samples))
    thetas = tuple(map(clamped_acos, cosines(ell, alpha, phis)))
    return CurveSample(phis, thetas, path)


def curves_to_csv(curves: list[CurveSample], footer: str | None) -> str:
    """CSV with header phi,theta,provenance; curves interleaved by phi index."""
    lines = ["phi,theta,provenance"]
    lengths = {len(c.phis) for c in curves}
    if len(lengths) > 1:
        raise ValueError("curves must have equal sample counts to interleave")
    count = lengths.pop() if lengths else 0
    for k in range(count):
        for c in curves:
            lines.append(f"{c.phis[k]:.17g},{c.thetas[k]:.17g},{c.provenance}")
    if footer is not None:
        lines.append(f"# {footer}")
    return "\n".join(lines) + "\n"


def transversal_slope(ell: int, alpha: AnglePair, m: int, phi: float) -> float:
    """|d theta/d phi| at a crossing, in closed form.

    Differentiating the Chebyshev identity and cancelling the double root
    of 1 - T^2 against the simple root of U gives
    2|ell| sin(a1) sin(a2) sin(phi) / sin(pi m / |ell|).
    """
    a1, a2 = alpha.radians
    return (
        2.0
        * abs(ell)
        * math.sin(a1)
        * math.sin(a2)
        * math.sin(phi)
        / math.sin(math.pi * m / abs(ell))
    )


def intersections(ell: int, alpha: AnglePair) -> list[SignedIntersection]:
    """Crossings through theta = 0 at solve_phi's phis, each signed sign(ell).

    solve_phi's m are the strip range that h_invariant counts, so the signed
    sum is h by construction and criterion 10 is no independent check; the
    tests recompute the sign at alpha = (pi/2, pi/2), |ell| = 2 only.
    """
    sols = solve_phi(ell, alpha)
    sign = 1 if ell > 0 else -1
    out = []
    for m, phi in sols:
        slope = transversal_slope(ell, alpha, m, phi)
        if slope < TAU_TRANS:
            raise TransversalityFailureError(
                f"|dtheta/dphi| = {slope:.3e} at m={m}: alpha too near the root locus"
            )
        out.append(SignedIntersection(PillowPoint(phi, 0.0), m, sign))
    return out
