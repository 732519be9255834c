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
(su2.qmul).  sample_curve runs a loop over its uniform phi grid and the
gamma_* functions run it at one phi, so each route's formula is written
once.  A CurveSample holds its phi and theta values as float tuples.

The signed count of the curve's crossings through theta = 0 is the
representation-count invariant; all crossings carry the sign of ell.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._values import Frozen
from .chebyshev import eval_T
from .errors import (
    DegeneratePhiError,
    FitFailureError,
    PositiveOnlyError,
    TransversalityFailureError,
)
from .su2 import I, J, K, UnitQuaternion, _unit, act, qinv, qmul, qpow
from .torus_rep import AnglePair, check_ell, solve_phi, torus_braid

if TYPE_CHECKING:
    import numpy as np

TAU_TRANS = 1e-6
FD_STEP = 1e-5
DEFAULT_SAMPLES = 2048

QUAT_PATH = "quaternion-path"
CHEB_PATH = "chebyshev-path"


class PillowPoint(Frozen):
    """(phi, theta) coordinates; phi strictly interior, theta reduced mod 2pi."""

    __slots__ = ("phi", "theta")

    def __init__(self, phi: float, theta: float):
        if not 0.0 < phi < math.pi:
            raise ValueError(f"phi = {phi} not in (0, pi)")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "theta", theta % (2.0 * math.pi))


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
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "provenance", provenance)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """The (phi, theta) pairs."""
        return tuple(zip(self.phis, self.thetas))


class SignedIntersection(Frozen):
    __slots__ = ("point", "m", "sign")

    def __init__(self, point: PillowPoint, m: int, sign: int):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "sign", sign)


def _plane_at(alpha: AnglePair):
    """plane(alpha, .) with the trigonometry of alpha done once: a function of
    phi that returns (sin phi, cos phi, n, d)."""
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


def plane(alpha: AnglePair, phi: float) -> tuple[tuple[float, float, float], float]:
    """(n, d) of the plane n . x = d that cuts the target circle for Q1 out of
    the 2-sphere at a given phi.  Guarantees |d|/|n| < 1."""
    return _plane_at(alpha)(phi)[2:]


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


def _theta(c: float) -> float:
    # the cosine may exceed 1 by a few ulp exactly at the crossings
    return math.acos(max(-1.0, min(1.0, c)))


def gamma_cos_theta_quaternion(ell: int, alpha: AnglePair, phi: float) -> float:
    """cos(theta) on the graph curve by explicit quaternion conjugation."""
    return _quaternion_cosines(ell, alpha, (phi,))[0]


def gamma_theta_quaternion(ell: int, alpha: AnglePair, phi: float) -> float:
    """theta(phi) in [0, pi] on the graph curve, quaternion route.

    The cosine may exceed 1 by a few ulp exactly at the crossings, so it is
    clamped before arccos.
    """
    return _theta(gamma_cos_theta_quaternion(ell, alpha, phi))


def gamma_cos_theta_chebyshev(ell: int, alpha: AnglePair, phi: float) -> float:
    """cos(theta) = T_{2|ell|}(cos a1 cos a2 - cos(phi) sin a1 sin a2).

    Even degree makes the curve identical for ell and -ell; the sign of ell
    enters only through orientations.  Extends continuously to phi in {0, pi}.
    """
    return _chebyshev_cosines(ell, alpha, (phi,))[0]


def gamma_theta_chebyshev(ell: int, alpha: AnglePair, phi: float) -> float:
    return _theta(gamma_cos_theta_chebyshev(ell, alpha, phi))


def sample_curve(
    ell: int,
    alpha: AnglePair,
    samples: int = DEFAULT_SAMPLES,
    path: str = CHEB_PATH,
) -> CurveSample:
    """Sample the graph curve at `samples` uniform interior phi values."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if path not in (QUAT_PATH, CHEB_PATH):
        raise ValueError(f"unknown provenance {path!r}")
    cosines = _quaternion_cosines if path == QUAT_PATH else _chebyshev_cosines
    phis = tuple(math.pi * (k + 1) / (samples + 1) for k in range(samples))
    thetas = tuple(map(_theta, cosines(ell, alpha, phis)))
    return CurveSample(phis, thetas, path)


def curves_to_csv(curves: list[CurveSample], footer: str | None = None) -> str:
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


def leading_coeff_check(ell: int, alpha: AnglePair) -> tuple[int, float]:
    """Fit cos(theta) as a polynomial in cos(phi) from quaternion-route samples.

    Interpolates on 2*ell+1 Chebyshev nodes, validates the fit on off-node
    points (FitFailureError above 1e-6), and returns the recovered degree
    and leading coefficient.  Expected: degree 2*ell with leading coefficient
    2^(2*ell-1) sin^(2*ell)(a1) sin^(2*ell)(a2).
    """
    import numpy as np

    check_ell(ell)
    if ell < 0:
        raise PositiveOnlyError("leading-coefficient statement is for ell > 0")
    deg = 2 * ell
    nodes = np.cos((2 * np.arange(deg + 1) + 1) * math.pi / (2 * (deg + 1)))
    values = np.array(
        [gamma_cos_theta_quaternion(ell, alpha, math.acos(x)) for x in nodes]
    )
    cheb = np.polynomial.chebyshev.chebfit(nodes, values, deg)
    coeffs = np.polynomial.chebyshev.cheb2poly(cheb)
    probe = np.cos((2 * np.arange(deg + 2) + 1) * math.pi / (2 * (deg + 2)))
    fitted = np.polynomial.polynomial.polyval(probe, coeffs)
    actual = np.array(
        [gamma_cos_theta_quaternion(ell, alpha, math.acos(x)) for x in probe]
    )
    residual = float(np.max(np.abs(fitted - actual)))
    if residual > 1e-6:
        raise FitFailureError(f"fit residual {residual:.3e} exceeds 1e-6")
    scale = float(np.max(np.abs(coeffs)))
    nonzero = np.nonzero(np.abs(coeffs) > 1e-7 * scale)[0]
    degree = int(nonzero[-1]) if nonzero.size else 0
    return degree, float(coeffs[degree])


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
    """Signed crossings of the graph curve through theta = 0.

    Every crossing carries sign(ell); frame_intersection_sign recomputes
    it at the reference point alpha = (pi/2, pi/2), |ell| = 2, by the
    numeric tangent-frame method.
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


# ---------------------------------------------------------------------------
# Orientation bookkeeping at the reference point alpha = (pi/2, pi/2).
#
# The ambient orientation comes from the base-fiber rule applied to
# f(X1, X2, Y1, Y2) = X1 X2 Y2^{-1} Y1^{-1} at the crossing point
# (j, i, j, i).  The frame below consists of completion vectors w1..w3,
# the coordinate tangents u1 = dg/dphi, u2 = dg/dtheta of the pillowcase
# chart g(phi, theta) = (i e^{-k phi}, i, i e^{-k (phi - theta)}, i e^{k theta}),
# and the conjugation-orbit tangents v1..v3.  Its determinant against the
# standard tangent basis is -8, which makes {u2, u1} a positive basis of
# the pillowcase at the crossing.
# ---------------------------------------------------------------------------


_R0 = (0.0, 0.0, 0.0, 0.0)


def _flat(quads) -> np.ndarray:
    import numpy as np

    return np.array(
        [q if q is _R0 else (q.a, q.b, q.c, q.d) for q in quads], dtype=float
    ).ravel()


def _fd_tangent(path, t0: float) -> np.ndarray:
    plus = path(t0 + FD_STEP)
    minus = path(t0 - FD_STEP)
    return (_flat(plus) - _flat(minus)) / (2.0 * FD_STEP)


def _i_exp_mk(t: float) -> UnitQuaternion:
    # i e^{-k t} = cos(t) i + sin(t) j
    return UnitQuaternion(0.0, math.cos(t), math.sin(t), 0.0)


def _reference_frame() -> dict[str, np.ndarray]:
    point = (J, I, J, I)

    def commutator_frame(e):
        # products of basis units are exact
        return _flat([e * q for q in point]) - _flat([q * e for q in point])

    def chart(phi, theta):
        return (_i_exp_mk(phi), I, _i_exp_mk(phi - theta), _i_exp_mk(-theta))

    half_pi = math.pi / 2.0
    u1 = _fd_tangent(lambda t: chart(t, 0.0), half_pi)
    u2 = _fd_tangent(lambda t: chart(half_pi, t), 0.0)
    v1 = commutator_frame(I)
    v2 = commutator_frame(J)
    v3 = commutator_frame(K)
    w1 = _flat([K, _R0, _R0, _R0])
    w2 = _flat([_R0, K, _R0, _R0])
    w3 = _flat([_R0, J, _R0, _R0])
    return {"u1": u1, "u2": u2, "v1": v1, "v2": v2, "v3": v3, "w1": w1, "w2": w2, "w3": w3}


def orientation_basis_determinant() -> float:
    """Determinant of the frame {w1,w2,w3,u1,u2,v1,v2,v3} against the standard
    tangent basis at (j, i, j, i); the reference value is -8."""
    import numpy as np

    fr = _reference_frame()
    std = [
        _flat([I, _R0, _R0, _R0]),
        _flat([K, _R0, _R0, _R0]),
        _flat([_R0, J, _R0, _R0]),
        _flat([_R0, K.inverse(), _R0, _R0]),
        _flat([_R0, _R0, I, _R0]),
        _flat([_R0, _R0, K, _R0]),
        _flat([_R0, _R0, _R0, J]),
        _flat([_R0, _R0, _R0, K.inverse()]),
    ]
    basis = [fr[name] for name in ("w1", "w2", "w3", "u1", "u2", "v1", "v2", "v3")]
    matrix = np.array([[e @ b for b in basis] for e in std])
    return float(np.linalg.det(matrix))


def frame_intersection_sign(ell: int) -> int:
    """Crossing sign at alpha = (pi/2, pi/2) by the numeric tangent-frame method.

    Only |ell| = 2 has its crossing at the reference point (phi, theta) =
    (pi/2, 0) where the frame is anchored.  Tangents to the diagonal and the
    graph curve are finite differences of the actual braid action; their
    coordinates in the positive basis {u2, u1} give the sign as a 2x2
    determinant.
    """
    import numpy as np

    check_ell(ell)
    if abs(ell) != 2:
        raise ValueError("the reference-frame computation is anchored at |ell| = 2")
    fr = _reference_frame()
    word = torus_braid(ell)
    half_pi = math.pi / 2.0

    def diag_path(phi):
        x1 = _i_exp_mk(phi)
        return (x1, I, x1, I)

    def graph_path(phi):
        x1 = _i_exp_mk(phi)
        return (x1, I, *act(word, (x1, I)))

    psi1 = _fd_tangent(diag_path, half_pi)
    psi2 = _fd_tangent(graph_path, half_pi)
    span = np.column_stack(
        [fr["u2"], fr["u1"], fr["v1"], fr["v2"], fr["v3"]]
    )
    c1, *_ = np.linalg.lstsq(span, psi1, rcond=None)
    c2, *_ = np.linalg.lstsq(span, psi2, rcond=None)
    for coords, vec in ((c1, psi1), (c2, psi2)):
        residual = float(np.linalg.norm(span @ coords - vec))
        if residual > 1e-6:
            raise TransversalityFailureError(
                f"tangent does not lie in the frame span (residual {residual:.3e})"
            )
    det = c1[0] * c2[1] - c1[1] * c2[0]
    if abs(det) < 1e-8:
        raise TransversalityFailureError("degenerate tangent pair")
    return 1 if det > 0 else -1
