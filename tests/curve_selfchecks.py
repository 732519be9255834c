"""Numeric self-checks of the pillowcase curve, for acceptance criteria 4
and 7: a Chebyshev fit of the quaternion route's cos(theta), and the
orientation frame at the reference point.  No command runs them, so they
live beside the tests and keep numpy as their reference linear algebra.
pytest does not collect this module; the tests import it.
"""

import math

import numpy as np

from linksig.errors import LinksigError, TransversalityFailureError
from linksig.pillowcase import gamma_cos_theta_quaternion
from linksig.su2 import I, J, K, UnitQuaternion, act
from linksig.torus_rep import AnglePair, check_ell, torus_braid

FD_STEP = 1e-5


class PositiveOnlyError(LinksigError):
    """Operation is normalized only for positive linking number."""


class FitFailureError(LinksigError):
    """Polynomial fit residual exceeded tolerance."""


def leading_coeff_check(ell: int, alpha: AnglePair) -> tuple[int, float]:
    """Fit cos(theta) as a polynomial in cos(phi) from quaternion-route samples.

    Interpolates on 2*ell+1 Chebyshev nodes, validates the fit on off-node
    points (FitFailureError above 1e-6), and returns the recovered degree
    and leading coefficient.  Expected: degree 2*ell with leading coefficient
    2^(2*ell-1) sin^(2*ell)(a1) sin^(2*ell)(a2).
    """
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
