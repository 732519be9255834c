import math
import re

import numpy as np
import pytest
from curve_selfchecks import (
    PositiveOnlyError,
    frame_intersection_sign,
    leading_coeff_check,
    orientation_basis_determinant,
)

from linksig.errors import DegeneratePhiError, NotDefinedError
from linksig.pillowcase import (
    CHEB_PATH,
    QUAT_PATH,
    CurveSample,
    PillowPoint,
    _plane_at,
    curves_to_csv,
    gamma_cos_theta_chebyshev,
    gamma_cos_theta_quaternion,
    intersections,
    sample_curve,
)
from linksig.torus_rep import (
    AnglePair,
    RationalAngle,
    angle_pair,
    clamped_acos,
    h_invariant,
    is_defined,
    solve_phi,
)

P22 = angle_pair("1/2", "1/2")


def plane_at(alpha):
    """_plane_at at alpha, given the sines and cosines of its angles."""
    a1, a2 = alpha.radians
    return _plane_at(math.sin(a1), math.cos(a1), math.sin(a2), math.cos(a2))


def random_admissible(rng, ell):
    while True:
        a = AnglePair.from_radians(
            rng.uniform(0.05, math.pi - 0.05), rng.uniform(0.05, math.pi - 0.05)
        )
        if is_defined(ell, a):
            return a


def test_plane_reference_values():
    normal, offset = plane_at(P22)(math.pi / 2)[2:]
    assert np.allclose(normal, (0, 0, -1), atol=1e-15)
    assert abs(offset) < 1e-15
    _, offset = plane_at(P22)(math.pi / 4)[2:]
    assert abs(offset) < 1e-15  # both terms carry a cos(alpha) factor


def test_plane_distance_strictly_inside():
    rng = np.random.default_rng(30)
    for _ in range(50):
        alpha = AnglePair.from_radians(
            rng.uniform(0.05, math.pi - 0.05), rng.uniform(0.05, math.pi - 0.05)
        )
        phi = rng.uniform(1e-3, math.pi - 1e-3)
        normal, d = plane_at(alpha)(phi)[2:]
        n = np.array(normal)
        assert abs(d) / np.linalg.norm(n) < 1.0
        # |n|^2 - d^2 = sin^2(a2) sin^2(phi)
        a2 = alpha.radians[1]
        assert abs(
            float(n @ n) - d**2 - math.sin(a2) ** 2 * math.sin(phi) ** 2
        ) < 1e-12
        # the circle passes through P1 = cos(phi) i + sin(phi) j
        assert abs(n @ (math.cos(phi), math.sin(phi), 0.0) - d) < 1e-12


def test_plane_degenerate_phi():
    with pytest.raises(DegeneratePhiError):
        plane_at(P22)(0.0)
    with pytest.raises(DegeneratePhiError):
        plane_at(P22)(math.pi)


def test_quaternion_route_reference_curves():
    # ell = 1 at (pi/2, pi/2): cos(theta) = cos(2 phi)
    for k in range(1, 40):
        phi = math.pi * k / 40
        got = gamma_cos_theta_quaternion(1, P22, phi)
        assert abs(got - math.cos(2 * phi)) < 1e-12
    # ell = 2 at phi = pi/2: the crossing, theta = 0
    assert abs(gamma_cos_theta_quaternion(2, P22, math.pi / 2) - 1.0) < 1e-12
    assert clamped_acos(gamma_cos_theta_quaternion(2, P22, math.pi / 2)) == 0.0
    with pytest.raises(DegeneratePhiError):
        gamma_cos_theta_quaternion(2, P22, 0.0)
    # at a negative ell, which criteria 2 and 3 leave out: the Chebyshev
    # route's values, and the limits cos(2 ell (a1 +- a2)) at the ends
    rng = np.random.default_rng(33)
    for ell in (-2, -3, -5):
        for _ in range(4):
            a1, a2 = rng.uniform(0.1, math.pi - 0.1, size=2)
            alpha = AnglePair.from_radians(a1, a2)
            for k in range(1, 100):
                phi = math.pi * k / 100
                dq = gamma_cos_theta_quaternion(ell, alpha, phi)
                assert abs(dq - gamma_cos_theta_chebyshev(ell, alpha, phi)) < 1e-8
            lo = gamma_cos_theta_quaternion(ell, alpha, 1e-4)
            hi = gamma_cos_theta_quaternion(ell, alpha, math.pi - 1e-4)
            assert abs(lo - math.cos(2 * ell * (a1 + a2))) < 1e-3
            assert abs(hi - math.cos(2 * ell * (a1 - a2))) < 1e-3


def test_chebyshev_route_reference_values():
    assert abs(gamma_cos_theta_chebyshev(2, P22, math.pi / 3) - (-0.5)) < 1e-12
    a1, a2 = 0.9, 1.7
    alpha = AnglePair.from_radians(a1, a2)
    for ell in (1, 3, -3):
        lo = gamma_cos_theta_chebyshev(ell, alpha, 1e-9)
        hi = gamma_cos_theta_chebyshev(ell, alpha, math.pi - 1e-9)
        assert abs(lo - math.cos(2 * ell * (a1 + a2))) < 1e-6
        assert abs(hi - math.cos(2 * ell * (a1 - a2))) < 1e-6


def test_curve_extremal_exactly_at_solutions():
    rng = np.random.default_rng(35)
    for ell in (2, 3, 5):
        alpha = random_admissible(rng, ell)
        for _, phi in solve_phi(ell, alpha):
            assert abs(gamma_cos_theta_quaternion(ell, alpha, phi) - 1.0) < 1e-9
        # strictly below 1 away from the solutions
        phis = [p for _, p in solve_phi(ell, alpha)]
        for k in range(1, 200):
            phi = math.pi * k / 200
            if phis and min(abs(phi - p) for p in phis) < 0.05:
                continue
            assert gamma_cos_theta_quaternion(ell, alpha, phi) < 1.0 + 1e-12


def test_monotone_descent_through_crossings():
    # theta(phi) falls into each crossing and climbs out of it
    rng = np.random.default_rng(36)
    step = 1e-5
    for ell in (2, 3, -3):
        alpha = random_admissible(rng, ell)
        for _, phi in solve_phi(ell, alpha):
            left = clamped_acos(gamma_cos_theta_quaternion(ell, alpha, phi - step))
            mid = clamped_acos(gamma_cos_theta_quaternion(ell, alpha, phi))
            right = clamped_acos(gamma_cos_theta_quaternion(ell, alpha, phi + step))
            assert left > mid and right > mid


def test_leading_coeff_examples():
    degree, coeff = leading_coeff_check(1, P22)
    assert degree == 2
    assert abs(coeff - 2.0) < 1e-9
    with pytest.raises(PositiveOnlyError):
        leading_coeff_check(-2, P22)


def test_intersections_reference_signs():
    (one,) = intersections(2, P22)
    assert (one.m, one.sign) == (1, 1)
    assert abs(one.point.phi - math.pi / 2) < 1e-12
    assert one.point.theta == 0.0
    (neg,) = intersections(-2, P22)
    assert neg.sign == -1
    both = intersections(3, P22)
    assert [s.sign for s in both] == [1, 1]
    assert sum(s.sign for s in both) == 2 == h_invariant(3, P22)
    with pytest.raises(NotDefinedError):
        intersections(3, angle_pair("1/6", "1/6"))


def test_transversal_slope_matches_finite_differences():
    rng = np.random.default_rng(38)
    from linksig.pillowcase import transversal_slope

    # theta(phi) is a tent |slope * (phi - phi0)| at a crossing; averaging the
    # two sides cancels the tiny offset between the computed and true phi0
    step = 1e-4
    for ell in (2, 3, -4):
        alpha = random_admissible(rng, ell)
        for m, phi in solve_phi(ell, alpha):
            tent = (
                clamped_acos(gamma_cos_theta_quaternion(ell, alpha, phi + step))
                + clamped_acos(gamma_cos_theta_quaternion(ell, alpha, phi - step))
            ) / (2 * step)
            closed = transversal_slope(ell, alpha, m, phi)
            assert abs(tent - closed) < 1e-2 * closed


def test_transversality_guard_near_root_locus():
    from linksig.errors import TransversalityFailureError

    # extremely acute alpha just outside the rejection band: the crossing
    # degenerates before the root-locus test fires
    a1 = 1e-5
    alpha = AnglePair.from_radians(a1, math.pi / 2 - a1 + 2e-9)
    assert is_defined(2, alpha)
    with pytest.raises(TransversalityFailureError):
        intersections(2, alpha)


def test_orientation_determinant_and_frame_signs():
    assert abs(orientation_basis_determinant() - (-7.999999999838151)) < 1e-12
    with pytest.raises(ValueError):
        frame_intersection_sign(3)


def test_sample_curve_and_csv():
    curve = sample_curve(2, P22, samples=16, path=QUAT_PATH)
    assert curve.provenance == QUAT_PATH
    assert len(curve.phis) == len(curve.thetas) == len(curve.points) == 16
    assert all(a < b for a, b in zip(curve.phis, curve.phis[1:]))
    assert curve.points[3] == (curve.phis[3], curve.thetas[3])
    other = sample_curve(2, P22, samples=16, path=CHEB_PATH)
    text = curves_to_csv([curve, other], footer="max_abs_dtheta=0")
    lines = text.splitlines()
    assert lines[0] == "phi,theta,provenance"
    assert lines[1] == f"{curve.phis[0]:.17g},{curve.thetas[0]:.17g},{QUAT_PATH}"
    assert lines[2] == f"{other.phis[0]:.17g},{other.thetas[0]:.17g},{CHEB_PATH}"
    assert lines[-1].startswith("# ")
    assert len(lines) == 2 + 32
    with pytest.raises(ValueError, match="equal sample counts"):
        curves_to_csv([curve, sample_curve(2, P22, samples=15, path=CHEB_PATH)], footer=None)


def test_curve_sample_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        CurveSample((0.5, 0.4), (0.0, 0.0), QUAT_PATH)
    with pytest.raises(ValueError, match="unknown provenance"):
        CurveSample((), (), "mystery-path")
    for phis in ((0.0,), (0.5, math.pi)):
        with pytest.raises(ValueError, match="in \\(0, pi\\)"):
            CurveSample(phis, (0.0,) * len(phis), CHEB_PATH)
    with pytest.raises(ValueError, match="one theta per phi"):
        CurveSample((0.5, 0.6), (0.0,), CHEB_PATH)
    with pytest.raises(ValueError):
        sample_curve(2, P22, samples=0, path=CHEB_PATH)
    with pytest.raises(ValueError, match="unknown provenance"):
        sample_curve(2, P22, samples=4, path="mystery-path")
    with pytest.raises(ValueError):
        PillowPoint(0.0, 0.0)
    assert PillowPoint(0.5, 2 * math.pi + 0.25).theta == pytest.approx(0.25)


def test_sample_curve_is_bitwise_the_one_point_routes():
    # each route is one loop: sample_curve runs it over the grid and the
    # gamma_cos_theta_* functions at one phi, so the two agree to the bit
    alphas = (
        angle_pair("1/3", "1/5"),
        angle_pair("2/7", "3/8"),
        AnglePair.from_radians(1e-9, 2.5),
        AnglePair.from_radians(0.7, math.pi - 1e-9),
        AnglePair.from_radians(3e-7, math.pi - 2e-8),
    )
    routes = (
        (QUAT_PATH, gamma_cos_theta_quaternion),
        (CHEB_PATH, gamma_cos_theta_chebyshev),
    )
    for ell in (1, -1, 2, -17, 500, 10**5):
        for alpha in alphas:
            for path, cosine in routes:
                curve = sample_curve(ell, alpha, samples=23, path=path)
                assert curve.phis == tuple(math.pi * k / 24 for k in range(1, 24))
                want = [clamped_acos(cosine(ell, alpha, phi)) for phi in curve.phis]
                assert [t.hex() for t in curve.thetas] == [t.hex() for t in want], (
                    ell, alpha, path)


def test_every_float_route_refuses_an_exact_pair_past_the_float_range():
    # 1/10^400 reads as 0.0 radians and (10^400 - 1)/10^400 as the float pi:
    # where a route reads the pair as floats it refuses them as it refuses
    # those floats, with ValueError; the quaternion route and solve_phi
    # divided by sin(a2)^2 = 0 or sin(a1) sin(a2) = 0 there
    tiny, near_pi = RationalAngle(1, 10**400), RationalAngle(10**400 - 1, 10**400)
    for alpha, image in (
        (AnglePair(RationalAngle(1, 2), tiny), 0.0),
        (AnglePair(tiny, RationalAngle(1, 3)), 0.0),
        (AnglePair(near_pi, RationalAngle(1, 3)), math.pi),
        (AnglePair(1.0, tiny), 0.0),
    ):
        for route, args in (
            (sample_curve, (3, alpha, 2, QUAT_PATH)),
            (sample_curve, (3, alpha, 2, CHEB_PATH)),
            (gamma_cos_theta_quaternion, (3, alpha, 1.0)),
            (gamma_cos_theta_chebyshev, (3, alpha, 1.0)),
            (solve_phi, (3, alpha)),
            (intersections, (3, alpha)),
        ):
            with pytest.raises(ValueError, match=re.escape(f"angle {image} is outside (0, pi)")):
                route(*args)
