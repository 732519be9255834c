"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run pytest with -s to see them).  Tolerances are fixed
here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np

from linksig.pillowcase import (
    frame_intersection_sign,
    gamma_cos_theta_chebyshev,
    gamma_cos_theta_quaternion,
    intersections,
    leading_coeff_check,
    orientation_basis_determinant,
)
from linksig.signature import (
    build_H,
    delta_closed,
    delta_recursive,
    sigma_eval,
    sigma_torus_closed,
    symmetrized_sigma,
    torus_seifert,
)
from linksig.torus_rep import (
    AnglePair,
    angle_pair,
    h_invariant,
    is_defined,
    rep_count,
)
from linksig.verify import check_mod4_congruence, sweep_main_identity


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _dense(band):
    """The matrix of a band as a numpy array; its upper diagonal is conj(sub)."""
    sub = np.asarray(band.sub, dtype=complex)
    diag = np.asarray(band.diag, dtype=complex)
    return np.diag(sub, -1) + np.diag(diag) + np.diag(sub.conj(), 1)


def _admissible_grid(resolution, ell):
    for p in range(1, resolution):
        for q in range(1, resolution):
            alpha = angle_pair(Fraction(p, resolution), Fraction(q, resolution))
            if is_defined(ell, alpha):
                yield alpha


def _random_admissible(rng, ell):
    while True:
        alpha = AnglePair.from_radians(
            rng.uniform(0.05, math.pi - 0.05), rng.uniform(0.05, math.pi - 0.05)
        )
        if is_defined(ell, alpha):
            return alpha


def test_criterion_1_main_identity_sweep():
    start = time.perf_counter()
    failures = 0
    checked = 0
    for ell in list(range(-6, 0)) + list(range(1, 7)):
        report = sweep_main_identity(ell, 120)
        failures += report.failed
        checked += report.checked
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: h = -(sigma(w1,w2)+sigma(w1,w2^-1))/2, ell in +-1..6, res 120",
        failures == 0 and elapsed < 60.0,
        f"{checked} points, {elapsed:.1f} s",
    )


def test_criterion_2_curve_identity_dual_route():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    phis = [math.pi * (k + 1) / 1001 for k in range(1000)]
    for ell in range(1, 9):
        for _ in range(20):
            alpha = _random_admissible(rng, ell)
            for phi in phis:
                diff = abs(
                    gamma_cos_theta_quaternion(ell, alpha, phi)
                    - gamma_cos_theta_chebyshev(ell, alpha, phi)
                )
                if diff > worst:
                    worst = diff
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2: quaternion vs Chebyshev route, ell 1..8, 20 alphas, 1000 phis",
        worst < 1e-8 and elapsed < 10.0,
        f"max |dcos| = {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_3_boundary_limits():
    rng = np.random.default_rng(102)
    worst = 0.0
    for ell in range(1, 9):
        for _ in range(20):
            alpha = _random_admissible(rng, ell)
            a1, a2 = alpha.radians
            lo = gamma_cos_theta_quaternion(ell, alpha, 1e-4)
            hi = gamma_cos_theta_quaternion(ell, alpha, math.pi - 1e-4)
            worst = max(
                worst,
                abs(lo - math.cos(2 * ell * (a1 + a2))),
                abs(hi - math.cos(2 * ell * (a1 - a2))),
            )
    _report(
        "criterion 3: boundary limits cos(2 ell (a1 +/- a2)) at phi = 1e-4, pi - 1e-4",
        worst < 1e-3,
        f"max deviation {worst:.2e}",
    )


def test_criterion_4_leading_coefficient():
    alphas = [angle_pair("1/2", "1/2"), angle_pair("1/3", "1/4"), angle_pair("2/5", "3/7")]
    worst = 0.0
    ok = True
    for ell in range(1, 7):
        for alpha in alphas:
            degree, coeff = leading_coeff_check(ell, alpha)
            a1, a2 = alpha.radians
            expected = (
                2 ** (2 * ell - 1)
                * math.sin(a1) ** (2 * ell)
                * math.sin(a2) ** (2 * ell)
            )
            rel = abs(coeff - expected) / expected
            worst = max(worst, rel)
            ok = ok and degree == 2 * ell and rel < 1e-6
    _report(
        "criterion 4: fitted degree 2*ell and leading coefficient "
        "2^(2ell-1) sin^(2ell)(a1) sin^(2ell)(a2), ell <= 6",
        ok,
        f"max relative error {worst:.2e}",
    )


def test_criterion_5_determinant_dual_route():
    rng = np.random.default_rng(103)
    worst_delta = 0.0
    for ell in range(1, 51):
        for _ in range(10):
            alpha = AnglePair.from_radians(
                rng.uniform(0.05, math.pi - 0.05), rng.uniform(0.05, math.pi - 0.05)
            )
            for m in range(1, ell + 1):
                r = delta_recursive(ell, alpha, m)
                c = delta_closed(ell, alpha, m)
                rel = abs(r - c) / max(abs(r), abs(c), 1e-300)
                worst_delta = max(worst_delta, rel)
    worst_det = 0.0
    for ell in range(2, 13):
        for _ in range(10):
            alpha = AnglePair.from_radians(
                rng.uniform(0.1, math.pi - 0.1), rng.uniform(0.1, math.pi - 0.1)
            )
            h = _dense(build_H(torus_seifert(ell), list(alpha.omega())))
            det = float(np.prod(np.linalg.eigvalsh(h)))
            want = delta_closed(ell, alpha, ell)
            worst_det = max(worst_det, abs(det - want) / max(abs(det), abs(want)))
    _report(
        "criterion 5: delta recursion == closed form (ell <= 50) and det H (ell <= 12)",
        worst_delta < 1e-9 and worst_det < 1e-8,
        f"delta rel {worst_delta:.2e}, det rel {worst_det:.2e}",
    )


def test_criterion_6_signature_dual_route():
    mismatches = 0
    checked = 0
    for ell in range(1, 21):
        system = torus_seifert(ell)
        for alpha in _admissible_grid(40, ell):
            checked += 1
            if sigma_eval(system, list(alpha.omega())) != sigma_torus_closed(ell, alpha):
                mismatches += 1
    _report(
        "criterion 6: engine signature == closed form, ell <= 20, res 40 grid",
        mismatches == 0,
        f"{checked} evaluations",
    )


def test_criterion_7_reference_point_values():
    hopf_ok = all(
        h_invariant(1, alpha) == 0 and rep_count(1, alpha) == 0
        for alpha in _admissible_grid(60, 1)
    )
    sign_pos = frame_intersection_sign(2)
    sign_neg = frame_intersection_sign(-2)
    det8 = orientation_basis_determinant()
    p22 = angle_pair("1/2", "1/2")
    (pos,) = intersections(2, p22)
    (neg,) = intersections(-2, p22)
    ok = (
        hopf_ok
        and sign_pos == 1
        and sign_neg == -1
        and abs(det8 - (-8.0)) < 1e-6
        and pos.sign == 1
        and neg.sign == -1
    )
    _report(
        "criterion 7: h == 0 for ell = 1; crossing signs +1/-1 at (pi/2, pi/2) "
        "for ell = +/-2; 8x8 orientation determinant -8",
        ok,
        f"det8 = {det8:.9f}",
    )


def test_criterion_8_symmetries():
    res = 60
    closed_ok = True
    for ell in range(1, 7):
        for alpha in _admissible_grid(res, ell):
            if h_invariant(-ell, alpha) != -h_invariant(ell, alpha):
                closed_ok = False
            if sigma_torus_closed(-ell, alpha) != -sigma_torus_closed(ell, alpha):
                closed_ok = False
            if symmetrized_sigma(ell, alpha) != symmetrized_sigma(
                ell, alpha.flip_alpha2()
            ):
                closed_ok = False
    engine_ok = True
    for ell in (2, 3, 4):
        system = torus_seifert(ell)
        for alpha in _admissible_grid(res, ell):
            w1, w2 = alpha.omega()
            s = sigma_eval(system, [w1, w2])
            if sigma_eval(system, [w1.conjugate(), w2.conjugate()]) != s:
                engine_ok = False
    _report(
        "criterion 8: h and sigma negate under mirroring, sigma(conj w) == sigma(w), "
        "symmetrized sigma invariant under a2 -> pi - a2, 60x60 grid",
        closed_ok and engine_ok,
    )


def test_criterion_9_mod4_congruence():
    ok = True
    for ell in range(1, 11):
        report = check_mod4_congruence(ell, 64)
        ok = ok and report.failed == 0 and report.checked > 0
    _report(
        "criterion 9: sigma == 2 + ell + sign(conway potential) mod 4, ell 1..10",
        ok,
    )


def test_criterion_10_intersection_count_equals_h():
    rng = np.random.default_rng(104)
    ok = True
    tested = 0
    fixed = [angle_pair("1/2", "1/2"), angle_pair("1/3", "1/5"), angle_pair("3/7", "5/9")]
    for ell in (1, 2, 3, 4, 5, -1, -2, -3, -4, -5):
        alphas = [a for a in fixed if is_defined(ell, a)]
        alphas += [_random_admissible(rng, ell) for _ in range(10)]
        for alpha in alphas:
            tested += 1
            total = sum(s.sign for s in intersections(ell, alpha))
            if total != h_invariant(ell, alpha):
                ok = False
    _report(
        "criterion 10: sum of signed crossings equals the invariant",
        ok,
        f"{tested} (ell, alpha) pairs",
    )
