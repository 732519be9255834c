import cmath
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linksig.chebyshev import eval_U
from linksig.errors import NotDefinedError, ZeroLinkingError
from linksig.signature import symmetrized_sigma
from linksig.torus_rep import (
    TAU_ROOT,
    AnglePair,
    RationalAngle,
    angle_pair,
    cell_values,
    h_invariant,
    is_defined,
    is_root_line,
    lattice_strips,
    rep_count,
    sigma_torus_closed,
    solve_phi,
    strip_m_range,
    strip_potential_sign,
    strips,
    torus_braid,
    _float_strip,
)
from linksig.verify import check_mod4_congruence

P22 = angle_pair("1/2", "1/2")


def random_admissible(rng, ell, exact=False):
    while True:
        if exact:
            den = int(rng.integers(7, 200))
            a = angle_pair(
                Fraction(int(rng.integers(1, den)), den),
                Fraction(int(rng.integers(1, den)), den),
            )
        else:
            a = AnglePair.from_radians(
                rng.uniform(1e-3, math.pi - 1e-3), rng.uniform(1e-3, math.pi - 1e-3)
            )
        if is_defined(ell, a):
            return a


def test_rational_angle_normalization():
    a = RationalAngle(2, 4)
    assert (a.p, a.q) == (1, 2)
    assert (RationalAngle(-3, -9).p, RationalAngle(-3, -9).q) == (1, 3)
    with pytest.raises(ValueError):
        RationalAngle(5, 4)
    with pytest.raises(ValueError):
        RationalAngle(0, 1)
    with pytest.raises(ValueError):
        RationalAngle(1, 0)
    # a numerator past the 4300 digits that int -> str gives is shown by that limit
    message = r"^angle <int of more than 4300 digits>/1\*pi is outside \(0, pi\)$"
    with pytest.raises(ValueError, match=message):
        RationalAngle(10**5000, 1)


def test_rational_angle_rejects_bools():
    # True == 1 would otherwise give an angle that prints as "True/2"
    for p, q in ((True, 2), (1, True), (False, True)):
        with pytest.raises(TypeError, match="bool"):
            RationalAngle(p, q)
    assert str(RationalAngle(1, 2)) == "1/2"


def test_ell_must_be_an_int():
    # 2.5 read as a linking number gave sigma -0.5, and True a rank-0 system
    from linksig.signature import delta_closed, delta_recursive, torus_seifert

    for ell in (2.5, 3.0, True, False, np.int64(3), Fraction(3)):
        for call in (
            lambda: sigma_torus_closed(ell, P22),
            lambda: is_defined(ell, P22),
            lambda: h_invariant(ell, P22),
            lambda: torus_braid(ell),
            lambda: torus_seifert(ell),
            lambda: delta_recursive(ell, P22, 1),
            lambda: delta_closed(ell, P22, 1),
        ):
            with pytest.raises(TypeError, match="is no int"):
                call()
    for delta in (delta_recursive, delta_closed):
        with pytest.raises(ZeroLinkingError):
            delta(0, P22, 1)
        with pytest.raises(ValueError, match="positive"):
            delta(-2, P22, 1)


def test_angle_pair_validation_and_flip():
    with pytest.raises(ValueError):
        AnglePair(0.0, 1.0)
    with pytest.raises(ValueError):
        AnglePair(1.0, math.pi)
    flipped = angle_pair("1/3", "1/4").flip_alpha2()
    assert (flipped.alpha2.p, flipped.alpha2.q) == (3, 4)
    f = AnglePair.from_radians(1.0, 0.25).flip_alpha2()
    assert abs(f.alpha2 - (math.pi - 0.25)) < 1e-15


# the text angle_pair refuses, with the messages that the CLI prints for it
# (ANGLE_ERRORS in test_cli.py): one grammar for "p/q" text
TEXT_ANGLE_ERRORS = {
    "a/b": "bad rational angle 'a/b'",
    "1/0": "bad rational angle '1/0'",
    "1/2/3": "bad rational angle '1/2/3'",
    "1": "angle '1' is not of the form p/q (use --radians for decimals)",
    "0.5": "angle '0.5' is not of the form p/q (use --radians for decimals)",
    "1/1": "angle 1/1 is outside (0, pi)",
    "1/-2": "angle 1/-2 is outside (0, pi)",
    " 1/3": "bad rational angle ' 1/3'",
    "1_0/30": "bad rational angle '1_0/30'",
}


def test_angle_pair_reads_text_as_the_cli_does():
    for text, message in TEXT_ANGLE_ERRORS.items():
        for pair in ((text, "1/2"), ("1/2", text)):
            with pytest.raises(ValueError) as exc:
                angle_pair(*pair)
            assert str(exc.value) == message, pair
    third = RationalAngle(1, 3)
    assert angle_pair("1/3", "-2/-6") == AnglePair(third, third)


def test_torus_braid_closure_has_linking_number_ell():
    # every crossing of a 2-strand braid is between the two strands, and the
    # linking number is half the signed crossing count
    for ell in (1, 3, -4):
        assert sum(torus_braid(ell)) == 2 * ell
    with pytest.raises(ZeroLinkingError):
        torus_braid(0)


def test_is_defined_exact():
    assert not is_defined(3, angle_pair("1/6", "1/6"))  # sum = pi/3
    assert is_defined(3, P22)  # sum = pi corresponds to the excluded index
    assert not is_defined(3, angle_pair("5/6", "1/2"))  # sum = 4pi/3 = (m=4)/3
    assert not is_defined(2, angle_pair("3/4", "1/4"))  # difference = pi/2
    rng = np.random.default_rng(12)
    for _ in range(50):
        assert is_defined(1, random_admissible(rng, 1))
        assert is_defined(-1, random_admissible(rng, -1))


def test_is_defined_float_band():
    base = math.pi / 3
    on = AnglePair.from_radians(base / 2 + 5e-10, base / 2)
    off = AnglePair.from_radians(base / 2 + 1e-6, base / 2)
    assert not is_defined(3, on)
    assert is_defined(3, off)
    # difference line for ell=2 at alpha1 - alpha2 = pi/2
    near = AnglePair.from_radians(2.0, 2.0 - math.pi / 2 + 1e-10)
    assert not is_defined(2, near)


def test_is_defined_float_band_past_the_line_spacing():
    # Both sums are pi, on the admissible line m = L.  Once pi/L < TAU_ROOT
    # (|ell| above about 3.2e9) the root lines L - 1 and L + 1 lie inside
    # the band although m = L is the nearest line.
    half_turn = AnglePair.from_radians(math.pi / 2, math.pi / 2)
    assert is_defined(10**9, half_turn)
    assert not is_defined(10**10, half_turn)
    assert not is_defined(-(10**10), half_turn)


def brute_force_phi(ell, alpha):
    """Scan the defining equation directly with float interval membership."""
    a1, a2 = alpha.radians
    lo, hi = math.cos(a1 + a2), math.cos(a1 - a2)
    out = []
    for m in range(1, abs(ell)):
        c = math.cos(math.pi * m / abs(ell))
        if lo <= c <= hi:
            cos_phi = (math.cos(a1) * math.cos(a2) - c) / (math.sin(a1) * math.sin(a2))
            out.append((m, math.acos(max(-1.0, min(1.0, cos_phi)))))
    return out


def test_solve_phi_frozen_examples():
    ((m, phi),) = solve_phi(2, P22)
    assert m == 1 and abs(phi - math.pi / 2) < 1e-12
    got = solve_phi(3, P22)
    assert [m for m, _ in got] == [1, 2]
    assert abs(got[0][1] - 2 * math.pi / 3) < 1e-12
    assert abs(got[1][1] - math.pi / 3) < 1e-12
    assert solve_phi(1, angle_pair("1/3", "2/5")) == []


def test_solve_phi_against_brute_force():
    rng = np.random.default_rng(13)
    for ell in (2, 3, 5, -4, -7):
        for exact in (False, True):
            for _ in range(15):
                alpha = random_admissible(rng, ell, exact=exact)
                got = solve_phi(ell, alpha)
                want = brute_force_phi(ell, alpha)
                assert [m for m, _ in got] == [m for m, _ in want]
                assert np.allclose(
                    [p for _, p in got], [p for _, p in want], atol=1e-12
                )


def test_solve_phi_monotone_in_m():
    rng = np.random.default_rng(14)
    for _ in range(20):
        alpha = random_admissible(rng, 8)
        phis = [p for _, p in solve_phi(8, alpha)]
        assert all(a > b for a, b in zip(phis, phis[1:]))


def test_solve_phi_requires_admissible():
    with pytest.raises(NotDefinedError):
        solve_phi(3, angle_pair("1/6", "1/6"))


def test_rep_count_examples():
    assert rep_count(3, P22) == 2
    assert rep_count(1, P22) == 0
    assert rep_count(-4, P22) == 3


def test_rep_count_equals_number_of_phis():
    rng = np.random.default_rng(15)
    grid = [
        angle_pair(Fraction(p, 14), Fraction(q, 14))
        for p in range(1, 14)
        for q in range(1, 14)
    ]
    for ell in (1, -1, 2, -2, 7, -7, 200, -200):
        big_l = abs(ell)
        floats = [
            AnglePair.from_radians(*rng.uniform(1e-3, math.pi - 1e-3, size=2))
            for _ in range(20)
        ]
        on_root_line = [
            angle_pair(Fraction(1, 2 * big_l), Fraction(1, 2 * big_l)),
            AnglePair.from_radians(math.pi / (2 * big_l), math.pi / (2 * big_l)),
        ]
        if big_l > 1:
            assert not any(is_defined(ell, alpha) for alpha in on_root_line)
        for alpha in grid + floats + (on_root_line if big_l > 1 else []):
            if is_defined(ell, alpha):
                assert rep_count(ell, alpha) == len(solve_phi(ell, alpha))
                continue
            with pytest.raises(NotDefinedError):
                rep_count(ell, alpha)
            with pytest.raises(NotDefinedError):
                solve_phi(ell, alpha)
    alpha = angle_pair("1/3", "2/7")
    for ell in (10**5, -(10**5)):
        assert rep_count(ell, alpha) == len(solve_phi(ell, alpha)) == 57143


def test_rep_count_constant_on_components():
    # both points inside the central region of ell=3
    assert rep_count(3, P22) == rep_count(3, angle_pair("5/12", "7/12"))
    # both points in the outermost region
    assert rep_count(3, angle_pair("1/12", "1/12")) == rep_count(
        3, angle_pair("1/24", "1/16")
    )


def test_root_locus_is_the_alexander_zero_set():
    """lattice_strips is None exactly where the Alexander polynomial
    ((t1 t2)^L - 1)/(t1 t2 - 1) = sum_{k<L} (t1 t2)^k vanishes at
    (omega1, omega2) or at (omega1, omega2^-1), L = |ell|."""
    for ell in (*range(1, 9), -3, -6, 12):
        big_l = abs(ell)
        for res in (2, 3, 7, 12, 24, 30):
            for p in range(1, res):
                for q in range(1, res):
                    on_locus = any(
                        abs(sum(z**k for k in range(big_l))) < 1e-9
                        for z in (
                            cmath.exp(2j * math.pi * (p + q) / res),
                            cmath.exp(2j * math.pi * (p - q) / res),
                        )
                    )
                    ij = lattice_strips(ell, p, q, res)
                    assert (ij is None) == on_locus, (ell, p, q, res)
        # and is_root_line(L, m) exactly where it vanishes at t1 t2 = exp(2 pi i m/L)
        for m in range(2 * big_l + 1):
            z = cmath.exp(2j * math.pi * m / big_l)
            vanishes = abs(sum(z**k for k in range(big_l))) < 1e-9
            assert is_root_line(big_l, m) is vanishes, (ell, m)


def test_h_invariant_examples_and_sign():
    assert h_invariant(1, angle_pair("1/3", "1/4")) == 0
    assert h_invariant(3, P22) == 2
    assert h_invariant(3, angle_pair("5/12", "7/12")) == 2
    assert h_invariant(-3, P22) == -2
    with pytest.raises(ZeroLinkingError):
        h_invariant(0, P22)
    with pytest.raises(NotDefinedError):
        h_invariant(3, angle_pair("1/6", "1/6"))


def test_conway_potential_examples():
    # the sign of U_{ell-1}(cos x), the float reference, at every admissible
    # lattice point equals strip_potential_sign in the strip of the sum x
    cases = {"res < L": 0, "s = res": 0}
    for ell in range(1, 41):
        for res in (2, 3, 7, 64, 97, 120):
            seen = set()  # the potential depends on s = p + q alone
            for p in range(1, res):
                for q in range(1, res):
                    ij = lattice_strips(ell, p, q, res)
                    if ij is None or p + q in seen:
                        continue
                    seen.add(p + q)
                    potential = eval_U(ell - 1, math.cos(math.pi * (p + q) / res))
                    assert potential != 0.0, (ell, p, q, res)
                    sign = 1 if potential > 0 else -1
                    assert strip_potential_sign(ell, ij) == sign, (ell, p, q, res)
                    cases["res < L"] += res < ell
                    cases["s = res"] += p + q == res
    assert all(cases.values()), cases
    # U_0 = 1 at alpha1 + alpha2 = (2/7 + 3/5) pi
    assert strip_potential_sign(1, strips(1, angle_pair("2/7", "3/5"))) == 1
    # U_2(0) = -1 at alpha1 + alpha2 = pi/2
    assert strip_potential_sign(3, strips(3, angle_pair("1/4", "1/4"))) == -1
    # U_1(1/2) = 1 at alpha1 + alpha2 = pi/3
    assert strip_potential_sign(2, strips(2, angle_pair("1/6", "1/6"))) == 1
    # the normalization is pinned for ell > 0 only, and the mod-4 check says so
    with pytest.raises(ValueError, match="positive ell"):
        check_mod4_congruence(-2, 8)
    with pytest.raises(ZeroLinkingError):
        check_mod4_congruence(0, 8)


def sylvester_sigma(big_l, s, res):
    """Signature of the rank (big_l - 1) torus matrix at alpha1 + alpha2 =
    pi*s/res from the signs of its leading minors delta_2..delta_big_l,
    sign(delta_{m+1}) = sign(U_m(cos psi)) = sign(sin((m+1) psi) / sin(psi)),
    read exactly from (m+1)*s mod 2*res; at s = res, U_m(-1) = (-1)^m (m+1)."""
    signs = []
    for m in range(1, big_l):
        if s == res:
            signs.append(1 if m % 2 == 0 else -1)
            continue
        t = (m + 1) * s % (2 * res)
        assert t % res != 0, "a leading minor vanishes"
        sign = 1 if t < res else -1
        signs.append(sign if s < res else -sign)
    return signs[0] + sum(a * b for a, b in zip(signs, signs[1:]))


def test_sigma_closed_form_matches_sylvester_minor_signs():
    # at res = 127 no lattice point lies on a root line of |ell| <= 60, and
    # s = 127 is the half-turn line alpha1 + alpha2 = pi
    res = 127
    for big_l in range(2, 61):
        for s in range(2, 2 * res - 1):
            p = max(1, s - res + 1)
            alpha = angle_pair(Fraction(p, res), Fraction(s - p, res))
            expected = sylvester_sigma(big_l, s, res)
            assert sigma_torus_closed(big_l, alpha) == expected, (big_l, s)
            assert sigma_torus_closed(-big_l, alpha) == -expected, (big_l, s)
        for a1 in (0.3, 1.0, 2.5):
            alpha = AnglePair.from_radians(a1, math.pi - a1)
            assert sigma_torus_closed(big_l, alpha) == 1 - big_l


# The exact-angle Fraction code the strip kernel replaced, kept as the
# reference: root-locus membership, the solution range and the strip
# signature, with its minor-sign count on the line alpha1 + alpha2 = pi.
def ref_excluded(ell, x):
    t = x * abs(ell)
    return t.denominator == 1 and t.numerator != abs(ell)


def ref_is_defined(ell, f1, f2):
    return abs(ell) == 1 or not (ref_excluded(ell, f1 + f2) or ref_excluded(ell, f1 - f2 + 1))


def ref_solution_range(ell, f1, f2):
    big_l = abs(ell)
    d = abs(f1 - f2) * big_l
    s = (1 - abs(1 - (f1 + f2))) * big_l
    return range(d.numerator // d.denominator + 1, min(big_l - 1, s.numerator // s.denominator) + 1)


def ref_u_sign(m, su):
    if su == 1:
        return 1 if m % 2 == 0 else -1
    t = ((m + 1) * su) % 2
    if t == 0 or t == 1:
        return 0
    s = 1 if t < 1 else -1
    return s if su < 1 else -s


def ref_sigma(ell, f1, f2):
    big_l = abs(ell)
    if big_l == 1:
        return 0
    su = f1 + f2
    # the minor-sign count takes O(L) steps; past 10^5 the line su = 1 takes
    # the strip above it, which the count matches below that
    if su == 1 and big_l <= 10**5:
        signs = [ref_u_sign(m, su) for m in range(1, big_l)]
        value = signs[0] + sum(signs[i - 1] * signs[i] for i in range(1, big_l - 1))
    else:
        i = math.floor(su * big_l)
        value = big_l - 2 * i - 1 if i < big_l else -3 * big_l + 2 * i + 1
    return value if ell > 0 else -value


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 10**4), st.sampled_from([1, -1]), st.booleans(), st.data())
def test_lattice_kernel_matches_fraction_reference(res, sign, huge, data):
    # a huge L is past sys.maxsize, where a range has no len()
    low, high = (2**63, 2**80) if huge else (1, 10**5)
    p = data.draw(st.integers(1, res - 1))
    kind = data.draw(st.sampled_from(["any", "sum_line", "difference_line", "half_turn"]))
    q = res - p if kind == "half_turn" else data.draw(st.integers(1, res - 1))
    big_l = data.draw(st.integers(low, high))
    if kind in ("sum_line", "difference_line"):
        # the least |ell| that puts this angle sum on one of its root lines,
        # times a multiplier; then perhaps one lattice step off the line
        x = p + q if kind == "sum_line" else p - q + res
        step = res // math.gcd(res, x)
        big_l = step * data.draw(st.integers(-(-low // step), max(1, high // step)))
        q = min(res - 1, max(1, q + data.draw(st.sampled_from([-1, 0, 0, 1]))))
    ell = sign * big_l
    f1, f2 = Fraction(p, res), Fraction(q, res)
    defined = ref_is_defined(ell, f1, f2)
    ij = lattice_strips(ell, p, q, res)
    assert (ij is not None) is defined
    alpha = angle_pair(f1, f2)
    assert strips(ell, alpha) == ij
    assert is_defined(ell, alpha) is defined
    floats = AnglePair.from_radians(math.pi * p / res, math.pi * q / res)
    if not defined:
        for query in (h_invariant, rep_count, sigma_torus_closed):
            with pytest.raises(NotDefinedError):
                query(ell, alpha)
        assert not is_defined(ell, floats)
        return
    expected = ref_solution_range(ell, f1, f2)
    count = max(0, expected.stop - expected.start)
    assert strip_m_range(ell, *ij) == expected
    sigmas = (ref_sigma(ell, f1, f2), ref_sigma(ell, f1, 1 - f2))
    assert cell_values(ell, ij) == (sign * count, *sigmas)
    assert h_invariant(ell, alpha) == sign * count
    assert rep_count(ell, alpha) == count
    assert sigma_torus_closed(ell, alpha) == sigmas[0]
    assert sigma_torus_closed(ell, alpha.flip_alpha2()) == sigmas[1]
    # the float pair may sit in the strip below on s = res or d = res, where
    # both strips give the same values
    if is_defined(ell, floats):
        assert h_invariant(ell, floats) == sign * count
        assert sigma_torus_closed(ell, floats) == sigmas[0]
        assert sigma_torus_closed(ell, floats.flip_alpha2()) == sigmas[1]


def formula_float_strip(big_l, x_rad):
    """_float_strip's formula at any L, without its shortcut past 2 pi / TAU_ROOT."""
    i = math.floor(x_rad / math.pi * big_l)
    for m in range(i - 1, i + 3):
        if is_root_line(big_l, m) and abs(x_rad - math.pi * m / big_l) < TAU_ROOT:
            return None
    return i


@settings(deadline=None, max_examples=500)
@given(
    st.integers(1, 10**6)
    | st.integers(10**8, 7 * 10**9)
    | st.integers(10**9, 10**300),
    st.floats(0.0, 2 * math.pi, exclude_min=True, exclude_max=True),
)
@example(3 * 10**9, math.pi)  # pi/L > TAU_ROOT: x = pi lies between two bands
@example(7 * 10**9, math.pi)
def test_float_strip_past_the_band_agrees_with_the_formula(big_l, x):
    # past L = 2 pi / TAU_ROOT, about 6.3e9, the root lines lie closer
    # together than the band is wide, and the formula reads every sum as
    # on the root locus too
    assert _float_strip(big_l, x) == formula_float_strip(big_l, x)


def test_every_angle_query_refuses_an_alpha_that_is_no_angle_pair():
    # strips checks alpha once, after ell, for every query that reads it
    queries = (h_invariant, is_defined, rep_count, sigma_torus_closed, solve_phi, symmetrized_sigma)
    for alpha in ((0.3, 0.4), ("1/3", "1/5"), None):
        for query in queries:
            with pytest.raises(TypeError, match="^strips take an AnglePair, not (tuple|NoneType)$"):
                query(3, alpha)
            with pytest.raises(ZeroLinkingError):
                query(0, alpha)


def test_lattice_strips_domain():
    # res >= 1 and 0 < p, q < res; strips and the grid sweeps keep to it
    assert lattice_strips(3, 1, 1, 4) == (1, 3)
    with pytest.raises(ZeroDivisionError):
        lattice_strips(3, 1, 1, 0)


def cells(big_l):
    """The cells of |ell| = big_l as a set: the strips (i, j), i of
    alpha1 + alpha2 and j of alpha1 - alpha2 + pi, that hold a point of the
    open square (0, pi)^2."""
    return {(i, j) for i in range(2 * big_l) for j in range(2 * big_l)
            if big_l - 1 <= i + j <= 3 * big_l - 1 and abs(i - j) <= big_l}


def test_the_lattice_reaches_every_cell_and_the_identity_holds_on_each():
    # at res 4L every cell holds an admissible lattice point, so the walk
    # reaches exactly the cells
    for big_l in range(1, 25):
        res = 4 * big_l
        axis = range(1, res)
        for ell in (big_l, -big_l):
            reached = {lattice_strips(ell, p, q, res) for p in axis for q in axis} - {None}
            assert reached == cells(big_l) and len(reached) == 2 * big_l * (big_l + 1), ell
    # the identity the grid sweeps check holds on every cell by the formulas
    for big_l in range(1, 41):
        for ell, cell in product((big_l, -big_l), cells(big_l)):
            h, s1, s2 = cell_values(ell, cell)
            assert 2 * h == -(s1 + s2), (ell, cell)
