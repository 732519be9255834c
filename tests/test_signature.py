import cmath
import copy
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linksig.errors import (
    BadSystemError,
    NotDefinedError,
    NullityWarning,
    OmegaOneError,
    ZeroLinkingError,
)
from linksig.signature import (
    EIG_ZERO_SCALE,
    build_H,
    delta_closed,
    delta_recursive,
    inertia,
    seifert_from_json,
    seifert_system,
    seifert_to_json,
    sigma_eval,
    sigma_torus_closed,
    symmetrized_sigma,
    torus_seifert,
)
from linksig.torus_rep import AnglePair, angle_pair, is_defined

P22 = angle_pair("1/2", "1/2")


def random_omegas(rng, mu):
    return [cmath.exp(1j * rng.uniform(0.1, 2 * math.pi - 0.1)) for _ in range(mu)]


def random_system(rng, mu, rank):
    mats = {}
    keys = []
    from itertools import product

    for chars in product("+-", repeat=mu):
        keys.append("".join(chars))
    done = set()
    for k in keys:
        if k in done:
            continue
        nk = "".join("-" if c == "+" else "+" for c in k)
        m = rng.integers(-3, 4, size=(rank, rank))
        mats[k] = m
        mats[nk] = m.T if nk != k else m + m.T  # self-paired key must be symmetric
        done.update({k, nk})
    return seifert_system(mu, mats)


def test_system_validation():
    with pytest.raises(BadSystemError, match="missing"):
        seifert_system(2, {"++": [[0]], "+-": [[0]], "-+": [[0]]})
    with pytest.raises(BadSystemError, match=r"\(\+\+, --\)"):
        seifert_system(2, {"++": [[1]], "+-": [[0]], "-+": [[0]], "--": [[-1]]})
    with pytest.raises(BadSystemError, match="square"):
        seifert_system(1, {"+": [[1, 2]], "-": [[1], [2]]})
    # numpy would wrap the first two to -2^63, drop the imaginary part of the
    # third and read true as 1
    for entry, message in (
        (1e30, "int64 range"),
        (2**63, "int64 range"),
        (-(2**63) - 1, "int64 range"),
        (2**70, "int64 range"),
        (1 + 1j, "not numeric"),
        (True, "not numeric"),
        (float("nan"), "non-integer"),
        (2.5, "non-integer"),
    ):
        with pytest.raises(BadSystemError, match=message):
            seifert_system(1, {"+": [[entry]], "-": [[entry]]})
    with pytest.raises(BadSystemError, match="not numeric"):
        seifert_system(1, {"+": [[True, 2], [0, 1]], "-": [[True, 0], [2, 1]]})
    # integral floats and both ends of the int64 range are kept exactly
    plus = [[5.0, 2**63 - 1], [-(2**63), 0]]
    edge = seifert_system(1, {"+": plus, "-": [list(r) for r in zip(*plus)]})
    assert edge.matrices["+"].tolist() == [[5, 2**63 - 1], [-(2**63), 0]]
    # true equals 1 and 1.0 == 1, but neither is an integer count
    five = {"+": [[5]], "-": [[5]]}
    with pytest.raises(BadSystemError, match="mu must"):
        seifert_system(True, five)
    for header, message in (
        ({"mu": True, "rank": 1}, "mu must"),
        ({"mu": 1, "rank": True}, "rank must"),
        ({"mu": 1, "rank": 1.0}, "rank must"),
    ):
        with pytest.raises(BadSystemError, match=message):
            seifert_from_json({**header, "matrices": five})


def build_H_over_every_matrix(s, omegas):
    """build_H as a sum over all 2^mu matrices, zero ones included."""
    acc = np.zeros((s.rank, s.rank), dtype=complex)
    for key, mat in s.matrices.items():
        coeff = 1.0 + 0.0j
        for ch, w in zip(key, omegas):
            if ch == "-":
                coeff *= -w
        acc += coeff * mat
    scale = 1.0 + 0.0j
    for w in omegas:
        scale *= 1.0 - w.conjugate()
    np.multiply(scale, acc, out=acc)
    return acc


def test_build_H_is_bitwise_the_sum_over_every_matrix():
    rng = np.random.default_rng(23)
    zero = np.zeros((3, 3), dtype=np.int64)
    mixed = rng.integers(-3, 4, size=(3, 3))
    systems = [torus_seifert(ell) for ell in (2, 3, 50, -50, 200, -200)] + [
        seifert_system(2, {"++": zero, "+-": mixed, "-+": mixed.T, "--": zero}),
        random_system(rng, 2, 5),
        random_system(rng, 1, 4),
        random_system(rng, 3, 3),
        seifert_system(2, {k: zero for k in ("++", "+-", "-+", "--")}),
    ]
    assert systems[0].nonzero == ("++", "--")
    assert systems[6].nonzero == ("+-", "-+")
    assert systems[-1].nonzero == ()
    for s in systems:
        assert s.nonzero == tuple(k for k, m in s.matrices.items() if m.any())
        for omegas in [random_omegas(rng, s.mu) for _ in range(4)] + [[-1.0 + 0j] * s.mu]:
            expected = build_H_over_every_matrix(s, omegas).tobytes()
            assert build_H(s, omegas).tobytes() == expected
            for twin in (copy.copy(s), pickle.loads(pickle.dumps(s))):
                assert twin.nonzero == s.nonzero
                assert not any(m.flags.writeable for m in twin.matrices.values())
                assert build_H(twin, omegas).tobytes() == expected


def test_build_H_rank_one_torus():
    s = torus_seifert(2)
    rng = np.random.default_rng(20)
    for _ in range(10):
        w1, w2 = random_omegas(rng, 2)
        expected = (1 - w1.conjugate()) * (1 - w2.conjugate()) * (-1 - w1 * w2)
        h = build_H(s, [w1, w2])
        assert h.shape == (1, 1)
        assert abs(h[0, 0] - expected) < 1e-12


def test_build_H_rank_two_torus_matches_display():
    s = torus_seifert(3)
    rng = np.random.default_rng(21)
    w1, w2 = random_omegas(rng, 2)
    c = (1 - w1.conjugate()) * (1 - w2.conjugate())
    h = build_H(s, [w1, w2])
    assert abs(h[0, 0] - c * (-1 - w1 * w2)) < 1e-12
    assert abs(h[1, 1] - c * (-1 - w1 * w2)) < 1e-12
    assert abs(h[0, 1] - c) < 1e-12
    assert abs(h[1, 0] - (1 - w1) * (1 - w2)) < 1e-12
    # leading principal minor is the rank-one matrix of the smaller link
    h2 = build_H(torus_seifert(2), [w1, w2])
    assert abs(h[0, 0] - h2[0, 0]) < 1e-12


def test_build_H_rank_zero_and_omega_one():
    s = torus_seifert(1)
    h = build_H(s, [1j, -1j])
    assert h.shape == (0, 0)
    assert inertia(h).signature == 0
    with pytest.raises(OmegaOneError):
        build_H(torus_seifert(2), [1.0 + 0j, 1j])


def test_build_H_rejects_omega_off_the_unit_circle():
    for w in (2j, 0j, complex("nan"), complex("inf"), float("nan")):
        with pytest.raises(ValueError, match="unit circle"):
            build_H(torus_seifert(5), [w, 1j])


def test_build_H_hermitian_random_systems():
    rng = np.random.default_rng(22)
    for mu, rank in ((1, 3), (2, 2), (3, 2)):
        s = random_system(rng, mu, rank)
        for _ in range(5):
            h = build_H(s, random_omegas(rng, mu))
            assert np.max(np.abs(h - h.conj().T)) < 1e-12 * max(1, np.max(np.abs(h)))


def test_inertia_examples():
    h = build_H(torus_seifert(2), [-1.0 + 0j, -1.0 + 0j])
    assert abs(h[0, 0] - (-8.0)) < 1e-12
    ine = inertia(h)
    assert (ine.n_pos, ine.n_neg, ine.n_zero) == (0, 1, 0)
    assert ine.signature == -1
    assert inertia(np.zeros((0, 0))).rank == 0
    ine = inertia(np.diag([2.0, -3.0, 0.0]))
    assert (ine.n_pos, ine.n_neg, ine.n_zero) == (1, 1, 1)


def test_torus_seifert_matrices():
    s = torus_seifert(2)
    assert np.array_equal(s.matrices["++"], [[-1]])
    assert np.array_equal(s.matrices["--"], [[-1]])
    assert np.array_equal(s.matrices["+-"], [[0]])
    s3 = torus_seifert(3)
    assert np.array_equal(s3.matrices["++"], [[-1, 1], [0, -1]])
    assert np.array_equal(s3.matrices["--"], [[-1, 0], [1, -1]])
    assert torus_seifert(1).rank == 0
    with pytest.raises(ZeroLinkingError):
        torus_seifert(0)


def test_torus_seifert_negative_ell_determinant():
    # det H for the mirror matches the shifted-by-pi closed form
    rng = np.random.default_rng(23)
    s = torus_seifert(-2)
    for _ in range(10):
        a1 = rng.uniform(0.1, math.pi - 0.1)
        a2 = rng.uniform(0.1, math.pi - 0.1)
        alpha = AnglePair.from_radians(a1, a2)
        h = build_H(s, list(alpha.omega()))
        expected = 8 * math.sin(a1) * math.sin(a2) * math.cos(math.pi + a1 + a2)
        assert abs(h[0, 0].real - expected) < 1e-10
        assert abs(h[0, 0].imag) < 1e-10


def test_delta_examples():
    assert delta_recursive(5, P22, 1) == 1.0
    assert abs(delta_recursive(2, P22, 2) - (-8.0)) < 1e-12
    a44 = angle_pair("1/4", "1/4")
    assert abs(delta_recursive(3, a44, 3) - (-4.0)) < 1e-12
    assert abs(delta_closed(3, a44, 3) - (-4.0)) < 1e-12
    # delta_2 from the closed form reduces to 8 sin sin cos(sum)
    rng = np.random.default_rng(24)
    for _ in range(10):
        a1, a2 = rng.uniform(0.1, math.pi - 0.1, size=2)
        alpha = AnglePair.from_radians(a1, a2)
        assert abs(
            delta_closed(2, alpha, 2)
            - 8 * math.sin(a1) * math.sin(a2) * math.cos(a1 + a2)
        ) < 1e-12


def test_delta_zero_on_minor_root_lines():
    # alpha1 + alpha2 = k pi/(m+1) with k != m+1 kills delta_{m+1}
    for m, k in ((3, 1), (4, 2), (5, 7)):
        num = Fraction(k, m + 1)
        alpha = angle_pair(num / 2, num / 2)
        assert abs(delta_closed(m + 1, alpha, m + 1)) < 1e-9


def test_delta_recursive_equals_closed():
    rng = np.random.default_rng(25)
    for ell in range(1, 51):
        for _ in range(4):
            a1, a2 = rng.uniform(0.05, math.pi - 0.05, size=2)
            alpha = AnglePair.from_radians(a1, a2)
            for m in range(1, ell + 1, max(1, ell // 7)):
                r = delta_recursive(ell, alpha, m)
                c = delta_closed(ell, alpha, m)
                assert abs(r - c) <= 1e-9 * max(abs(r), abs(c), 1e-300)


def test_delta_matches_engine_determinant():
    rng = np.random.default_rng(26)
    for ell in range(2, 13):
        for _ in range(4):
            alpha = AnglePair.from_radians(
                rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.2, math.pi - 0.2)
            )
            h = build_H(torus_seifert(ell), list(alpha.omega()))
            det = float(np.prod(np.linalg.eigvalsh(h)))
            want = delta_closed(ell, alpha, ell)
            assert abs(det - want) <= 1e-8 * max(abs(det), abs(want))


def test_sigma_torus_closed_examples():
    assert sigma_torus_closed(2, angle_pair("1/8", "1/8")) == 1
    assert sigma_torus_closed(3, P22) == -2
    assert sigma_torus_closed(-2, angle_pair("1/8", "1/8")) == -1
    assert sigma_torus_closed(1, angle_pair("1/7", "2/3")) == 0
    with pytest.raises(NotDefinedError):
        sigma_torus_closed(3, angle_pair("1/6", "1/6"))
    with pytest.raises(ZeroLinkingError):
        sigma_torus_closed(0, P22)


def test_sigma_sum_line_pi_continuity():
    # the interior line sum = pi takes the common one-sided value 1 - ell
    for ell in (2, 3, 4, 7):
        assert sigma_torus_closed(ell, P22) == 1 - ell
        assert sigma_torus_closed(ell, angle_pair("1/5", "4/5")) == 1 - ell


def test_sigma_eval_agrees_with_closed_form_on_grid():
    res = 24
    for ell in (2, 3, 5, 8, -4):
        s = torus_seifert(ell)
        for p in range(1, res):
            for q in range(1, res):
                alpha = angle_pair(Fraction(p, res), Fraction(q, res))
                if not is_defined(ell, alpha):
                    continue
                assert sigma_eval(s, list(alpha.omega())) == sigma_torus_closed(
                    ell, alpha
                )


def test_sigma_eval_nullity_warning_on_root_line():
    s = torus_seifert(3)
    alpha = angle_pair("1/6", "1/6")  # sum = pi/3, an Alexander root
    with pytest.warns(NullityWarning):
        value = sigma_eval(s, list(alpha.omega()))
    ine = inertia(build_H(s, list(alpha.omega())))
    assert ine.n_zero > 0
    assert value == ine.signature


def test_symmetrized_sigma_examples():
    assert symmetrized_sigma(1, angle_pair("1/5", "3/7")) == 0
    assert symmetrized_sigma(3, P22) == 2
    assert symmetrized_sigma(-3, P22) == -2
    # generic engine route gives the same value
    assert symmetrized_sigma(torus_seifert(3), P22) == 2


def test_symmetrized_sigma_is_integer_on_torus_grid():
    res = 17
    for ell in (2, 3, -5):
        for p in range(1, res):
            for q in range(1, res):
                alpha = angle_pair(Fraction(p, res), Fraction(q, res))
                if not is_defined(ell, alpha):
                    continue
                value = symmetrized_sigma(ell, alpha)
                assert value.denominator == 1


def test_averaged_one_variable_identity_at_minus_one():
    """At omega = -1 the invariant equals minus the average of the two
    one-variable signatures, one per orientation of the second component.

    The one-variable signature is sigma(w, w) - ell.  Reversing the second
    component turns sigma(w, w) into sigma(w, w^{-1}) and flips the linking
    number, so the reversed-orientation one-variable value is
    sigma(w, w^{-1}) + ell.  At w = -1 both angles are pi/2.
    """
    from linksig.torus_rep import h_invariant

    for ell in (1, 2, 3, 5, -2, -4):
        lt_same = sigma_torus_closed(ell, P22) - ell
        lt_reversed = sigma_torus_closed(ell, P22.flip_alpha2()) + ell
        assert h_invariant(ell, P22) == -Fraction(lt_same + lt_reversed, 2)


def test_conjugation_symmetry():
    rng = np.random.default_rng(27)
    for mu, rank in ((1, 2), (2, 2), (2, 3)):
        s = random_system(rng, mu, rank)
        for _ in range(10):
            omegas = random_omegas(rng, mu)
            conj = [w.conjugate() for w in omegas]
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NullityWarning)
                assert sigma_eval(s, omegas) == sigma_eval(s, conj)


def test_negation_symmetry_on_grid():
    res = 19
    for ell in (2, 3, 6):
        for p in range(1, res):
            for q in range(1, res):
                alpha = angle_pair(Fraction(p, res), Fraction(q, res))
                if not is_defined(ell, alpha):
                    continue
                assert sigma_torus_closed(-ell, alpha) == -sigma_torus_closed(
                    ell, alpha
                )


def test_orientation_flip_symmetry():
    res = 15
    for ell in (2, 3, -4):
        for p in range(1, res):
            for q in range(1, res):
                alpha = angle_pair(Fraction(p, res), Fraction(q, res))
                if not is_defined(ell, alpha):
                    continue
                assert symmetrized_sigma(ell, alpha) == symmetrized_sigma(
                    ell, alpha.flip_alpha2()
                )


def test_seifert_json_roundtrip():
    s = torus_seifert(3)
    data = seifert_to_json(s)
    loaded = seifert_from_json(data)
    assert loaded.mu == 2 and loaded.rank == 2
    for k in data["matrices"]:
        assert np.array_equal(loaded.matrices[k], s.matrices[k])
    import json

    loaded2 = seifert_from_json(json.dumps(data))
    assert np.array_equal(loaded2.matrices["++"], s.matrices["++"])


def test_seifert_json_validation():
    with pytest.raises(BadSystemError, match="malformed"):
        seifert_from_json("{not json")
    with pytest.raises(BadSystemError, match="missing field"):
        seifert_from_json({"mu": 2, "rank": 1})
    good = seifert_to_json(torus_seifert(2))
    bad = dict(good)
    bad["rank"] = 7
    with pytest.raises(BadSystemError, match="rank"):
        seifert_from_json(bad)
    tampered = seifert_to_json(torus_seifert(3))
    tampered["matrices"]["--"][0][1] = 5
    with pytest.raises(BadSystemError, match="transpose"):
        seifert_from_json(tampered)


# ---------------------------------------------------------------------------
# inertia() against a dense eigenvalue reference


def eigvalsh_triple(h):
    """(n_pos, n_neg, n_zero) of h from eigvalsh with inertia's threshold
    tau, and whether an eigenvalue lies within 1e-6 tau of +-tau, where the
    two methods may round to different sides."""
    n = h.shape[0]
    eigs = np.linalg.eigvalsh(h)
    tau = EIG_ZERO_SCALE * np.max(np.abs(h)) * n
    n_pos = int(np.sum(eigs > tau))
    n_neg = int(np.sum(eigs < -tau))
    edge = bool(np.any(np.abs(np.abs(eigs) - tau) <= 1e-6 * tau))
    return (n_pos, n_neg, n - n_pos - n_neg), edge


def triple(ine):
    return (ine.n_pos, ine.n_neg, ine.n_zero)


def assert_inertia_matches_eigvalsh(h):
    want, edge = eigvalsh_triple(h)
    assume(not edge)
    assert triple(inertia(h)) == want


def tridiagonal(diag, sub):
    sub = np.asarray(sub, dtype=complex)
    return np.diag(np.asarray(diag, dtype=complex)) + np.diag(sub, -1) + np.diag(sub.conj(), 1)


ENTRY = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def hermitian_tridiagonals(draw):
    n = draw(st.integers(1, 300))
    diag = draw(st.lists(ENTRY, min_size=n, max_size=n))
    re = draw(st.lists(ENTRY, min_size=n - 1, max_size=n - 1))
    im = draw(st.lists(ENTRY, min_size=n - 1, max_size=n - 1))
    cut = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    sub = [0.0 if c else complex(x, y) for x, y, c in zip(re, im, cut)]
    return tridiagonal(diag, sub)


@settings(deadline=None)
@given(hermitian_tridiagonals())
def test_inertia_of_hermitian_tridiagonal_matches_eigvalsh(h):
    assert_inertia_matches_eigvalsh(h)


def nudged(x, ulps):
    """x moved by |ulps| floats toward the sign of ulps."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, toward)
    return x


@st.composite
def root_line_points(draw):
    """(big_l, m, sum_line): the root line alpha1 + alpha2 = m pi / big_l
    (sum_line) or alpha1 - alpha2 + pi = m pi / big_l, m != big_l."""
    big_l = draw(st.integers(2, 300))
    m = draw(st.integers(1, 2 * big_l - 2))
    return big_l, m + (m >= big_l), draw(st.booleans())


def on_root_line(line, t, half_turn):
    """(alpha1, alpha2) on the root line `line`, in units where pi is
    `half_turn` (math.pi, or Fraction(1) for exact multiples of pi), with
    alpha1 at the fraction t of the range that keeps both in (0, pi)."""
    big_l, m, sum_line = line
    x = half_turn * m / big_l
    lo, hi = max(0 * half_turn, x - half_turn), min(half_turn, x)
    a1 = lo + t * (hi - lo)
    return a1, (x - a1 if sum_line else a1 + half_turn - x)


@settings(deadline=None, max_examples=60)
@given(
    root_line_points(),
    st.sampled_from([1, -1]),
    st.floats(0.01, 0.99),
    st.one_of(
        st.integers(-8, 8).map(lambda k: ("ulps", k)),
        st.floats(1e-15, 1e-6).flatmap(
            lambda d: st.sampled_from([("off", d), ("off", -d)])
        ),
    ),
)
def test_inertia_of_torus_H_near_root_line_matches_eigvalsh(line, sign, t, step):
    a1, a2 = on_root_line(line, t, math.pi)
    kind, amount = step
    a2 = nudged(a2, amount) if kind == "ulps" else a2 + amount
    assume(0.0 < a2 < math.pi)
    alpha = AnglePair.from_radians(a1, a2)
    assert_inertia_matches_eigvalsh(build_H(torus_seifert(sign * line[0]), list(alpha.omega())))


@settings(deadline=None, max_examples=60)
@given(root_line_points(), st.sampled_from([1, -1]), st.integers(2, 1000), st.data())
def test_inertia_of_torus_H_on_root_line_matches_eigvalsh(line, sign, den, data):
    t = Fraction(data.draw(st.integers(1, den - 1)), den)
    alpha = angle_pair(*on_root_line(line, t, Fraction(1)))
    ell = sign * line[0]
    assert not is_defined(ell, alpha)
    assert_inertia_matches_eigvalsh(build_H(torus_seifert(ell), list(alpha.omega())))


def test_inertia_of_zero_matrix_is_all_nullity():
    for n in (1, 2, 3, 7, 40):
        assert triple(inertia(np.zeros((n, n)))) == (0, 0, n)


def test_inertia_counts_strictly_at_the_threshold():
    # max|h| = 1 and n = 2, so tau = 2 EIG_ZERO_SCALE, and a pivot of h + tau
    # or tau - h is exactly 0; an eigenvalue at exactly +-tau is not counted
    tau = EIG_ZERO_SCALE * 1.0 * 2
    for h, want in (
        (np.diag([1.0, -tau]), (1, 0, 1)),
        (np.diag([-tau, 1.0]), (1, 0, 1)),
        (np.diag([-1.0, tau]), (0, 1, 1)),
        (tridiagonal([-tau, 1.0], [0.5]), (1, 1, 0)),
        (tridiagonal([tau, -1.0], [0.5j]), (1, 1, 0)),
    ):
        assert triple(inertia(h)) == eigvalsh_triple(h)[0] == want


def test_inertia_of_tridiagonal_is_scale_invariant():
    # |e|^2 under- or overflows at these scales unless h is scaled first
    rng = np.random.default_rng(31)
    for n in (2, 19, 199):
        h = tridiagonal(
            rng.standard_normal(n), rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        )
        want, edge = eigvalsh_triple(h)
        assert not edge
        for scale in (2.0**-600, 1.0, 2.0**600):
            assert triple(inertia(h * scale)) == want


def test_inertia_rejects_non_hermitian_tridiagonal():
    h = tridiagonal([1.0, 2.0, 3.0], [1.0 + 1j, 2.0])
    assert inertia(h).rank == 3
    h[0, 1] = 1.0 + 1j  # the sub-diagonal holds 1 + 1j as well, not its conjugate
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia(h)
    h = tridiagonal([1.0, 2.0, 3.0], [1.0, 2.0])
    h[1, 1] = 2.0 + 1e-3j
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia(h)


def test_inertia_with_an_off_band_entry_matches_eigvalsh():
    # zero on the band: counting the band alone would give (0, 0, 3)
    h = np.zeros((3, 3), dtype=complex)
    h[0, 2] = h[2, 0] = 1.0
    assert triple(inertia(h)) == eigvalsh_triple(h)[0] == (1, 1, 1)
    rng = np.random.default_rng(28)
    for n in (3, 5, 19, 60):
        h = tridiagonal(rng.standard_normal(n), rng.standard_normal(n - 1))
        i, j = sorted(rng.choice(n, size=2, replace=False))
        if j - i < 2:
            i, j = 0, n - 1
        h[i, j] = 0.5 - 0.25j
        h[j, i] = 0.5 + 0.25j
        want, edge = eigvalsh_triple(h)
        assert not edge
        assert triple(inertia(h)) == want
    h[0, n - 1] += 1.0  # one off-band entry without its mirror
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia(h)


def test_sigma_eval_rank_199_at_tiny_angle():
    # the leading minors underflow here; the pivots of the engine do not
    rng = np.random.default_rng(29)
    for ell in (200, -200):
        s = torus_seifert(ell)
        for a2 in (0.3, 1.0, 2.0, *rng.uniform(1e-3, math.pi - 1e-3, size=5)):
            alpha = AnglePair.from_radians(1e-6, float(a2))
            assert is_defined(ell, alpha)
            if ell > 0:
                assert delta_closed(ell, alpha, ell) == 0.0
            assert sigma_eval(s, list(alpha.omega())) == sigma_torus_closed(ell, alpha)


def test_tridiagonal_h_never_reaches_eigvalsh(monkeypatch):
    # a slip in the band test would only fall back, silently, to eigvalsh
    rng = np.random.default_rng(32)
    cases = []
    for ell in (2, 3, -5, 20, 200):
        h = build_H(torus_seifert(ell), random_omegas(rng, 2))
        assert h.flags.c_contiguous
        want, edge = eigvalsh_triple(h)
        assert not edge
        signed_zero = h.copy()
        i, j = np.indices(h.shape)
        signed_zero[abs(i - j) > 1] = complex(-0.0, -0.0)
        cases.append((h, want, (h.T, np.asfortranarray(h), h[::-1, ::-1], signed_zero)))
    off_band = tridiagonal([1.0, 2.0, 3.0], [0.5, 0.5])
    off_band[0, 2] = off_band[2, 0] = 0.25

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    with pytest.raises(AssertionError, match="eigvalsh called"):
        inertia(off_band)
    for h, want, layouts in cases:
        counted = inertia(h)
        assert triple(counted) == want
        for variant in layouts:
            assert inertia(variant) == counted


def test_sigma_eval_equals_closed_form_at_engine_ranks():
    # the engine benchmark's systems and kinds of point: lattice angles
    # (p/P) pi with P a prime in 401..2000, and float pairs
    primes = [n for n in range(401, 2001) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    rng = random.Random(33)
    for ell in (3, -3, 5, -5, 20, -20, 50, -50, 200, -200):
        s = torus_seifert(ell)
        points = []
        for _ in range(12):
            big_p = rng.choice(primes)
            points.append(
                angle_pair(
                    Fraction(rng.randint(1, big_p - 1), big_p),
                    Fraction(rng.randint(1, big_p - 1), big_p),
                )
            )
        for _ in range(4):
            points.append(
                AnglePair.from_radians(*(rng.uniform(1e-6, math.pi - 1e-6) for _ in range(2)))
            )
        for alpha in points:
            assert is_defined(ell, alpha), (ell, alpha)
            engine = sigma_eval(s, list(alpha.omega()))
            assert engine == sigma_torus_closed(ell, alpha), (ell, alpha)


def test_seifert_system_stores_partners_as_read_only_transposes():
    rng = np.random.default_rng(30)
    for mu, rank in ((1, 3), (2, 4), (3, 2)):
        given_mats = random_system(rng, mu, rank)
        raw = {k: np.array(m) for k, m in given_mats.matrices.items()}
        s = seifert_system(mu, raw)
        for k, m in s.matrices.items():
            assert not m.flags.writeable
            nk = "".join("-" if c == "+" else "+" for c in k)
            if k.startswith("+"):
                assert s.matrices[nk].base is m
                assert np.array_equal(s.matrices[nk], m.T)
            with pytest.raises(ValueError):
                m[0, 0] = 7
        assert all(m.flags.writeable for m in raw.values())
        data = seifert_to_json(s)
        assert data["matrices"] == {k: raw[k].tolist() for k in raw}
        assert seifert_to_json(seifert_from_json(data)) == data
