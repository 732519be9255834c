import cmath
import copy
import json
import math
import pickle
import random
import re
import subprocess
import sys
import time
import timeit
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from itertools import chain, groupby, pairwise, product, repeat
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from linksig.errors import (
    BadSystemError,
    NotDefinedError,
    NullityWarning,
    OmegaOneError,
    ZeroLinkingError,
)
from linksig.signature import (
    Band,
    Inertia,
    SeifertSystem,
    _householder_band,
    _zero_band,
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
from linksig.torus_rep import (
    AnglePair,
    angle_pair,
    defined_strips,
    is_defined,
    strip_sigma,
)

P22 = angle_pair("1/2", "1/2")
# the primes P of the lattice angles (p/P) pi: none lies on a root line of
# a torus link with |ell| < 401
LATTICE_PRIMES = [n for n in range(401, 2001) if all(n % d for d in range(2, math.isqrt(n) + 1))]


def admissible_grid(ell, res):
    """The pairs ((p/res) pi, (q/res) pi), 0 < p, q < res, off the root locus of ell."""
    axis = range(1, res)
    grid = (angle_pair(Fraction(p, res), Fraction(q, res)) for p in axis for q in axis)
    return [alpha for alpha in grid if is_defined(ell, alpha)]


def random_omegas(rng, mu):
    return [cmath.exp(1j * rng.uniform(0.1, 2 * math.pi - 0.1)) for _ in range(mu)]


# -1, +-i and exp(2 pi i/3) give coefficients with a zero part
FIXED_OMEGAS = (-1.0 + 0j, 1j, -1j, cmath.exp(2j * math.pi / 3))


def sign_keys(mu):
    """The 2^mu keys in key order, "+" before "-"."""
    return ["".join(signs) for signs in product("+-", repeat=mu)]


def random_system(rng, mu, rank, width=None):
    """A Seifert system of random integer matrices, zero farther than
    `width` from the diagonal if a width is given."""
    keys = sign_keys(mu)
    near = np.abs(np.subtract.outer(range(rank), range(rank))) <= (rank if width is None else width)
    matrices = {}
    for k, nk in zip(keys[: len(keys) // 2], keys[::-1]):
        m = rng.integers(-3, 4, size=(rank, rank)) * near
        matrices[k], matrices[nk] = m.tolist(), m.T.tolist()
    return seifert_system(mu, matrices)


def test_system_validation():
    with pytest.raises(BadSystemError, match="missing"):
        seifert_system(2, {"++": [[0]], "+-": [[0]], "-+": [[0]]})
    with pytest.raises(BadSystemError, match=r"\(\+\+, --\)"):
        seifert_system(2, {"++": [[1]], "+-": [[0]], "-+": [[0]], "--": [[-1]]})
    with pytest.raises(BadSystemError, match="square"):
        seifert_system(1, {"+": [[1, 2]], "-": [[1], [2]]})
    # the keys are checked before any of the 2^mu sign vectors is listed
    for mu, matrices, message in (
        (1, None, "must map"),
        (1, 3, "must map"),
        (1, [[[1]], [[1]]], "must map"),
        (2, {"++": [[0]], "+-": [[0]], "-+": [[0]], "--": [[0]], "+": [[0]]}, r"'\+' \(1 in"),
        (18, {"+": [[1]]}, r"unexpected keys: '\+' \(1 in all\)$"),
        (18, {"+" * 18: [[1]]}, r"1 of 2\^18 given, the first is '\+{17}-'$"),
        (18, {}, r"0 of 2\^18 given$"),
        (10**5000, {}, r"0 of 2\^<int of more than 4300 digits> given$"),
    ):
        with pytest.raises(BadSystemError, match=message):
            seifert_system(mu, matrices)
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
    assert edge.matrix("+") == [[5, 2**63 - 1], [-(2**63), 0]]
    # a matrix is nested lists, the shape JSON gives: a numpy array, an
    # integer scalar of numpy or a bool array is no number
    ints = np.array([[1, 2], [0, 3]], dtype=np.int32)
    for plus, minus in (
        (ints, ints.T),
        ([[np.int64(1), 2], [0, 3]], [[1, 0], [2, 3]]),
        (np.ones((1, 1), dtype=bool), [[1]]),
    ):
        with pytest.raises(BadSystemError, match="not numeric"):
            seifert_system(1, {"+": plus, "-": minus})
    for shape in ([[1], [2, 3]], [1, 2], 7, [[[1]]], [[]], [[], []]):
        with pytest.raises(BadSystemError, match="not square|not numeric"):
            seifert_system(1, {"+": shape, "-": shape})
    assert seifert_system(1, {"+": [], "-": []}).rank == 0
    # true equals 1 and 1.0 == 1, but neither is an integer count
    five = {"+": [[5]], "-": [[5]]}
    with pytest.raises(BadSystemError, match="mu must"):
        seifert_system(True, five)
    for header, message in (
        ({"mu": True, "rank": 1}, "mu must"),
        ({"mu": 1, "rank": True}, "rank must"),
        ({"mu": 1, "rank": 1.0}, "rank must"),
        ({"mu": 1, "rank": -1}, "^rank must be a non-negative integer$"),
    ):
        with pytest.raises(BadSystemError, match=message):
            seifert_from_json({**header, "matrices": five})


def coefficient(key, omegas):
    coeff = 1.0 + 0.0j
    for ch, w in zip(key, omegas):
        if ch == "-":
            coeff *= -w
    return coeff


def build_H_over_every_matrix(s, omegas):
    """H as nested lists, and its size, the reference build_H must equal
    bit for bit: scale times the sum over all 2^mu matrices in key order,
    zero ones included, in Python complex arithmetic entry by entry; and
    |scale| times the largest sum of |A^eps_ij| over the matrices at one
    position."""
    n = s.rank
    acc = [[0] * n for _ in range(n)]
    bound = [[0] * n for _ in range(n)]
    for key in sign_keys(s.mu):
        coeff, mat = coefficient(key, omegas), s.matrix(key)
        acc = [[x + coeff * v for x, v in zip(*rows)] for rows in zip(acc, mat)]
        bound = [[b + abs(v) for b, v in zip(*rows)] for rows in zip(bound, mat)]
    scale = 1.0 + 0.0j
    for w in omegas:
        scale *= 1.0 - w.conjugate()
    return [[scale * x for x in row] for row in acc], abs(scale) * max(chain(*bound), default=0)


def positions(runs):
    """One diagonal of a Band, its runs (value, count) laid out position by
    position as a list."""
    return [x for x, count in runs for _ in range(count)]


def expanded(h):
    """The diagonals of a Band, each laid out position by position."""
    return [positions(d) for d in h.diags]


def bit_key(x):
    """x by its type and the bits of its real and imaginary parts."""
    return (type(x), x.real.hex(), x.imag.hex())


def runs_of(xs):
    """The list xs as runs (value, count), each run a stretch of values
    that are equal bit for bit."""
    return tuple((x, 1 + len(rest)) for _, (x, *rest) in groupby(xs, key=bit_key))


def band_from(*diags, size=0.0):
    """The Band whose k-th diagonal is the list diags[k], position by
    position, held as runs_of(diags[k])."""
    return Band(tuple(runs_of(d) for d in diags), size)


def dense(h):
    """h as a numpy array; a Band is filled in from its runs, its upper
    half the conjugate of the lower."""
    if not isinstance(h, Band):
        return np.asarray(h)
    a = np.zeros(h.shape, dtype=complex)
    for k, d in enumerate(expanded(h)):
        for j, x in enumerate(d):
            a[j, j + k] = np.conj(x)
            a[j + k, j] = x
    return a


def full_band(a, size=0.0):
    """The Band of the Hermitian array or nested lists `a` at full width,
    n - 1 sub-diagonals and at least 1, read from its lower half and held
    as runs; the diagonal is its real part."""
    a = np.asarray(a, dtype=complex)
    diags = [[float(x.real) for x in np.diagonal(a)]]
    diags += [[complex(x) for x in np.diagonal(a, -k)] for k in range(1, max(len(a), 2))]
    return band_from(*diags, size=size)


def band_of(rows, width):
    """The real part of the diagonal and the first `width` sub-diagonals of
    nested lists that are zero farther from the diagonal."""
    n = len(rows)
    assert not any(any(r[: max(i - width, 0)] + r[i + width + 1 :]) for i, r in enumerate(rows))
    return [[rows[i][i].real for i in range(n)]] + [
        [rows[j + k][j] for j in range(n - k)] for k in range(1, width + 1)
    ]


def assert_is_the_sum(s, omegas):
    """build_H(s, omegas) is, by repr, the lower band of
    build_H_over_every_matrix and its size.  repr tells -0.0 from 0.0 and a
    float from a complex: the diagonal holds the real parts as floats, and
    each sub-diagonal complex numbers, 0j where no matrix has an entry.  The
    upper diagonals of a Band are conj(sub) by type."""
    rows, size = build_H_over_every_matrix(s, omegas)
    h = build_H(s, omegas)
    assert h.shape == (s.rank, s.rank)
    farthest = max([1] + [i - j for e in s.entries.values() for i, j, _ in e])
    assert h.width == len(s.runs) - 1 == farthest
    assert repr(expanded(h)) == repr(band_of(rows, h.width))
    assert repr(h.size) == repr(size)


def engine_cases(seed):
    """(system, omegas) pairs the engine's stages are checked on, four
    random omega lists and the FIXED_OMEGAS for each system: torus systems
    of ell +-2 to +-200; random integer systems of mu 1-3, dense of rank 0
    to 8 and tridiagonal of rank 3 and 8; a system whose (++, --) pair is
    zero and whose mixed pair has an entry off the band; the zero system."""
    rng = np.random.default_rng(seed)
    off_band, zero = [[2, 0, 1], [-1, 3, 0], [0, 2, -2]], [[0] * 3] * 3
    systems = [torus_seifert(ell) for ell in (2, -2, 3, 5, -7, -20, 50, -50, 200, -200)]
    systems += [random_system(rng, mu, rank) for mu in (1, 2, 3) for rank in (0, 1, 4, 8)]
    systems += [random_system(rng, mu, rank, width=1) for mu in (1, 2, 3) for rank in (3, 8)]
    systems += [
        seifert_system(2, {"++": zero, "+-": off_band, "-+": [list(r) for r in zip(*off_band)],
                           "--": zero}),
        seifert_system(2, {k: zero for k in sign_keys(2)}),
    ]
    for s in systems:
        yield from ((s, random_omegas(rng, s.mu)) for _ in range(4))
        yield from ((s, [w] * s.mu) for w in FIXED_OMEGAS)


def test_build_H_is_bitwise_the_sum_over_every_matrix():
    for s, omegas in engine_cases(23):
        assert_is_the_sum(s, omegas)


@st.composite
def systems_and_omegas(draw):
    """(system, omegas): integer matrices of mu 1-3 and rank 0-12, banded or
    dense, whose sign pairs are at times all zero; a congruent torus sum; or
    a torus system of ell +-2 to +-200.  The FIXED_OMEGAS are drawn too."""
    kind = draw(st.sampled_from(["random", "congruent", "torus"]))
    if kind == "congruent":
        s = draw(congruent_torus_sums())[0]
    elif kind == "torus":
        s = torus_seifert(draw(st.integers(2, 200)) * draw(st.sampled_from([1, -1])))
    else:
        mu, rank = draw(st.integers(1, 3)), draw(st.integers(0, 12))
        width = rank if draw(st.booleans()) else 1
        keys = sign_keys(mu)
        entry = st.integers(-3, 3)
        matrices = {}
        for k, nk in zip(keys[: len(keys) // 2], keys[::-1]):
            zero = draw(st.booleans())
            m = [
                [0 if zero or abs(i - j) > width else draw(entry) for j in range(rank)]
                for i in range(rank)
            ]
            matrices[k], matrices[nk] = m, [list(r) for r in zip(*m)]
        s = seifert_system(mu, matrices)
    omega = st.sampled_from(FIXED_OMEGAS) | st.floats(1e-3, 2 * math.pi - 1e-3).map(
        lambda a: cmath.exp(1j * a)
    )
    return s, [draw(omega) for _ in range(s.mu)]


@settings(deadline=None, max_examples=200)
@example((seifert_system(2, {k: [[0] * 3] * 3 for k in sign_keys(2)}), [1j, -1.0 + 0j]))
@given(systems_and_omegas())
def test_build_H_is_bitwise_the_per_position_sum(drawn):
    # summing each run once is the same sum, in the same order, at each of
    # its positions
    assert_is_the_sum(*drawn)


def test_build_H_over_65536_nonzero_matrices():
    # the most keys the tests give one system: 2^16 nonzero matrices, all
    # summed into one position, key by key, as the reference sums them
    mu = 16
    assert_is_the_sum(seifert_system(mu, {k: [[1]] for k in sign_keys(mu)}), [cmath.exp(0.3j)] * mu)


def test_build_H_of_a_tridiagonal_system_holds_no_matrix():
    # a torus H is three lists: a call stays under a tenth of a dense H
    for ell in (200, -200):
        s = torus_seifert(ell)
        for omegas in ([cmath.exp(0.8j), cmath.exp(1.8j)], [1j, -1j]):
            build_H(s, omegas)
            tracemalloc.start()
            try:
                h = build_H(s, omegas)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert isinstance(h, Band) and h.shape == (199, 199)
            assert peak < 0.1 * s.rank**2 * 16, (ell, omegas, peak)


def test_torus_build_H_holds_two_runs_whatever_the_rank():
    # a torus H is one run on each diagonal, so build_H allocates the same
    # few hundred bytes at rank 1e5 - 2 as at rank 3 (building the system
    # of rank 1e6 takes about 10 s and 0.9 GB, which no test here spends)
    omegas = [cmath.exp(0.4j), cmath.exp(0.9j)]
    peaks = []
    for ell in (4, -4, 10**5 - 1):
        s = torus_seifert(ell)
        build_H(s, omegas)
        tracemalloc.start()
        try:
            h = build_H(s, omegas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.shape == (s.rank, s.rank) and h.width == 1
        assert [len(d) for d in h.diags] == [1, 1], ell
        assert [len(d) for d in expanded(h)] == [s.rank, s.rank - 1]
        peaks.append(peak)
    assert max(peaks) < 2_000, peaks


def test_every_system_of_rank_at_most_two_gives_a_band():
    rng = np.random.default_rng(35)
    for mu in (1, 2, 3):
        for rank in (0, 1, 2):
            s = random_system(rng, mu, rank)
            assert len(s.runs) == 2
            for omegas in [random_omegas(rng, mu) for _ in range(5)]:
                assert_is_the_sum(s, omegas)
                assert_counts(build_H(s, omegas), eigvalsh_inertia)


def test_build_H_rank_one_torus():
    s = torus_seifert(2)
    rng = np.random.default_rng(20)
    for _ in range(10):
        w1, w2 = random_omegas(rng, 2)
        expected = (1 - w1.conjugate()) * (1 - w2.conjugate()) * (-1 - w1 * w2)
        h = build_H(s, [w1, w2])
        assert h.shape == (1, 1)
        assert abs(expanded(h)[0][0] - expected) < 1e-12


def test_build_H_rank_two_torus_matches_display():
    s = torus_seifert(3)
    rng = np.random.default_rng(21)
    w1, w2 = random_omegas(rng, 2)
    c = (1 - w1.conjugate()) * (1 - w2.conjugate())
    h = dense(build_H(s, [w1, w2]))
    assert abs(h[0, 0] - c * (-1 - w1 * w2)) < 1e-12
    assert abs(h[1, 1] - c * (-1 - w1 * w2)) < 1e-12
    assert abs(h[0, 1] - c) < 1e-12
    assert abs(h[1, 0] - (1 - w1) * (1 - w2)) < 1e-12
    # leading principal minor is the rank-one matrix of the smaller link
    h2 = dense(build_H(torus_seifert(2), [w1, w2]))
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
            h = dense(build_H(s, random_omegas(rng, mu)))
            assert np.max(np.abs(h - h.conj().T)) < 1e-12 * max(1, np.max(np.abs(h)))


def test_inertia_examples():
    h = build_H(torus_seifert(2), [-1.0 + 0j, -1.0 + 0j])
    assert abs(expanded(h)[0][0] - (-8.0)) < 1e-12
    ine = inertia(h)
    assert (ine.n_pos, ine.n_neg, ine.n_zero) == (0, 1, 0)
    assert ine.signature == -1
    assert inertia(Band(((),), 0.0)).rank == inertia(Band(((), ()), 0.0)).rank == 0
    # the same diagonal matrix as a band of width 0, 1 and 2
    for h in (
        band_from([2.0, -3.0, 0.0]),
        tridiagonal([2.0, -3.0, 0.0], [0.0, 0.0]),
        full_band(np.diag([2.0, -3.0, 0.0])),
    ):
        ine = inertia(h)
        assert (ine.n_pos, ine.n_neg, ine.n_zero) == (1, 1, 1)


def test_torus_seifert_matrices():
    s = torus_seifert(2)
    assert s.matrix("++") == s.matrix("--") == [[-1]]
    assert s.matrix("+-") == [[0]]
    s3 = torus_seifert(3)
    assert s3.matrix("++") == [[-1, 1], [0, -1]]
    assert s3.matrix("--") == [[-1, 0], [1, -1]]
    assert torus_seifert(-3).matrix("++") == [[1, -1], [0, 1]]
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
        omegas = list(alpha.omega())
        ((h,), _) = expanded(build_H(s, omegas))
        expected = 8 * math.sin(a1) * math.sin(a2) * math.cos(math.pi + a1 + a2)
        assert abs(h - expected) < 1e-10
        # the Band keeps the real part; the sum itself is real to rounding
        ((full,),), _ = build_H_over_every_matrix(s, omegas)
        assert full.real == h and abs(full.imag) < 1e-10


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
    # past the float range the closed form overflows, as its docstring states
    with pytest.raises(OverflowError):
        delta_closed(10**6, AnglePair.from_radians(0.4, 0.9), 10**6)
    # an ell past the 4300 digits that int -> str gives is shown by that limit
    with pytest.raises(ValueError, match=r"^m must lie in \[1, <int of more than 4300 digits>\]$"):
        delta_recursive(10**5000, P22, 0)


def test_delta_zero_on_minor_root_lines():
    # alpha1 + alpha2 = k pi/(m+1) with k != m+1 kills delta_{m+1}
    for m, k in ((3, 1), (4, 2), (5, 7)):
        num = Fraction(k, m + 1)
        alpha = angle_pair(num / 2, num / 2)
        assert abs(delta_closed(m + 1, alpha, m + 1)) < 1e-9


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


def test_sigma_eval_nullity_warning_on_root_line():
    s = torus_seifert(3)
    alpha = angle_pair("1/6", "1/6")  # sum = pi/3, an Alexander root
    with pytest.warns(NullityWarning):
        value = sigma_eval(s, list(alpha.omega()))
    ine = inertia(build_H(s, list(alpha.omega())))
    assert ine.n_zero > 0
    assert value == ine.signature


def test_nullity_warning_points_at_the_caller():
    # each call site gets its own warning under the default filter
    s, omegas = torus_seifert(2), list(angle_pair("1/4", "1/4").omega())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sigma_eval(s, omegas)
    assert [(w.category, w.filename) for w in caught] == [(NullityWarning, __file__)]


def test_symmetrized_sigma_examples():
    assert symmetrized_sigma(1, angle_pair("1/5", "3/7")) == 0
    assert symmetrized_sigma(3, P22) == 2
    assert symmetrized_sigma(-3, P22) == -2
    # generic engine route gives the same value
    assert symmetrized_sigma(torus_seifert(3), P22) == 2
    # invariant under a2 -> pi - a2 at a negative ell too
    for alpha in admissible_grid(-4, 15):
        assert symmetrized_sigma(-4, alpha) == symmetrized_sigma(-4, alpha.flip_alpha2())


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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NullityWarning)
                assert sigma_eval(s, omegas) == sigma_eval(s, conj)


def test_seifert_json_roundtrip():
    s = torus_seifert(3)
    data = seifert_to_json(s)
    loaded = seifert_from_json(data)
    assert loaded.mu == 2 and loaded.rank == 2
    assert loaded == s and hash(loaded) == hash(s)
    for k in data["matrices"]:
        assert loaded.matrix(k) == s.matrix(k) == data["matrices"][k]
    assert seifert_from_json(json.dumps(data)) == s
    assert s != torus_seifert(-3)


def test_seifert_json_validation():
    with pytest.raises(BadSystemError, match="malformed"):
        seifert_from_json("{not json")
    with pytest.raises(BadSystemError, match="malformed JSON: 'utf-8' codec"):
        seifert_from_json(b"\xff")
    deep = '{"mu":1,"rank":1,"matrices":{"+":' + "[" * 100_000 + "]" * 100_000 + "}}"
    with pytest.raises(BadSystemError, match="malformed JSON: maximum recursion"):
        seifert_from_json(deep)
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
# inertia() against its reference counts


def assert_counts(h, reference):
    """inertia keeps its contract on the Band h against reference(h, side),
    a count of h whose zero band tau is widened (side 1) or narrowed (side
    -1) by the reference's window w:

    - where no eigenvalue lies within w of +-tau, the counts are equal;
    - otherwise they may differ only by the eigenvalues inside the window,
      each of which moves between n_zero and n_pos or n_neg.

    So n_pos lies between the reference's counts at sides 1 and -1, and so
    does n_neg.  Equal counts keep the rule, so the window is counted only
    where they differ.  Each reference states its window: w = 64 u max|h|
    for per_position_inertia, the bound inertia's docstring derives, and
    w = 1e-6 tau for eigvalsh_inertia.  This is the one place a test
    compares inertia with a reference count."""
    got, want = inertia(h), reference(h)
    if got != want:
        lo, hi = reference(h, 1), reference(h, -1)
        within = lo.n_pos <= got.n_pos <= hi.n_pos and lo.n_neg <= got.n_neg <= hi.n_neg
        assert got.rank == want.rank and within, (got, want, lo, hi)


def eigvalsh_inertia(h, side=0, size=None):
    """The Inertia of h, a Band or an array, from eigvalsh with inertia's
    threshold tau for the term size `size`, by default a Band's own and 0.0
    for an array, times 1 + side 1e-6: eigvalsh's window is 1e-6 tau."""
    if size is None:
        size = h.size if isinstance(h, Band) else 0.0
    h = dense(h)
    n = h.shape[0]
    hmax = float(np.max(np.abs(h), initial=0.0))
    if hmax == 0.0:  # every eigenvalue is 0
        return Inertia(0, 0, n)
    eigs = np.linalg.eigvalsh(h)
    tau = _zero_band(n, hmax, size) * hmax * (1 + side * 1e-6)
    n_pos, n_neg = int(np.sum(eigs > tau)), int(np.sum(eigs < -tau))
    return Inertia(n_pos, n_neg, n - n_pos - n_neg)


def triple(ine):
    return (ine.n_pos, ine.n_neg, ine.n_zero)


def tridiagonal(diag, sub):
    """The Hermitian band with diagonal `diag` and sub-diagonal `sub`, held
    as runs; its upper diagonal is conj(sub)."""
    return band_from([float(d) for d in diag], [complex(e) for e in sub])


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
    assert_counts(h, eigvalsh_inertia)


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
    assert_counts(build_H(torus_seifert(sign * line[0]), list(alpha.omega())), eigvalsh_inertia)


@settings(deadline=None, max_examples=60)
@given(root_line_points(), st.sampled_from([1, -1]), st.integers(2, 1000), st.data())
def test_inertia_of_torus_H_on_root_line_matches_eigvalsh(line, sign, den, data):
    t = Fraction(data.draw(st.integers(1, den - 1)), den)
    alpha = angle_pair(*on_root_line(line, t, Fraction(1)))
    ell = sign * line[0]
    assert not is_defined(ell, alpha)
    h = build_H(torus_seifert(ell), list(alpha.omega()))
    assert_counts(h, eigvalsh_inertia)
    # the band at full width, with its term size, is reduced to the same band
    assert inertia(full_band(dense(h), h.size)) == inertia(h)


@st.composite
def torus_points_on_root_lines(draw):
    """(system, omegas): a torus system of ell +-2 to +-300 at an exact
    point of one of its root lines, where H(omega) is singular."""
    line, sign = draw(root_line_points()), draw(st.sampled_from([1, -1]))
    den = draw(st.integers(2, 1000))
    t = Fraction(draw(st.integers(1, den - 1)), den)
    alpha = angle_pair(*on_root_line(line, t, Fraction(1)))
    return torus_seifert(sign * line[0]), list(alpha.omega())


def raised(call, *args):
    """The exception that call(*args) raises."""
    with pytest.raises(Exception) as caught:
        call(*args)
    return caught.value


@settings(deadline=None, max_examples=150)
@example((torus_seifert(1), [1j, -1j]), 1, 2.0)  # rank 0
@example((torus_seifert(-2), [1j, -1.0 + 0j]), 0, 0j)  # rank 1
@example((seifert_system(2, {k: [[0] * 3] * 3 for k in sign_keys(2)}), [1j, -1j]), 1, 0j)  # H = 0
@example((torus_seifert(3), list(angle_pair("1/6", "1/6").omega())), 0, math.nan)  # a root line
@given(
    st.one_of(systems_and_omegas(), torus_points_on_root_lines()),
    st.integers(0, 2),
    st.sampled_from([2.0, 0j, complex("nan"), math.nan]),
)
def test_sigma_eval_counts_what_inertia_counts(drawn, i, off):
    """sigma_eval reads the counts of build_H's band without forming the
    Band or the Inertia: it returns inertia(build_H(...)).signature, warns
    exactly when that count has a nullity, and refuses every omega list
    that build_H refuses with the same exception; inertia, whose checks it
    shares, still refuses bands made malformed from that H.  The bad omega
    lists replace omega_i, i taken mod mu, by 1 or by `off`, off the unit
    circle (2.0 stands for 2 omega_i)."""
    s, omegas = drawn
    h = build_H(s, omegas)
    ine = inertia(h)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert sigma_eval(s, omegas) == ine.signature
    nullity = (
        f"H(omega) has {ine.n_zero} near-zero eigenvalue(s); omega is on or near the root locus"
    )
    assert [(w.category, str(w.message)) for w in caught] == (
        [(NullityWarning, nullity)] if ine.n_zero else []
    )
    # a wrong omega count, omega = 1 and an omega off the unit circle
    i %= s.mu
    off = 2.0 * omegas[i] if off == 2.0 else off
    for bad in (omegas[:-1], [*omegas, 1j], [*omegas[:i], 1.0 + 0j, *omegas[i + 1 :]],
                [*omegas[:i], off, *omegas[i + 1 :]]):
        want = raised(build_H, s, bad)
        got = raised(sigma_eval, s, bad)
        assert (type(got), str(got)) == (type(want), str(want))
    # a position too many on the first sub-diagonal, no diagonal at all, a size
    # that is no finite float and, on a nonempty band, a diagonal run that is
    # too long, a complex one and a NaN
    diag, sub, *rest = h.diags
    malformed = [
        ((diag, (*sub, (0j, 1)), *rest), h.size, "wrong length"),
        ((), h.size, "wrong length"),
        (h.diags, math.nan, "band size nan is not a finite float >= 0"),
    ]
    if diag:
        (x, count), *others = diag
        malformed += [
            ((((x, count + 1), *others), sub, *rest), h.size, "wrong length"),
            ((((complex(x), count), *others), sub, *rest), h.size, "not Hermitian"),
            ((((math.nan, count), *others), sub, *rest), h.size, "non-finite"),
        ]
    for diags, size, message in malformed:
        with pytest.raises(ValueError, match=message):
            inertia(Band(diags, size))
    with pytest.raises(TypeError, match="^inertia takes a Band, not tuple$"):
        inertia(h.diags)


@st.composite
def hermitian_dense(draw):
    """A Hermitian Band at full width, of rank 0..30: full, with a zero
    diagonal, sparse, of low rank (V D V^H), integral, or zero."""
    n = draw(st.integers(0, 30))
    kind = draw(st.sampled_from(["full", "zero diagonal", "sparse", "low rank", "integer", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "low rank":
        r = draw(st.integers(0, n))
        v = a[:, :r]
        h = (v * rng.standard_normal(r)) @ v.conj().T
    elif kind == "integer":
        h = rng.integers(-2, 3, size=(n, n)).astype(complex)
    elif kind == "zero":
        h = np.zeros((n, n), dtype=complex)
    else:
        h = a
        if kind == "sparse":
            h = h * (rng.random((n, n)) < 0.15)
    h = (h + h.conj().T) / 2
    if kind == "zero diagonal":
        np.fill_diagonal(h, 0.0)
    return full_band(h)


@settings(deadline=None, max_examples=150)
@given(hermitian_dense())
def test_dense_inertia_matches_eigvalsh(h):
    assert_counts(h, eigvalsh_inertia)


def test_inertia_of_zero_matrix_is_all_nullity():
    for n in (1, 2, 3, 7, 40):
        assert triple(inertia(full_band(np.zeros((n, n))))) == (0, 0, n)
        assert triple(inertia(tridiagonal([0.0] * n, [0.0] * (n - 1)))) == (0, 0, n)


def test_inertia_counts_strictly_at_the_threshold():
    # max|h| = 1 and n = 2, so a pivot of h + tau or tau - h is exactly 0;
    # an eigenvalue at exactly +-tau is not counted
    tau = _zero_band(2, 1.0, 0.0)
    for h, want in (
        (tridiagonal([1.0, -tau], [0.0]), (1, 0, 1)),
        (tridiagonal([-tau, 1.0], [0.0]), (1, 0, 1)),
        (tridiagonal([-1.0, tau], [0.0]), (0, 1, 1)),
        (tridiagonal([-tau, 1.0], [0.5]), (1, 1, 0)),
        (tridiagonal([tau, -1.0], [0.5j]), (1, 1, 0)),
    ):
        assert triple(inertia(h)) == triple(eigvalsh_inertia(h)) == want


def test_inertia_of_tridiagonal_is_scale_invariant():
    # |e|^2 under- or overflows at these scales unless h is scaled first; a
    # dense h is scaled before its Householder reduction
    rng = np.random.default_rng(31)
    for n in (2, 19, 199):
        diag = rng.standard_normal(n)
        sub = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        for scale in (2.0**-600, 1.0, 2.0**600):
            assert_counts(tridiagonal(diag * scale, sub * scale), eigvalsh_inertia)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    h = (a + a.conj().T) / 2
    for scale in (2.0**-600, 1.0, 2.0**600):
        assert_counts(full_band(h * scale), eigvalsh_inertia)


def test_inertia_rejects_non_hermitian_tridiagonal():
    # a band's upper diagonal is conj(sub) by type; its diagonal is checked
    assert inertia(tridiagonal([1.0, 2.0, 3.0], [1.0 + 1j, 2.0])).rank == 3
    h = band_from([1.0, 2.0 + 1e-3j, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia(h)


def test_inertia_rejects_a_user_built_band_by_the_rules_for_any_matrix():
    # a Band is Hermitian by type once its diagonal holds floats
    for bad in (
        Band((), 0.0),
        band_from([1.0, 2.0], []),
        band_from([1.0, 2.0], [0.5, 0.5]),
        band_from([], [0.5]),
        band_from([1.0, 2.0, 3.0], [0.5, 0.5], [0.5, 0.5]),
        band_from([1.0, 2.0, 3.0], [0.5, 0.5], []),
        band_from([1.0], [0.5]),
    ):
        with pytest.raises(ValueError, match="wrong length"):
            inertia(bad)
    # eigvalsh returned NaN here, which counted as nullity 2; a band of any
    # width is checked the same way
    for v in (math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, 0.0)):
        for bad in (
            band_from([1.0, 2.0], [v]),
            band_from([1.0, v], [0.5]),
            band_from([v], []),
            band_from([1.0, 2.0, 3.0], [0.5, 0.5], [v]),
        ):
            with pytest.raises(ValueError, match="non-finite"):
                inertia(bad)
    # any value on the diagonal that is no float is refused, however small
    # its imaginary part
    assert inertia(band_from([1.0, 2.0], [0.5])) == Inertia(2, 0, 0)
    for d in (2.0 + 0.9e-12j, 2.0 + 0j, 2, True):
        with pytest.raises(ValueError, match="not Hermitian"):
            inertia(Band((((1.0, 1), (d, 1)), ((0.5, 1),)), 0.0))
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia(band_from([1e-3 - 0.6e-12j], []))


def test_inertia_refuses_a_size_that_is_no_finite_float_at_least_zero():
    # inf once made tau infinite, and every eigenvalue read as zero; 10**400
    # overflowed in size / max|h|, and 10**5000 has more digits than repr gives
    diag, sub = ((1.0, 2), (-1.0, 1)), ((0.5, 2),)
    assert inertia(Band((diag, sub), 0.0)) == Inertia(2, 1, 0)
    sizes = (math.nan, -1.0, math.inf, True, 0, Fraction(1, 2), Decimal("0.5"), 10**400)
    huge = (10**5000, "<int of more than 4300 digits>")
    for size, text in [*((s, repr(s)) for s in sizes), huge]:
        message = rf"^band size {re.escape(text)} is not a finite float >= 0$"
        with pytest.raises(ValueError, match=message):
            inertia(Band((diag, sub), size))


def test_inertia_with_an_off_band_entry_matches_eigvalsh():
    # zero on the band: counting the band alone would give (0, 0, 3)
    h = np.zeros((3, 3), dtype=complex)
    h[0, 2] = h[2, 0] = 1.0
    assert triple(inertia(full_band(h))) == triple(eigvalsh_inertia(h)) == (1, 1, 1)
    rng = np.random.default_rng(28)
    for n in (3, 5, 19, 60):
        h = dense(tridiagonal(rng.standard_normal(n), rng.standard_normal(n - 1)))
        i, j = sorted(rng.choice(n, size=2, replace=False))
        if j - i < 2:
            i, j = 0, n - 1
        h[i, j] = 0.5 - 0.25j
        h[j, i] = 0.5 + 0.25j
        assert_counts(full_band(h), eigvalsh_inertia)


def test_inertia_finds_a_nan_that_max_skips():
    # max|h| is NaN when a NaN is the first value it reads, and passes over
    # one anywhere else; each run's value is checked on its own, however
    # long the run, so a NaN that fills a thousand positions is found where
    # every other entry is zero too
    long = 1000
    for bad in (
        Band((((0.0, long), (math.nan, long)), ((0.0, 2 * long - 1),)), 0.0),
        Band((((1.0, long), (math.nan, long)), ((0.5, 2 * long - 1),)), 0.0),
        Band((((math.nan, long),), ((0.5, long - 1),)), 0.0),
        Band((((math.nan, long), (1.0, 2 * long)), ((0.5, 3 * long - 1),)), 0.0),
        Band((((1.0, 3 * long),), ((0.5, long), (complex(0.0, math.nan), 2 * long - 1))), 0.0),
        # tau / max|h| overflows to inf
        Band((((5e-324, long), (math.nan, long)), ((0.0, 2 * long - 1),)), 1.0),
    ):
        with pytest.raises(ValueError, match="non-finite"):
            inertia(bad)


def test_inertia_finds_a_nan_anywhere_in_a_wide_band():
    # a band of width >= 2 has the value of each run checked before it is
    # laid out in rows and reduced: a NaN run of a thousand positions, at
    # each place of each diagonal of a band of order 1000 n, is found at once
    long = 1000
    for n, width in ((3, 2), (4, 2), (4, 3), (6, 5)):
        for k in range(width + 1):
            for j in range(n - k):
                for v in (math.nan, complex(math.nan, 0.0), complex(0.0, math.nan)):
                    diags = [((1.0, n * long),)]
                    diags += [((0.25 + 0.5j, n * long - i),) for i in range(1, width + 1)]
                    x, count = diags[k][0]
                    after = count - (j + 1) * long
                    diags[k] = tuple(
                        run for run in ((x, j * long), (v, long), (x, after)) if run[1]
                    )
                    h = Band(tuple(diags), 0.0)
                    with pytest.raises(ValueError, match="non-finite"):
                        inertia(h)


def per_position_inertia(h, side=0):
    """The count of a finite Band one position at a time, the independent
    reference for inertia's counts: its diagonals laid out as lists, a wide
    band in rows reduced by _householder_band, then one step of the two
    Sturm sequences per position, each scaling its own entries, with t =
    tau / max|h| moved by side 64 u: its window is 64 u max|h|."""
    diags = expanded(h)
    n = len(diags[0])
    hmax = max(map(abs, chain(*diags)), default=0.0)
    if hmax == 0.0:
        return Inertia(0, 0, n)
    diag = [x.real for x in diags[0]]
    t = _zero_band(n, hmax, h.size) + side * 64 * 2.0**-53
    if len(diags) < 3:
        sub = diags[1] if len(diags) == 2 else repeat(0.0)
    else:
        rows = [[0j] * n for _ in range(n)]
        for k, d in enumerate([diag, *diags[1:]]):
            for j, x in enumerate(d):
                rows[j + k][j], rows[j][j + k] = x / hmax, x.conjugate() / hmax
        sub, diag = _householder_band(rows)
        hmax = 1.0
    n_pos = n_neg = 0
    lo = hi = 1.0
    for x, e in zip(diag, chain((0.0,), sub)):
        a = x / hmax
        r = abs(e / hmax)
        r *= r
        lo = a + t - r / lo
        hi = t - a - r / hi
        if lo < 0.0:
            n_neg += 1
        elif lo == 0.0:
            lo = sys.float_info.min
        if hi < 0.0:
            n_pos += 1
        elif hi == 0.0:
            hi = sys.float_info.min
    return Inertia(n_pos, n_neg, n - n_pos - n_neg)


def resplit(h, rng):
    """h with each run cut at up to three random places into runs of its
    value."""
    diags = []
    for d in h.diags:
        runs = []
        for x, count in d:
            cuts = sorted(rng.sample(range(1, count), min(count - 1, rng.randint(0, 3))))
            runs += [(x, b - a) for a, b in pairwise([0, *cuts, count])]
        diags.append(tuple(runs))
    return Band(tuple(diags), h.size)


def assert_split_free(h, rng):
    """inertia gives h exactly the counts it gives h with every run cut into
    runs of one, with its runs cut at random and with its equal neighbours
    joined, and counts h as the per-position count does, by assert_counts."""
    laid = expanded(h)
    ones = Band(tuple(tuple((x, 1) for x in d) for d in laid), h.size)
    for layout in (ones, resplit(h, rng), band_from(*laid, size=h.size)):
        assert repr(expanded(layout)) == repr(laid)
        assert inertia(layout) == inertia(h)
    assert_counts(h, per_position_inertia)


@st.composite
def run_bands(draw):
    """A Band of width 1, n up to 400, of small integers held as at most
    five runs a diagonal, or for n <= 40 at times a run per position.  Some
    runs of its diagonal move to exactly +-tau, so that pivots of T + t or
    of t - T are exactly 0 along a run, and eigenvalues lie at exactly +-tau
    where the sub-diagonal is zero."""
    n = draw(st.integers(1, 400))
    per_position = n <= 40 and draw(st.booleans())

    def runs(total, values):
        if per_position:
            cuts = range(1, total)
        else:
            cuts = sorted(draw(st.sets(st.integers(1, total - 1), max_size=4))) if total > 1 else []
        return [(draw(values), b - a) for a, b in pairwise([0, *cuts, total])] if total else []

    diag = runs(n, st.integers(-3, 3).map(float))
    parts = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(lambda p: complex(*p))
    sub = runs(n - 1, st.just(0j) | parts)
    hmax = max(abs(x) for x, _ in diag + sub)
    tau = _zero_band(n, hmax, 0.0) * hmax
    for i in draw(st.lists(st.integers(0, len(diag) - 1), max_size=3)):
        diag[i] = (draw(st.sampled_from([tau, -tau])), diag[i][1])
    return Band((tuple(diag), tuple(sub)), 0.0)


@st.composite
def run_layouts(draw):
    """A Band of width 0 or 1, n up to 200, laid out as runs of one and long
    runs, with stretches of 0j on the sub-diagonal, float main-diagonal
    values, and a size past max|h| or 0.0.  Some runs of the diagonal move
    to exactly +-t max|h|, t = tau / max|h| as inertia forms it, so that
    pivots are exactly 0."""

    def runs(total, values):
        out = []
        while total:
            count = min(total, draw(st.sampled_from([1, 1, 2, 7, total])))
            out.append((draw(values), count))
            total -= count
        return out

    n = draw(st.integers(1, 200))
    reals = st.integers(-3, 3).map(float) | st.floats(-4.0, 4.0)
    diag = runs(n, reals)
    parts = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(lambda p: complex(*p))
    sub = runs(n - 1, st.just(0j) | parts | st.complex_numbers(max_magnitude=3.0))
    hmax = max(abs(x) for x, _ in diag + sub)
    size = draw(st.sampled_from([0.0, 2.0, 1e6]) if hmax else st.just(0.0)) * hmax
    t = _zero_band(n, hmax, size)
    for i in draw(st.lists(st.integers(0, len(diag) - 1), max_size=2)) if hmax else []:
        diag[i] = (draw(st.sampled_from([t, -t])) * hmax, diag[i][1])
    width = draw(st.sampled_from([0, 1])) if not any(e for e, _ in sub) else 1
    return Band((tuple(diag), tuple(sub))[: width + 1], size)


@settings(deadline=None, max_examples=300)
# an eigenvalue 8.1e-25 above tau, which inertia's closed form counts as
# positive and the per-position count as zero, both within their contract;
# its 95-step run cut into shorter ones must still read the closed form's
# count, since inertia joins equal runs
@example(Band((((9.379164112033322e-13, 95), (2.0, 257)),
               ((2j, 130), (0j, 1), (0j, 1), (0j, 219))), 0.0), random.Random(0))
@given(st.one_of(run_bands(), run_layouts()), st.randoms(use_true_random=False))
def test_inertia_of_a_band_is_the_same_however_its_runs_split(h, rng):
    assert_split_free(h, rng)


def test_inertia_of_engine_bands_is_the_same_however_the_runs_split():
    # first bands at the threshold, max|h| = 1: a pivot of t - T is exactly 0
    # at every position of a run of tau, and an eigenvalue sits at exactly
    # +-tau
    rng = random.Random(37)
    long = 50
    tau = _zero_band(3 * long, 1.0, 0.0)
    for diag, sub, want in (
        (((tau, long), (1.0, long), (-tau, long)), ((0j, 3 * long - 1),), (long, 0, 2 * long)),
        (((-1.0, long), (tau, 2 * long)), ((0j, long), (0.5j, 2 * long - 1)), None),
        (((1.0, 2 * long), (tau, long)), ((0j, 3 * long - 1),), (2 * long, 0, long)),
    ):
        h = Band((diag, sub), 0.0)
        if want is not None:
            assert triple(inertia(h)) == want
        assert_split_free(h, rng)
    # then the bands build_H gives on the engine's systems
    for s, omegas in engine_cases(38):
        assert_split_free(build_H(s, omegas), rng)


@st.composite
def long_run_bands(draw):
    """A Band of width 1 of up to four segments, each one diagonal value a
    over 9 to 3000 positions and one sub-diagonal value e over its rows, so
    that inertia takes each in one piece, with runs of 1 to 8 positions
    between them at times, and a zero sub-diagonal entry before a segment at
    times, which cuts it from the rest.  A segment's g = a / |e| is
    elliptic (|g| < 2), hyperbolic (|g| > 2) or within 1e-4 of |g| = 2, or
    its e is 0, or its a is exactly +-tau, so that its pivots of T + t or
    of t - T are exactly 0 or alternate, and a block cut from the rest may
    have an eigenvalue at exactly +-tau."""
    moduli = st.floats(0.1, 3.0)
    kinds = {
        "elliptic": st.floats(-1.999, 1.999),
        "hyperbolic": st.floats(2.001, 20.0) | st.floats(-20.0, -2.001),
        "parabolic": st.builds(
            lambda sign, d: sign * 2.0 * (1.0 + d),
            st.sampled_from([1.0, -1.0]),
            st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-8, -1e-8, 1e-4, -1e-4]),
        ),
        "zero": st.floats(-3.0, 3.0),
        "tau": st.sampled_from([1.0, -1.0]),
    }
    segments = []  # (kind, x, e, count): x is g, the value where e = 0, or the sign of tau
    for _ in range(draw(st.integers(1, 4))):
        if segments and draw(st.booleans()):
            count = draw(st.integers(1, 8))
        else:
            count = draw(st.integers(9, 3000))
        kind = draw(st.sampled_from(sorted(kinds)))
        e = 0j if kind == "zero" else cmath.rect(draw(moduli), draw(st.floats(-3.2, 3.2)))
        segments.append((kind, draw(kinds[kind]), e, count))
    values = [x if kind == "zero" else x * abs(e) for kind, x, e, _ in segments]
    n = sum(count for *_, count in segments)
    hmax = max(max(abs(a), abs(e)) for a, (_, _, e, _) in zip(values, segments))
    tau = _zero_band(n, hmax, 0.0) * hmax
    diag = tuple((x * tau if kind == "tau" else a, count)
                 for a, (kind, x, _, count) in zip(values, segments))
    sub = []  # a segment's rows, the first cut from the one before at times
    for i, (_, _, e, count) in enumerate(segments):
        if i and draw(st.booleans()):
            sub.append((0j, 1))
            count -= 1
        sub.append((e, count - (i == 0)))
    return Band((diag, tuple(r for r in sub if r[1])), 0.0)


@settings(deadline=None)
@given(long_run_bands(), st.randoms(use_true_random=False))
def test_inertia_of_long_runs_is_the_per_position_count(h, rng):
    assert_split_free(h, rng)


def test_inertia_counts_two_runs_of_rank_10_to_the_12_at_once():
    """Two runs of rank n = 10^12 are counted in under 1 ms, where one
    position at a time would take days.  The counts are those of the
    Toeplitz spectrum lambda_k = a + 2|e| cos(k pi / (n + 1)), k = 1 .. n,
    counted in integers: lambda_k > tau exactly for k < (n + 1) acos((tau -
    a) / 2|e|) / pi, and lambda_k < -tau for k > (n + 1) acos((-tau - a) /
    2|e|) / pi, each bound farther from an integer than its rounding."""
    n = 10**12
    for a, e in ((0.3, 0.8 + 0.6j), (-1.1, 0.6j)):
        h = Band((((a, n),), ((e, n - 1),)), 0.0)
        hmax = max(abs(a), abs(e))
        tau = _zero_band(n, hmax, 0.0) * hmax
        above, below = ((n + 1) * math.acos((x - a) / (2 * abs(e))) / math.pi for x in (tau, -tau))
        assert 0.01 < above % 1 < 0.99 and 0.01 < below % 1 < 0.99
        n_pos, n_neg = math.ceil(above) - 1, n - math.floor(below)
        assert inertia(h) == Inertia(n_pos, n_neg, n - n_pos - n_neg)
        assert min(timeit.repeat(lambda: inertia(h), number=1, repeat=5)) < 1e-3


def test_inertia_counts_a_run_of_zeros_of_rank_10_to_the_7_at_once():
    """A system of one entry at rank 10^7 gives a band whose run of zeros
    brings each Sturm sequence to a float fixed point after one step; the
    steps left are counted at once, in under 1 ms."""
    s = SeifertSystem(1, 10**7, {"+": ((0, 0, 1),), "-": ((0, 0, 1),)})
    h = build_H(s, [-1.0 + 0j])
    assert h.diags == (((4.0, 1), (0.0, 10**7 - 1)), ((0j, 10**7 - 1),))
    assert inertia(h) == Inertia(1, 0, 10**7 - 1)
    assert min(timeit.repeat(lambda: inertia(h), number=1, repeat=5)) < 1e-3


def test_inertia_holds_every_band_to_one_run_policy():
    # every run a pair (value, count), every count a positive int, not a
    # bool, and the counts of diagonal k summing to max(n - k, 0)
    good = Band((((1.0, 2), (-1.0, 1)), ((0.5, 2),)), 0.0)
    assert good.shape == (3, 3) and good.width == 1
    assert inertia(good) == inertia(tridiagonal([1.0, 1.0, -1.0], [0.5, 0.5])) == Inertia(2, 1, 0)
    assert inertia(Band((((2.0, 1),), (), ()), 0.0)) == Inertia(1, 0, 0)
    for diags in (
        (((1.0, 3), (-1.0, 0)), ((0.5, 2),)),
        (((1.0, 4), (-1.0, -1)), ((0.5, 2),)),
        (((1.0, 2), (-1.0, True)), ((0.5, 2),)),
        (((1.0, 2.0), (-1.0, 1)), ((0.5, 2),)),
        (((1.0, np.int64(2)), (-1.0, 1)), ((0.5, 2),)),
        (((1.0, 2), (-1.0, 1)), ((0.5, 3),)),
        (((1.0, 2), (-1.0, 1)), ((0.5, 1),)),
        (((1.0, 2), (-1.0, 1)), ((0.5, 2),), ((0.1, 1),), ((0.1, 1),)),
        (((1.0, 2), (-1.0, 1)), ((0.5, 2), ())),
        (((1.0, 2), (-1.0, 1)), ((0.5, 2, 0),)),
        (((1.0, 2), -1.0), ((0.5, 2),)),
        (((1.0, 3),), None),
        ((1.0, 3),),
        (((1.0, 10**20),),),  # n past sys.maxsize, refused before any work
        (((1.0, 2**63),),),
        (((1.0, 2**62), (1.0, 2**62)),),
        (),
    ):
        # shape and width check the same policy, with the same refusal
        for read in (inertia, attrgetter("shape"), attrgetter("width")):
            with pytest.raises(ValueError, match="^band has a diagonal of the wrong length$"):
                read(Band(diags, 0.0))


def test_inertia_refuses_an_overlong_diagonal_before_laying_it_out():
    """A sub-diagonal whose counts overrun its n - k positions is refused by
    the run policy before any of it is laid out.  Each bad count is 10^12, a
    list of 8 TB, so under the 300 MB address-space cap laying one out
    fails at once with MemoryError."""
    cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))"
    script = f"""{cap}
from linksig.signature import Band, inertia
big = 10**12
for diags in (
    (((1.0, 2),), ((0j, big),)),
    (((1.0, 2),), ((0j, 1), (1j, big))),
    (((1.0, 2),), (), ((0j, big),)),
    (((1.0, 2),), ((0j, 1),), ((0j, big),), ((0j, big),)),
):
    try:
        inertia(Band(diags, 0.0))
    except ValueError as exc:
        print(exc)
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == "band has a diagonal of the wrong length\n" * 4


def test_inertia_of_a_long_band_holds_its_runs_not_its_positions():
    """A band of width 1 costs O(runs) memory: two runs of n = 10^5 are
    counted in under 16 KB, against the 2.3 MB that a layout by position
    held.  The counts are the Toeplitz closed form, lambda_k = a + 2|e|
    cos(k pi / (n + 1)), every one far from tau."""
    n = 10**5
    a, e = 0.3, 0.8 + 0.6j
    h = Band((((a, n),), ((e, n - 1),)), 0.0)
    tracemalloc.start()
    try:
        got = inertia(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 10
    lam = [a + 2 * abs(e) * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)]
    assert min(map(abs, lam)) > 1e4 * _zero_band(n, 1.0, 0.0)  # max|h| = 1
    want = (sum(x > 0 for x in lam), sum(x < 0 for x in lam), 0)
    assert triple(got) == want == (54793, 45207, 0)


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
    # no H reaches eigvalsh.  A band is counted whichever way it is laid out: its
    # transpose (conj H), its reversal (J H J) and its dense rows have the
    # eigenvalues of H
    rng = np.random.default_rng(32)
    band = [[2, -1, 0, 0], [3, 1, 1, 0], [0, -2, 0, 1], [0, 0, 1, -1]]
    systems = [torus_seifert(ell) for ell in (2, 3, -5, 20, 200)]
    systems.append(seifert_system(1, {"+": band, "-": [list(r) for r in zip(*band)]}))
    cases = []
    for s in systems:
        h = build_H(s, random_omegas(rng, s.mu))
        assert h.width == 1
        want = eigvalsh_inertia(h)
        assert eigvalsh_inertia(h, 1) == want == eigvalsh_inertia(h, -1)  # none at the edge
        diag, sub = expanded(h)
        layouts = (
            band_from(diag, [e.conjugate() for e in sub]),
            band_from(diag[::-1], [e.conjugate() for e in sub[::-1]]),
            full_band(dense(h)),
        )
        cases.append((h, want, layouts))
    off_band = dense(tridiagonal([1.0, 2.0, 3.0], [0.5, 0.5]))
    off_band[0, 2] = off_band[2, 0] = 0.25
    off_band_want = eigvalsh_inertia(off_band)
    assert eigvalsh_inertia(off_band, 1) == off_band_want == eigvalsh_inertia(off_band, -1)

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    # no H reaches eigvalsh: a wide band is reduced to width 1 by Householder
    # reflections, then counted as a band of width 1 is
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert inertia(full_band(off_band)) == off_band_want
    # a matrix is a Band: its rows alone, or an array, are not
    for layout in (off_band, off_band.tolist()):
        with pytest.raises(TypeError, match="takes a Band, not"):
            inertia(layout)
    for h, want, layouts in cases:
        counted = inertia(h)
        assert counted == want
        for variant in layouts:
            assert inertia(variant) == counted


def test_sigma_eval_takes_the_layout_from_the_system(monkeypatch):
    """A system checks its band layout once, when it is built: with
    _layout refusing every call, sigma_eval still counts each torus system
    of rank 2 to 199 built before, while inertia, which checks each band it
    is given, refuses."""
    rng = random.Random(50)
    systems = {ell: torus_seifert(ell) for e in (3, 5, 20, 50, 200) for ell in (e, -e)}
    points = []
    for _ in range(4):
        big_p = rng.choice(LATTICE_PRIMES)
        points.append(angle_pair(Fraction(rng.randint(1, big_p - 1), big_p),
                                 Fraction(rng.randint(1, big_p - 1), big_p)))

    def refuse(diags):
        raise AssertionError("_layout called")

    monkeypatch.setattr("linksig.signature._layout", refuse)
    for ell, s in systems.items():
        for alpha in points:
            omegas = list(alpha.omega())
            assert sigma_eval(s, omegas) == sigma_torus_closed(ell, alpha)
            with pytest.raises(AssertionError, match="^_layout called$"):
                inertia(build_H(s, omegas))


def test_sigma_eval_on_a_system_whose_layout_is_refused():
    """A system of rank past sys.maxsize is built, with no order.  sigma_eval
    refuses a bad omega list first, as build_H does, then each H as inertia
    refuses build_H's band.  At rank sys.maxsize the layout holds, and the
    zero H is all nullity.  The derived fields survive copy and pickle, and
    equality reads neither."""
    big = SeifertSystem(2, sys.maxsize + 1, {})
    assert (big.minus, big.order) == ((), None)
    for bad in ([1j], [1j, -1j, 1j], [1.0 + 0j, -1j], [1j, 2.0 + 0j]):
        want = raised(build_H, big, bad)
        got = raised(sigma_eval, big, bad)
        assert (type(got), str(got)) == (type(want), str(want))
    want = raised(inertia, build_H(big, [1j, -1j]))
    got = raised(sigma_eval, big, [1j, -1j])
    assert (type(got), str(got)) == (type(want), str(want))
    assert (type(got), str(got)) == (ValueError, "band has a diagonal of the wrong length")
    edge = SeifertSystem(2, sys.maxsize, {})
    assert edge.order == sys.maxsize
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert sigma_eval(edge, [1j, -1j]) == 0
    assert [str(w.message) for w in caught] == [
        "H(omega) has 9223372036854775807 near-zero eigenvalue(s); omega is on or near the root locus"
    ]
    torus = torus_seifert(-5)
    assert (torus.minus, torus.order) == (((), (0, 1)), 4)
    for s in (big, edge, torus):
        for twin in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert twin == s and (twin.minus, twin.order) == (s.minus, s.order)
    assert SeifertSystem(2, sys.maxsize + 1, {"+-": ()}) == big
    assert hash(SeifertSystem(2, 4, torus.entries)) == hash(torus)


@st.composite
def tridiagonal_systems(draw):
    """A Seifert system of mu 1 or 2 whose matrices are random integer
    tridiagonal ones, and a unit omega per color."""
    mu = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(0, 40))
    keys = sign_keys(mu)
    matrices = {}
    for k, nk in zip(keys[: len(keys) // 2], keys[::-1]):
        m = [[draw(st.integers(-3, 3)) if abs(i - j) <= 1 else 0 for j in range(n)]
             for i in range(n)]
        matrices[k], matrices[nk] = m, [list(r) for r in zip(*m)]
    angles = draw(st.lists(st.floats(0.01, 2 * math.pi - 0.01), min_size=mu, max_size=mu))
    return seifert_system(mu, matrices), [cmath.exp(1j * a) for a in angles]


@settings(deadline=None, max_examples=80)
@given(tridiagonal_systems())
def test_band_inertia_of_tridiagonal_systems_matches_eigvalsh(drawn):
    s, omegas = drawn
    h = build_H(s, omegas)
    assert h.width == 1 and h.shape == (s.rank, s.rank)
    if s.rank == 0:
        assert inertia(h) == Inertia(0, 0, 0)
        return
    # the reference H is the numpy sum over every matrix, whose complex
    # products may round differently from build_H's in the last bit
    ref = sum((coefficient(k, omegas) * np.array(s.matrix(k)) for k in s.entries),
              np.zeros((s.rank, s.rank), dtype=complex))
    scale = 1.0 + 0.0j
    for w in omegas:
        scale *= 1.0 - w.conjugate()
    assert np.allclose(dense(h), scale * ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))
    # H's terms, summed by numpy
    assert_counts(h, lambda _, side=0: eigvalsh_inertia(scale * ref, side, h.size))


def test_sigma_eval_equals_closed_form_at_engine_ranks():
    # the engine benchmark's systems and kinds of point: lattice angles
    # (p/P) pi with P a prime in 401..2000, and float pairs
    rng = random.Random(33)
    for ell in (3, -3, 5, -5, 20, -20, 50, -50, 200, -200):
        s = torus_seifert(ell)
        points = []
        for _ in range(12):
            big_p = rng.choice(LATTICE_PRIMES)
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
    # and a negative ell at every admissible point of a coarse lattice
    s = torus_seifert(-4)
    for alpha in admissible_grid(-4, 24):
        assert sigma_eval(s, list(alpha.omega())) == sigma_torus_closed(-4, alpha), alpha


def test_sigma_eval_equals_closed_form_at_ell_one_thousand():
    """Rank 999 at prime-lattice points, three of them within about 1e-5
    rad of a root line.  The zero band is the rounding error of the count,
    8 * 999 * 2^-53 * max|H|, about 9e-13 * max|H|, so every point, the
    near-line ones too, reads the closed form with no NullityWarning.
    Ranks 1999 and 99999 do too at (1/3, 2/7), all within 10 s: each run
    of their H is counted in closed form, and building the ell = +-100000
    systems, about 0.7 s each, takes most of the time."""
    rng = random.Random(34)
    points = [
        angle_pair(*(Fraction(rng.randint(1, big_p - 1), big_p) for _ in range(2)))
        for big_p in (rng.choice(LATTICE_PRIMES) for _ in range(20))
    ]
    near_line = [angle_pair(*pair) for pair in (
        ("193/571", "382/571"), ("24/991", "964/991"), ("617/991", "373/991")
    )]
    far = [angle_pair("1/3", "2/7")]
    start = time.perf_counter()
    for ell, alphas in (
        (1000, points + near_line), (-1000, points + near_line),
        (2000, far), (-2000, far), (100000, far), (-100000, far),
    ):
        s = torus_seifert(ell)
        for alpha in alphas:
            assert is_defined(ell, alpha), (ell, alpha)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", NullityWarning)
                engine = sigma_eval(s, list(alpha.omega()))
            assert not caught and engine == sigma_torus_closed(ell, alpha), (ell, alpha)
    assert time.perf_counter() - start < 10


def congruent_torus_sum(ells, perm, signs, moves):
    """The direct sum of torus_seifert(ell) over `ells`, with every sign
    matrix A taken to P^T A P.  P is the signed permutation
    (perm, signs) times the moves (i, j, s): column c_j += s c_i."""
    n = sum(abs(ell) - 1 for ell in ells)
    matrices = {}
    for key in sign_keys(2):
        block = [[0] * n for _ in range(n)]
        offset = 0
        for ell in ells:
            for i, row in enumerate(seifert_to_json(torus_seifert(ell))["matrices"][key]):
                block[offset + i][offset : offset + len(row)] = row
            offset += abs(ell) - 1
        a = [[signs[i] * signs[j] * block[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        for i, j, sign in moves:
            for row in a:
                row[j] += sign * row[i]
            a[j] = [x + sign * y for x, y in zip(a[j], a[i])]
        matrices[key] = a
    return seifert_system(2, matrices)


@st.composite
def congruent_torus_sums(draw):
    """(system, ells): one or two torus systems of total rank <= 49 in a
    basis changed by a unimodular P, a random signed permutation times up
    to 20 moves c_j += +-c_i.  H(omega) goes to P^T H(omega) P, which keeps
    its inertia (Sylvester's law), and a direct sum adds inertias; so the
    engine must read the closed form, or the sum of two.  A permuted system
    of rank >= 3 mostly leaves the band, so this checks the dense route."""
    first = draw(st.integers(2, 50))
    ells = [first]
    if first < 49 and draw(st.booleans()):
        ells.append(draw(st.integers(2, 51 - first)))
    ells = [ell * draw(st.sampled_from([1, -1])) for ell in ells]
    n = sum(abs(ell) - 1 for ell in ells)
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    moves = []
    if n > 1:
        move = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.sampled_from([1, -1]))
        moves = [(i, (i + d) % n, sign) for i, d, sign in draw(st.lists(move, max_size=20))]
    return congruent_torus_sum(ells, perm, signs, moves), ells


@settings(deadline=None, max_examples=25)
@given(congruent_torus_sums(), st.data())
def test_engine_on_congruent_torus_sums_reads_the_closed_form(drawn, data):
    s, ells = drawn
    for _ in range(2):  # prime-lattice points
        alpha = angle_pair(*(
            Fraction(data.draw(st.integers(1, big_p - 1)), big_p)
            for big_p in (data.draw(st.sampled_from(LATTICE_PRIMES)) for _ in range(2))
        ))
        assert all(is_defined(ell, alpha) for ell in ells)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NullityWarning)
            engine = sigma_eval(s, list(alpha.omega()))
        assert engine == sum(sigma_torus_closed(ell, alpha) for ell in ells), alpha
    # a rational point on a root line a1 + a2 = m pi / L of the first
    # summand, which may lie on one of the second summand's as well.  All
    # of H vanishes there when every summand has ell = +-2; the zero band
    # is then set by the size of build_H's terms, not by max|H|
    big_l = abs(ells[0])
    m = data.draw(st.integers(1, 2 * big_l - 2))
    den = data.draw(st.integers(2, 1000))
    t = Fraction(data.draw(st.integers(1, den - 1)), den)
    a1, a2 = on_root_line((big_l, m + (m >= big_l), True), t, Fraction(1))
    x = a1 + a2
    nullity = sum((x * abs(ell)).denominator == 1 and x != 1 for ell in ells)
    assert inertia(build_H(s, list(angle_pair(a1, a2).omega()))).n_zero == nullity


def test_engine_on_a_permuted_rank_199_torus_system():
    # the ell-200 torus system, relabelled by a signed permutation, is a wide
    # band; 8e-6 rad from a root line it reads the closed form 197 with no
    # warning, as the band of width 1 does (a zero band of 1e-9 * n read 198)
    rng = random.Random(36)
    perm = list(range(199))
    rng.shuffle(perm)
    s = congruent_torus_sum([200], perm, [rng.choice([1, -1]) for _ in perm], [])
    assert len(s.runs) > 2
    alpha = angle_pair("1/1999", "9/1999")
    with warnings.catch_warnings():
        warnings.simplefilter("error", NullityWarning)
        assert sigma_eval(s, list(alpha.omega())) == sigma_torus_closed(200, alpha) == 197


def knot_block_sum(ell, k, color, sign=1):
    """torus_seifert(ell) plus a block for the knot T(2, 2k+1) on one color,
    its mirror if sign is -1: a boundary connected sum that enters every key
    whose sign for that color is + as V, with sign * -1 on the diagonal and
    sign * +1 above it (rank 2k), and every other key as V^T (Cimasoni and
    Florens 2008).  A torus system's mixed keys are zero; with the block,
    every key has an entry.  Built directly, so every rule of
    SeifertSystem's policy is checked."""
    base = torus_seifert(ell)
    n = base.rank
    upper = tuple(
        (n + i, n + i + d, sign * v)
        for i in range(2 * k) for d, v in ((0, -1), (1, 1)) if i + d < 2 * k
    )
    lower = tuple((j, i, v) for i, j, v in upper)
    return SeifertSystem(2, n + 2 * k, {
        key: base.entries.get(key, ()) + (upper if key[color] == "+" else lower)
        for key in sign_keys(2)
    })


def knot_sigma(k, a):
    """The Levine-Tristram signature of T(2, 2k+1) at exp(2ia), a in
    radians: the sum of sign(cos(j pi / (2k+1)) - sin a) over j = 1..2k."""
    return sum(
        (c > math.sin(a)) - (c < math.sin(a))
        for c in (math.cos(j * math.pi / (2 * k + 1)) for j in range(1, 2 * k + 1))
    )


def knot_margin(k, a):
    """How far sin a lies from the knot's root lines sin a = cos(j pi / (2k+1))."""
    return min(abs(math.cos(j * math.pi / (2 * k + 1)) - math.sin(a)) for j in range(1, 2 * k + 1))


@st.composite
def knot_block_sums(draw):
    """(system, ell, k, color, sign): torus_seifert(ell), 2 <= |ell| <= 20,
    plus a T(2, 2k+1) block, 1 <= k <= 6, or its mirror, on either color.
    H(omega) is block diagonal, and the block's part is
    |1 - omega_other|^2 (1 - conj(omega_c)) (V - omega_c V^T), a positive
    multiple of the knot's Levine-Tristram form, so the signature is the
    torus strip's plus the knot's at omega_c."""
    ell = draw(st.integers(2, 20)) * draw(st.sampled_from([1, -1]))
    k = draw(st.integers(1, 6))
    color = draw(st.sampled_from([0, 1]))
    sign = draw(st.sampled_from([1, -1]))
    return knot_block_sum(ell, k, color, sign), ell, k, color, sign


@settings(deadline=None, max_examples=100)
@given(knot_block_sums(), st.data())
def test_engine_on_knot_block_sums_reads_the_closed_form(drawn, data):
    s, ell, k, color, sign = drawn
    assert tuple(s.entries) == tuple(sign_keys(2))
    lattice = angle_pair(*(
        Fraction(data.draw(st.integers(1, big_p - 1)), big_p)
        for big_p in (data.draw(st.sampled_from(LATTICE_PRIMES)) for _ in range(2))
    ))
    angle = st.floats(1e-3, math.pi - 1e-3)
    point = AnglePair.from_radians(data.draw(angle), data.draw(angle))
    assume(is_defined(ell, point) and knot_margin(k, point.radians[color]) > 1e-6)
    for alpha in (lattice, point):
        i, _ = defined_strips(ell, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NullityWarning)
            engine = sigma_eval(s, list(alpha.omega()))
        assert engine == strip_sigma(ell, i) + sign * knot_sigma(k, alpha.radians[color]), alpha


def poly_mul(f, g):
    """The product of two polynomials in t1, t2, each {(a, b): coefficient}."""
    out = {}
    for (a, b), x in f.items():
        for (c, d), y in g.items():
            out[a + c, b + d] = out.get((a + c, b + d), 0) + x * y
    return out


def poly_sub(f, g):
    out = dict(f)
    for m, y in g.items():
        out[m] = out.get(m, 0) - y
    return {m: x for m, x in out.items() if x}


def alexander_determinant(s):
    """det A(t) of a two-color system with tridiagonal matrices, where
    A(t) = sum_eps eps_1 eps_2 t1^((1 - eps_1)/2) t2^((1 - eps_2)/2) A^eps,
    as {(a, b): coefficient of t1^a t2^b}, by the three-term recurrence of
    its leading principal minors, in integers."""
    assert s.mu == 2 and len(s.runs) == 2
    a = {}
    for key in sign_keys(2):
        monomial = (int(key[0] == "-"), int(key[1] == "-"))
        sign = 1 if key[0] == key[1] else -1
        for i, j, v in s.entries.get(key, ()):
            entry = a.setdefault((i, j), {})
            entry[monomial] = entry.get(monomial, 0) + sign * v
    prev, cur = {}, {(0, 0): 1}
    for m in range(s.rank):
        step = poly_mul(a.get((m, m), {}), cur)
        if m:
            off = poly_mul(a.get((m - 1, m), {}), a.get((m, m - 1), {}))
            step = poly_sub(step, poly_mul(off, prev))
        prev, cur = cur, {e: x for e, x in step.items() if x}
    return cur


def test_alexander_polynomial_of_torus_systems():
    # det A(t) of the (2, 2l)-torus link is +-(1 + x + ... + x^(L-1)) with
    # x = t1 t2, whose roots are the root lines the strip kernel uses
    for ell in (2, 3, 5, 8, -4):
        det = alexander_determinant(torus_seifert(ell))
        unit = det[0, 0]
        assert unit in (1, -1)
        assert det == {(m, m): unit for m in range(abs(ell))}, ell


def test_seifert_system_enforces_the_transpose_invariant_at_construction():
    # a system built directly, without seifert_system, is checked as well
    upper = ((0, 0, -1), (0, 1, 1), (1, 1, -1))
    lower = ((0, 0, -1), (1, 0, 1), (1, 1, -1))
    assert SeifertSystem(2, 2, {"++": upper, "+-": (), "-+": (), "--": lower}) == torus_seifert(3)
    assert SeifertSystem(1, 2, {"-": lower[::-1], "+": upper}).rank == 2
    for mu, entries, pair in (
        (2, {"++": upper, "+-": (), "-+": (), "--": upper}, "(++, --)"),
        (2, {"++": upper, "+-": ((0, 1, 2),), "-+": ((0, 1, 2),), "--": lower}, "(+-, -+)"),
        (1, {"+": upper, "-": lower[:2]}, "(+, -)"),
        (1, {"-": lower}, "(-, +)"),  # its partner is missing
    ):
        with pytest.raises(BadSystemError) as caught:
            SeifertSystem(mu, 2, entries)
        assert str(caught.value) == f"transpose invariant violated for sign pair {pair}"


def test_seifert_system_equality_ignores_the_order_of_its_input():
    # the same matrices, given keys and entries in another order, are one
    # system: equal, with one hash, the same nonzero order and the same H
    s = SeifertSystem(1, 2, {"-": ((1, 0, 2), (0, 0, 1)), "+": ((0, 1, 2), (0, 0, 1))})
    loaded = seifert_from_json(seifert_to_json(s))
    assert s == loaded and hash(s) == hash(loaded)
    assert tuple(s.entries) == tuple(loaded.entries) == ("+", "-")
    assert s.entries["+"] == ((0, 0, 1), (0, 1, 2))
    omegas = [cmath.exp(0.7j)]
    assert repr(build_H(s, omegas)) == repr(build_H(loaded, omegas))


def test_seifert_system_keeps_only_nonzero_entries():
    # a rank-199 torus system keeps 2 x 397 entries and what build_H reads,
    # well under one int64 matrix, and builds no matrix on the way
    size = 199 * 199 * 8
    torus_seifert(5)
    for ell in (200, -200):
        tracemalloc.start()
        try:
            s = torus_seifert(ell)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tuple(s.entries) == ("++", "--")
        assert [len(s.entries.get(k, ())) for k in sign_keys(2)] == [397, 0, 0, 397]
        assert kept < 0.5 * size and peak < size, (ell, kept / size, peak / size)
    # the caller's lists are read, never stored: the entries are plain ints,
    # from integral floats too, and a numpy array is no matrix
    rng = np.random.default_rng(31)
    given = random_system(rng, 2, 4)
    for number in (int, float):
        raw = {k: [[number(v) for v in row] for row in given.matrix(k)] for k in sign_keys(2)}
        s = seifert_system(2, raw)
        assert s == given
        assert {type(x) for e in s.entries.values() for entry in e for x in entry} == {int}
    for dtype in (np.int64, np.int32):
        raw = {k: np.array(given.matrix(k), dtype=dtype) for k in sign_keys(2)}
        with pytest.raises(BadSystemError, match="not numeric"):
            seifert_system(2, raw)


def test_a_missing_key_and_an_empty_key_are_one_zero_matrix():
    # a key with no entry is not stored, however the system was given
    bare = SeifertSystem(1, 1, {})
    dense = seifert_system(1, {"+": [[0]], "-": [[0]]})
    assert bare == dense and hash(bare) == hash(dense)
    assert dict(bare.entries) == {}
    assert bare.runs == ((((), 1),), ()) and bare.bound == 0
    assert bare.matrix("+") == [[0]]
    assert seifert_to_json(bare) == {"mu": 1, "rank": 1, "matrices": {"+": [[0]], "-": [[0]]}}
    upper, lower = ((0, 1, 1),), ((1, 0, 1),)
    full = SeifertSystem(2, 2, {"++": upper, "+-": (), "-+": (), "--": lower})
    short = SeifertSystem(2, 2, {"++": upper, "--": lower})
    assert full == short and hash(full) == hash(short)
    assert tuple(full.entries) == tuple(short.entries) == ("++", "--")
    assert seifert_to_json(full) == seifert_to_json(short)


def test_a_wide_system_keeps_only_its_entries():
    # the ell-200 torus system relabelled by a permutation is a band of
    # width > 100, which the system stores as its 2 x 397 entries and
    # their lower half, not as the positions of that band
    base = torus_seifert(200)
    perm = list(range(base.rank))
    random.Random(28).shuffle(perm)
    relabelled = {
        k: tuple((perm[i], perm[j], v) for i, j, v in e) for k, e in base.entries.items()
    }
    tracemalloc.start()
    try:
        s = SeifertSystem(2, base.rank, relabelled)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(s.runs) > 101
    assert kept < 484_000 / 4, kept
    assert_is_the_sum(s, [cmath.exp(0.4j), cmath.exp(2.1j)])


def assert_laid_out(s):
    """s.runs covers the n - k positions of each diagonal k by runs (terms,
    count) of count > 0, no two adjacent ones with the same terms, and
    expanding the runs gives each position's terms (key index, v) in key
    order.  An empty stretch is one run, so there are at most two runs per
    position with an entry, and one more per diagonal.  s.bound is the
    largest sum of |v| over the terms of a run."""
    cells = [{(i, j): v for i, j, v in e} for e in s.entries.values()]
    filled = {(i, j) for c in cells for i, j in c if i >= j}
    assert len(s.runs) == 1 + max([1, *(i - j for i, j in filled)])
    for k, runs in enumerate(s.runs):
        assert sum(count for _, count in runs) == max(s.rank - k, 0), k
        assert all(count > 0 for _, count in runs), k
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:])), k
        laid = [terms for terms, count in runs for _ in range(count)]
        assert laid == [
            tuple((index, c[j + k, j]) for index, c in enumerate(cells) if (j + k, j) in c)
            for j in range(s.rank - k)
        ], k
    assert sum(map(len, s.runs)) <= 2 * len(filled) + len(s.runs)
    sums = [sum(abs(v) for _, v in terms) for runs in s.runs for terms, _ in runs]
    assert s.bound == max(sums, default=0)


def test_runs_lay_out_torus_and_relabelled_systems():
    for ell in [*range(-60, 0), *range(1, 61)]:
        s = torus_seifert(ell)
        assert_laid_out(s)
        assert all(len(runs) <= 1 for runs in s.runs), ell
    # the relabelled ell-200 system of test_a_wide_system_keeps_only_its_entries
    base = torus_seifert(200)
    perm = list(range(base.rank))
    random.Random(28).shuffle(perm)
    relabelled = {
        k: tuple((perm[i], perm[j], v) for i, j, v in e) for k, e in base.entries.items()
    }
    s = SeifertSystem(2, base.rank, relabelled)
    assert_laid_out(s)
    # relabelled, an off-diagonal +-1 falls below the diagonal in ++ or in --,
    # so its runs hold four term lists, the empty one among them
    assert len(s.runs) > 101 and len({terms for runs in s.runs for terms, _ in runs}) == 4


@settings(deadline=None, max_examples=50)
@given(st.one_of(
    systems_and_omegas().map(lambda drawn: drawn[0]),
    knot_block_sums().map(lambda drawn: drawn[0]),
))
def test_runs_lay_out_random_systems(s):
    assert_laid_out(s)


def test_seifert_system_stores_partners_as_read_only_transposes():
    rng = np.random.default_rng(30)
    for mu, rank in ((1, 3), (2, 4), (3, 2)):
        given = random_system(rng, mu, rank)
        raw = {k: given.matrix(k) for k in sign_keys(mu)}
        s = seifert_system(mu, raw)
        for k, e in s.entries.items():
            nk = "".join("-" if c == "+" else "+" for c in k)
            assert s.entries[nk] == tuple(sorted((j, i, v) for i, j, v in e))
            assert s.matrix(k) == raw[k]
            with pytest.raises(TypeError):
                s.entries[k] = ()
        data = seifert_to_json(s)
        assert data["matrices"] == raw
        with pytest.raises(BadSystemError, match="not numeric"):
            seifert_system(mu, {k: np.array(m) for k, m in raw.items()})
        assert seifert_to_json(seifert_from_json(data)) == data


def test_seifert_system_constructor_rejects_what_seifert_system_rejects():
    # one policy, however a system is built: each rule's message, in full
    ok = {"+": ((0, 0, 1),), "-": ((0, 0, 1),)}
    for mu, rank, entries, message in (
        (1, 2, {"+": ((5, 5, 1),), "-": ((5, 5, 1),)},
         "matrix + entry (5, 5, 1) lies outside rank 2"),
        (1, 2, {"+": ((-1, 0, 1),), "-": ((0, -1, 1),)},
         "matrix + entry (-1, 0, 1) lies outside rank 2"),
        (1, 2, {"+": ((0, -1, 1),), "-": ((-1, 0, 1),)},
         "matrix + entry (0, -1, 1) lies outside rank 2"),
        (1, 1, {"+": ((0, 0, 1), (0, 0, 2)), "-": ((0, 0, 1), (0, 0, 2))},
         "matrix + has two entries at (0, 0)"),
        (1, 1, {"+": ((0, 0, 1), (0, 0, 1)), "-": ((0, 0, 1), (0, 0, 1))},
         "matrix + has two entries at (0, 0)"),
        (1, 2, {"+": ((0, 0, 1), (0, 0, 2)), "-": ((0, 0, 1),)},
         "matrix + has two entries at (0, 0)"),
        (1, 1, {"+": ((0, 0, True),), "-": ((0, 0, True),)},
         "matrix + entry (0, 0, True) is not a tuple of three ints"),
        (1, 1, {"+": ((0, 0, 0.5),), "-": ((0, 0, 0.5),)},
         "matrix + entry (0, 0, 0.5) is not a tuple of three ints"),
        (1, 1, {"+": ((0, 0, 1.0),), "-": ((0, 0, 1.0),)},
         "matrix + entry (0, 0, 1.0) is not a tuple of three ints"),
        (1, 1, {"+": ((False, 0, 1),), "-": ((0, False, 1),)},
         "matrix + entry (False, 0, 1) is not a tuple of three ints"),
        (1, 1, {"+": ((0, 0),), "-": ()}, "matrix + entry (0, 0) is not a tuple of three ints"),
        (1, 1, {"+": ([0, 0, 1],), "-": ()}, "matrix + entry [0, 0, 1] is not a tuple of three ints"),
        (1, 1, {"+": (7,), "-": ()}, "matrix + entry 7 is not a tuple of three ints"),
        (1, 1, {"+": ((0, 0, 0),), "-": ((0, 0, 0),)}, "matrix + entry (0, 0, 0) is zero"),
        (1, 1, {"+": ((0, 0, 2**63),), "-": ((0, 0, 2**63),)},
         "matrix + entry 9223372036854775808 is outside the int64 range [-2^63, 2^63)"),
        (1, 1, {"+": ((0, 0, -(2**63) - 1),), "-": ((0, 0, -(2**63) - 1),)},
         "matrix + entry -9223372036854775809 is outside the int64 range [-2^63, 2^63)"),
        (True, 1, ok, "mu must be a positive integer"),
        (0, 1, ok, "mu must be a positive integer"),
        (1.0, 1, ok, "mu must be a positive integer"),
        (1, -1, ok, "rank must be a non-negative integer"),
        (1, 2.0, ok, "rank must be a non-negative integer"),
        (1, True, ok, "rank must be a non-negative integer"),
        (1, 1, {"+x": ()}, "unexpected keys: '+x' (1 in all)"),
        (2, 1, {"++": (), "+": (), "---": (), 3: ()}, "unexpected keys: '+', '---', 3 (3 in all)"),
        (1, 1, {"": ()}, "unexpected keys: '' (1 in all)"),
        # an int past the 4300 digits that int -> str gives is shown by that limit
        (1, 1, {"+": ((0, 0, 10**5000),), "-": ((0, 0, 10**5000),)},
         "matrix + entry <int of more than 4300 digits> is outside the int64 range [-2^63, 2^63)"),
        (1, 1, {10**5000: ()}, "unexpected keys: <int of more than 4300 digits> (1 in all)"),
        (1, 1, {"+": ((10**5000, 0, 1),), "-": ((0, 10**5000, 1),)},
         "matrix + entry (<int of more than 4300 digits>, 0, 1) lies outside rank 1"),
        (1, 1, {"+": ([-(10**5000)],), "-": ()},
         "matrix + entry [-<int of more than 4300 digits>] is not a tuple of three ints"),
    ):
        with pytest.raises(BadSystemError) as caught:
            SeifertSystem(mu, rank, entries)
        assert str(caught.value) == message, (mu, rank, entries)
    # both ends of the int64 range, entries in a list, and a missing key as
    # a zero matrix are all valid
    edge = SeifertSystem(2, 2, {
        "++": [(0, 1, 2**63 - 1)], "--": [(1, 0, 2**63 - 1)],
        "+-": [(1, 1, -(2**63))], "-+": ((1, 1, -(2**63)),),
    })
    assert edge.entries["++"] == ((0, 1, 2**63 - 1),) and hash(edge) == hash(edge)
    bare = SeifertSystem(2, 3, {"+-": ((0, 1, 1),), "-+": ((1, 0, 1),)})
    assert tuple(bare.entries) == ("+-", "-+") and bare.bound == 1


@settings(deadline=None, max_examples=25)
@given(st.one_of(
    systems_and_omegas().map(lambda drawn: drawn[0]),
    knot_block_sums().map(lambda drawn: drawn[0]),
))
def test_seifert_system_round_trips_through_copy_pickle_and_json(s):
    # copy and pickle rebuild through __init__, which checks the policy again
    twins = (
        copy.copy(s),
        copy.deepcopy(s),
        pickle.loads(pickle.dumps(s)),
        SeifertSystem(s.mu, s.rank, s.entries),
        seifert_from_json(seifert_to_json(s)),
    )
    for twin in twins:
        assert twin == s and hash(twin) == hash(s)
        assert (twin.runs, twin.bound, twin.minus, twin.order) == (s.runs, s.bound, s.minus, s.order)


def test_every_torus_and_benchmark_system_still_builds_as_before():
    # torus_seifert against the dense matrices of its docstring, read by
    # seifert_system: -1 on the diagonal and +1 above it, A^{--} the
    # transpose, the mixed matrices zero, every sign flipped for ell < 0
    for ell in [*range(-60, 0), *range(1, 61), 200, -200]:
        n, sign = abs(ell) - 1, 1 if ell > 0 else -1
        upper = [[sign * ((j == i + 1) - (j == i)) for j in range(n)] for i in range(n)]
        zero = [[0] * n for _ in range(n)]
        dense = {"++": upper, "+-": zero, "-+": zero, "--": [list(r) for r in zip(*upper)]}
        assert torus_seifert(ell) == seifert_system(2, dense), ell
    # the benchmark's systems, written by an earlier build, read back to the
    # same JSON, and the torus ones are torus_seifert's
    path = Path(__file__).parents[1] / "perfbench" / "expected.json"
    systems = json.loads(path.read_text(encoding="utf-8"))["systems"]
    assert "nontorus" in systems
    for name, data in systems.items():
        s = seifert_from_json(data)
        assert seifert_to_json(s) == data, name
        assert SeifertSystem(s.mu, s.rank, s.entries) == s
        if name.startswith("torus"):
            assert s == torus_seifert(int(name[len("torus"):])), name
