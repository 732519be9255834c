import math

import numpy as np
import pytest

from linksig.chebyshev import eval_T, eval_U


def recurrence_T(m, x):
    """Independent three-term recurrence oracle."""
    prev, cur = 1.0, x
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


def recurrence_U(m, x):
    prev, cur = 1.0, 2 * x
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


def test_eval_T_values():
    assert abs(eval_T(2, 0.5) - (-0.5)) < 1e-15
    for m in (0, 1, 7, 100):
        assert abs(eval_T(m, 1.0) - 1.0) < 1e-12
    assert abs(eval_T(4, math.cos(math.pi / 8))) < 1e-12


def test_eval_U_values():
    assert abs(eval_U(1, -1.0) - (-2.0)) < 1e-15
    for m in (0, 3, 9):
        assert abs(eval_U(m, 1.0) - (m + 1)) < 1e-12
    assert abs(eval_U(2, math.cos(math.pi / 3))) < 1e-12


@pytest.mark.parametrize("m", [0, 1, 2, 5, 9])
def test_matches_recurrence_inside_and_outside(m):
    for x in (-1.5, -0.9, -0.3, 0.0, 0.4, 0.99, 1.5):
        assert abs(eval_T(m, x) - recurrence_T(m, x)) < 1e-9 * max(
            1.0, abs(recurrence_T(m, x))
        )
        assert abs(eval_U(m, x) - recurrence_U(m, x)) < 1e-9 * max(
            1.0, abs(recurrence_U(m, x))
        )


def test_nesting_identity():
    xs = np.linspace(-1.0, 1.0, 1000)
    for m, n in ((2, 3), (3, 4), (5, 7)):
        err = max(abs(eval_T(m, eval_T(n, x)) - eval_T(m * n, x)) for x in xs)
        assert err < 1e-10


def test_pell_identity():
    # 1 - T_m(x)^2 = (1 - x^2) U_{m-1}(x)^2
    xs = np.linspace(-1.0, 1.0, 1000)
    for m in (1, 2, 6, 11):
        err = max(
            abs(1 - eval_T(m, x) ** 2 - (1 - x * x) * eval_U(m - 1, x) ** 2)
            for x in xs
        )
        assert err < 1e-10


def test_roots_U_are_roots_and_simple():
    # the roots of U_m are cos(k pi/(m+1)), k = 1..m
    for m in (5, 8):
        h = 1e-6
        for x in (math.cos(k * math.pi / (m + 1)) for k in range(1, m + 1)):
            assert abs(eval_U(m, x)) < 1e-12
            slope = (eval_U(m, x + h) - eval_U(m, x - h)) / (2 * h)
            assert abs(slope) > 1.0  # simple root, derivative well away from 0


def test_limits_at_one_parity_and_overflow():
    # the limits at +-1 are exact, a value past -1 is the mirror's with the
    # parity sign, and a value past the float range raises OverflowError
    for m in (0, 1, 2, 7, 10**6):
        assert eval_U(m, 1.0) == m + 1
        assert eval_U(m, -1.0) == (-1) ** m * (m + 1)
    for m in (0, 1, 2, 7, 100):
        for x in (1.0 + 2**-52, 1.5, 3.0):
            assert eval_T(m, -x) == (-1) ** m * eval_T(m, x)
            assert eval_U(m, -x) == (-1) ** m * eval_U(m, x)
    with pytest.raises(OverflowError):
        eval_T(10**6, 2.0)
    with pytest.raises(OverflowError):
        eval_U(10**6, -2.0)


def test_degree_guard():
    with pytest.raises(ValueError):
        eval_T(-1, 0.5)
    with pytest.raises(ValueError):
        eval_T(10**6 + 1, 0.5)
    # a degree past the 4300 digits that int -> str gives is shown by that limit
    message = "^degree <int of more than 4300 digits> exceeds guard limit 1000000$"
    with pytest.raises(ValueError, match=message):
        eval_T(10**5000, 0.5)
    with pytest.raises(TypeError):
        eval_U(2.5, 0.5)
    # a bool is no degree, as it is no ell and no angle numerator
    for flag in (True, False):
        for f in (eval_T, eval_U):
            with pytest.raises(TypeError, match="is no int"):
                f(flag, 0.5)
