import math

import numpy as np
import pytest

from linksig.su2 import I, J, K, UnitQuaternion, act, qinv, qpow
from linksig.torus_rep import torus_braid

ONE = UnitQuaternion(1.0, 0.0, 0.0, 0.0)


def random_unit(rng) -> UnitQuaternion:
    v = rng.normal(size=4)
    return UnitQuaternion(*v)


def components(q) -> tuple:
    """(a, b, c, d) of a UnitQuaternion or of a 4-tuple."""
    return q if isinstance(q, tuple) else (q.a, q.b, q.c, q.d)


def close(p, q) -> bool:
    """p and q agree componentwise to within 1e-10."""
    return all(abs(x - y) <= 1e-10 for x, y in zip(components(p), components(q)))


def test_multiplication_table():
    assert close(J * I, UnitQuaternion(0, 0, 0, -1))  # j*i = -k
    assert close(I * J, K)
    assert close(J * K, I)
    assert close(K * I, J)


def test_identity_element():
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = random_unit(rng)
        assert close(q * ONE, q)
        assert close(ONE * q, q)


def test_complex_subalgebra_square():
    # e^{i pi/4} squared is i
    q = UnitQuaternion(math.cos(math.pi / 4), math.sin(math.pi / 4), 0, 0)
    assert close(q * q, I)


def test_product_stays_unit():
    rng = np.random.default_rng(1)
    q = random_unit(rng)
    for _ in range(2000):
        q = q * random_unit(rng)
        n2 = q.a**2 + q.b**2 + q.c**2 + q.d**2
        assert abs(n2 - 1.0) < 1e-12


def test_integer_powers():
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = random_unit(rng)
        brute = ONE
        for _ in range(11):
            brute = brute * q
        t = components(q)
        assert close(qpow(t, 11), brute)
        assert close(qpow(t, -3), qinv(qpow(t, 3)))
        assert close(qpow(t, 0), ONE)


def closure_components(word: tuple[int, ...], strands: int) -> tuple[int, ...]:
    """The closure component through each top strand, numbered from 1: the
    cycles of the braid's permutation."""
    pos = list(range(strands))
    for w in word:
        i = abs(w) - 1
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    colors = [0] * strands
    count = 0
    for start in range(strands):
        if colors[start]:
            continue
        count += 1
        k = start
        while not colors[k]:
            colors[k] = count
            k = pos[k]
    return tuple(colors)


def test_act_generator_on_j_i():
    # hand oracle: j * i * j^{-1} = (-k) * (-j) = kj = -i
    out = act((1,), (J, I))
    assert close(out[0], UnitQuaternion(0, -1, 0, 0))
    assert close(out[1], J)


def test_act_inverse_roundtrip():
    rng = np.random.default_rng(3)
    word = (1, -2, 3, 3, -1)
    back = word + tuple(-w for w in reversed(word))
    tup = tuple(random_unit(rng) for _ in range(4))
    out = act(back, tup)
    for a, b in zip(out, tup):
        assert close(a, b)


@pytest.mark.parametrize("ell", [1, 2, 5, 8, -3])
def test_act_even_power_is_conjugation_by_product_power(ell):
    rng = np.random.default_rng(4 + ell)
    for _ in range(4):
        x1, x2 = random_unit(rng), random_unit(rng)
        y1, y2 = act(torus_braid(ell), (x1, x2))
        g = UnitQuaternion(*qpow(components(x1 * x2), ell))
        assert close(y1, g * x1 * g.inverse())
        assert close(y2, g * x2 * g.inverse())


def test_act_length_mismatch():
    with pytest.raises(ValueError, match="out of range for 2 strands"):
        act((1, 2), (I, J))
    with pytest.raises(ValueError, match="generator index 2 out of range"):
        act((2,), (I, J))
    # an index past the 4300 digits that int -> str gives is shown by that limit
    with pytest.raises(ValueError, match="^generator index <int of more than 4300 digits> out"):
        act((10**5000,), (I, J))


def test_act_preserves_product_and_traces():
    rng = np.random.default_rng(5)
    word = (1, 1, -3, 2, 2, 3, 3)
    coloring = closure_components(word, 4)
    assert coloring == (1, 2, 3, 3)
    for _ in range(10):
        tup = tuple(random_unit(rng) for _ in range(4))
        out = act(word, tup)
        before = tup[0] * tup[1] * tup[2] * tup[3]
        after = out[0] * out[1] * out[2] * out[3]
        assert close(before, after)
        for color in set(coloring):
            tr_before = sorted(
                2.0 * q.a for q, c in zip(tup, coloring) if c == color
            )
            tr_after = sorted(
                2.0 * q.a for q, c in zip(out, coloring) if c == color
            )
            assert np.allclose(tr_before, tr_after, atol=1e-10)


def test_act_is_right_action():
    rng = np.random.default_rng(6)
    w1 = (1, -2, 1)
    w2 = (2, 2, -1)
    tup = tuple(random_unit(rng) for _ in range(3))
    combined = act(w1 + w2, tup)
    staged = act(w2, act(w1, tup))
    for a, b in zip(combined, staged):
        assert close(a, b)


def test_act_conjugation_equivariance():
    rng = np.random.default_rng(7)
    word = (1, 2, -1, 2)
    g = random_unit(rng)
    tup = tuple(random_unit(rng) for _ in range(3))
    conj_tup = tuple(g * q * g.inverse() for q in tup)
    lhs = act(word, conj_tup)
    rhs = tuple(g * q * g.inverse() for q in act(word, tup))
    for a, b in zip(lhs, rhs):
        assert close(a, b)
