import math

import numpy as np
import pytest

from linksig.su2 import (
    I,
    J,
    K,
    ONE,
    ColoredBraidWord,
    UnitQuaternion,
    act,
    closure_linking_number,
)


def random_unit(rng) -> UnitQuaternion:
    v = rng.normal(size=4)
    return UnitQuaternion(*v)


def test_multiplication_table():
    assert (J * I).isclose(UnitQuaternion(0, 0, 0, -1))  # j*i = -k
    assert (I * J).isclose(K)
    assert (J * K).isclose(I)
    assert (K * I).isclose(J)


def test_identity_element():
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = random_unit(rng)
        assert (q * ONE).isclose(q)
        assert (ONE * q).isclose(q)


def test_complex_subalgebra_square():
    # e^{i pi/4} squared is i
    q = UnitQuaternion(math.cos(math.pi / 4), math.sin(math.pi / 4), 0, 0)
    assert (q * q).isclose(I)


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
        assert (q**11).isclose(brute)
        assert (q**-3).isclose((q**3).inverse())
        assert (q**0).isclose(ONE)


def sigma1_squared_word(ell: int) -> ColoredBraidWord:
    letter = 1 if ell > 0 else -1
    return ColoredBraidWord(2, (letter,) * (2 * abs(ell)), (1, 2))


def test_act_generator_on_j_i():
    # hand oracle: j * i * j^{-1} = (-k) * (-j) = kj = -i
    word = ColoredBraidWord(2, (1,), (1, 1))
    out = act(word, (J, I))
    assert out[0].isclose(UnitQuaternion(0, -1, 0, 0))
    assert out[1].isclose(J)


def test_act_inverse_roundtrip():
    rng = np.random.default_rng(3)
    word = ColoredBraidWord(4, (1, -2, 3, 3, -1), (1,) * 4)
    inverse = tuple(-w for w in reversed(word.word))
    back = ColoredBraidWord(4, word.word + inverse, word.coloring)
    tup = tuple(random_unit(rng) for _ in range(4))
    out = act(back, tup)
    for a, b in zip(out, tup):
        assert a.isclose(b)


@pytest.mark.parametrize("ell", [1, 2, 5, 8, -3])
def test_act_even_power_is_conjugation_by_product_power(ell):
    rng = np.random.default_rng(4 + ell)
    for _ in range(4):
        x1, x2 = random_unit(rng), random_unit(rng)
        y1, y2 = act(sigma1_squared_word(ell), (x1, x2))
        g = (x1 * x2) ** ell
        assert y1.isclose(g * x1 * g.inverse(), tol=1e-10)
        assert y2.isclose(g * x2 * g.inverse(), tol=1e-10)


def test_act_length_mismatch():
    word = ColoredBraidWord(3, (1, 2), (1, 1, 1))
    with pytest.raises(ValueError):
        act(word, (I, J))


def test_act_preserves_product_and_traces():
    rng = np.random.default_rng(5)
    word = ColoredBraidWord(4, (1, 1, -3, 2, 2, 3, 3), (1, 1, 2, 2))
    for _ in range(10):
        tup = tuple(random_unit(rng) for _ in range(4))
        out = act(word, tup)
        before = tup[0] * tup[1] * tup[2] * tup[3]
        after = out[0] * out[1] * out[2] * out[3]
        assert before.isclose(after, tol=1e-10)
        for color in (1, 2):
            tr_before = sorted(
                2.0 * q.a for q, c in zip(tup, word.coloring) if c == color
            )
            tr_after = sorted(
                2.0 * q.a for q, c in zip(out, word.coloring) if c == color
            )
            assert np.allclose(tr_before, tr_after, atol=1e-10)


def test_act_is_right_action():
    rng = np.random.default_rng(6)
    w1 = ColoredBraidWord(3, (1, -2, 1), (1, 1, 1))
    w2 = ColoredBraidWord(3, (2, 2, -1), (1, 1, 1))
    tup = tuple(random_unit(rng) for _ in range(3))
    combined = act(ColoredBraidWord(3, w1.word + w2.word, (1, 1, 1)), tup)
    staged = act(w2, act(w1, tup))
    for a, b in zip(combined, staged):
        assert a.isclose(b, tol=1e-10)


def test_act_conjugation_equivariance():
    rng = np.random.default_rng(7)
    word = ColoredBraidWord(3, (1, 2, -1, 2), (1, 1, 1))
    g = random_unit(rng)
    tup = tuple(random_unit(rng) for _ in range(3))
    conj_tup = tuple(g * q * g.inverse() for q in tup)
    lhs = act(word, conj_tup)
    rhs = tuple(g * q * g.inverse() for q in act(word, tup))
    for a, b in zip(lhs, rhs):
        assert a.isclose(b, tol=1e-10)


def crossing_count_oracle(word: ColoredBraidWord, ca: int, cb: int) -> int:
    """Walk the word tracking strand positions and count signed crossings."""
    pos = list(range(word.strands))
    signed = 0
    for w in word.word:
        i = abs(w) - 1
        colors = {word.coloring[pos[i]], word.coloring[pos[i + 1]]}
        if colors == {ca, cb}:
            signed += 1 if w > 0 else -1
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    assert signed % 2 == 0
    return signed // 2


def test_closure_linking_number_examples():
    assert closure_linking_number(sigma1_squared_word(3), 1, 2) == 3
    assert closure_linking_number(ColoredBraidWord(2, (), (1, 2)), 1, 2) == 0
    assert closure_linking_number(sigma1_squared_word(-2), 1, 2) == -2


def test_closure_linking_number_against_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = 4
        coloring = (1, 1, 2, 2)
        letters = []
        for _ in range(rng.integers(0, 12)):
            letters.append(int(rng.choice([-3, -2, -1, 1, 2, 3])))
        # square the word so the permutation is even enough to fix colors often;
        # retry until the coloring is preserved
        try:
            word = ColoredBraidWord(n, tuple(letters + letters), coloring)
        except ValueError:
            continue
        assert closure_linking_number(word, 1, 2) == crossing_count_oracle(word, 1, 2)


def test_closure_linking_number_unknown_color():
    word = sigma1_squared_word(2)
    with pytest.raises(ValueError):
        closure_linking_number(word, 1, 3)
    with pytest.raises(ValueError):
        closure_linking_number(word, 2, 2)


def test_colored_word_validation():
    with pytest.raises(ValueError):
        ColoredBraidWord(2, (2,), (1, 2))  # index out of range
    with pytest.raises(ValueError):
        ColoredBraidWord(2, (), (1, 3))  # not surjective
    with pytest.raises(ValueError):
        ColoredBraidWord(2, (1,), (1, 2))  # odd power swaps the colors
