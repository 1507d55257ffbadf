import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotdeform.errors import InvalidKnot, NotUnimodular, WordSyntaxError
from knotdeform.riley import c_matrix, d_matrix
from knotdeform.rings import PrimeField, Rationals
from knotdeform.words import (
    FreeWord,
    SL2Matrix,
    TwoBridgeKnot,
    epsilon_sequence,
    evaluate_word,
    schubert_word,
)

Q = Rationals()
F7 = PrimeField(7)


@pytest.mark.parametrize(
    "m, n",
    [(4, 1), (-3, 1), (3, 2), (3, 3), (3, 5), (9, 3), (1, 1)],
)
def test_invalid_knots(m, n):
    with pytest.raises(InvalidKnot):
        TwoBridgeKnot(m, n)


def test_epsilon_examples():
    assert epsilon_sequence(TwoBridgeKnot(3, 1)) == (1, 1)
    assert epsilon_sequence(TwoBridgeKnot(5, 3)) == (1, -1, -1, 1)
    # floor oracle for b(7,5): floor(5i/7) for i = 1..6 is 0,1,2,2,3,4
    assert epsilon_sequence(TwoBridgeKnot(7, 5)) == (1, -1, 1, 1, -1, 1)


def test_epsilon_negative_n_uses_floor():
    # floor(-3i/5) = -1, -2, -2, -3; truncation would break the palindrome
    assert epsilon_sequence(TwoBridgeKnot(5, -3)) == (-1, 1, 1, -1)


def test_epsilon_palindrome_battery():
    from knotdeform.riley import valid_knots

    for knot in valid_knots(99):
        eps = epsilon_sequence(knot)
        m = knot.m
        assert all(eps[i - 1] == eps[m - i - 1] for i in range(1, m))


def test_schubert_word_examples():
    assert str(schubert_word(TwoBridgeKnot(3, 1))) == "a b"
    assert str(schubert_word(TwoBridgeKnot(5, 3))) == "a b^-1 a^-1 b"
    assert str(schubert_word(TwoBridgeKnot(5, 1))) == "a b a b"


def test_schubert_word_shape():
    from knotdeform.riley import valid_knots

    for knot in valid_knots(35):
        word = schubert_word(knot)
        assert len(word) == knot.m - 1
        gens = [g for g, _ in word.letters]
        assert gens == ["a", "b"] * ((knot.m - 1) // 2)


def test_word_ops_examples():
    ab = FreeWord.from_string("a b")
    binv_a = FreeWord.from_string("b^-1 a")
    assert ab * binv_a == FreeWord.from_string("a^2")
    assert FreeWord.from_string("a b^-1").inverse() == FreeWord.from_string("b a^-1")
    w = FreeWord.from_string("a b^-1 a^-1 b")
    assert (w * w.inverse()).is_empty()


def test_word_parsing_syntaxes():
    assert FreeWord.from_string("aB Ab") == FreeWord.from_string("a b^-1 a^-1 b")
    assert FreeWord.from_string("1") == FreeWord.empty()
    assert str(FreeWord.from_string("aa")) == "a^2"
    with pytest.raises(WordSyntaxError):
        FreeWord.from_string("a c")
    with pytest.raises(WordSyntaxError):
        FreeWord.from_string("a^x")


def test_word_power():
    w = FreeWord.from_string("a b")
    assert str(w**2) == "a b a b"
    assert w**0 == FreeWord.empty()
    assert w**-1 == w.inverse()
    w = FreeWord.from_string("a^2 b^-1 a")
    for k in range(-6, 7):
        expected = FreeWord.empty()
        for _ in range(abs(k)):
            expected = expected * (w if k > 0 else w.inverse())
        assert w**k == expected, k


def test_sl2_power_with_a_huge_exponent():
    p = 10007
    F = PrimeField(p)
    shear = SL2Matrix(((F(1), F(1)), (F(0), F(1))))
    for k in (10**18, -(10**18)):
        assert shear**k == SL2Matrix(((F(1), F(k % p)), (F(0), F(1))))


letters = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(-3, 3)), max_size=8
)


@given(letters)
def test_free_reduction_canonical(raw):
    w = FreeWord(raw)
    for (g1, e1), (g2, e2) in zip(w.letters, w.letters[1:]):
        assert g1 != g2
        assert e1 != 0 and e2 != 0
    assert (w * w.inverse()).is_empty()


@given(letters, letters, letters)
@settings(max_examples=50)
def test_word_multiplication_associative(r1, r2, r3):
    u, v, w = FreeWord(r1), FreeWord(r2), FreeWord(r3)
    assert (u * v) * w == u * (v * w)


def test_evaluate_word_examples():
    ma = c_matrix(Q(1))
    mb = d_matrix(Q(1), Q(-1))
    assert evaluate_word(FreeWord.empty(), ma, mb) == SL2Matrix.identity_like(Q(1))
    w = evaluate_word(FreeWord.from_string("a b"), ma, mb)
    assert w.entries == ((Q(0), Q(1)), (Q(-1), Q(1)))
    assert evaluate_word(FreeWord.from_string("a^-1 a"), ma, mb) == \
        SL2Matrix.identity_like(Q(1))


def _random_word(rng, max_len):
    return FreeWord(
        [(rng.choice("ab"), rng.choice([-2, -1, 1, 2]))
         for _ in range(rng.randrange(max_len))]
    )


def test_evaluate_word_is_homomorphism():
    rng = random.Random(31)
    from knotdeform.pseudorep import random_sl2

    for _ in range(25):
        ma = random_sl2(rng, F7)
        mb = random_sl2(rng, F7)
        u = _random_word(rng, 4)
        v = _random_word(rng, 4)
        eu = evaluate_word(u, ma, mb)
        ev = evaluate_word(v, ma, mb)
        assert evaluate_word(u * v, ma, mb) == eu * ev
        assert evaluate_word(u.inverse(), ma, mb) == eu.inverse()
        assert eu.det() == F7(1)


def test_sl2_det_check():
    with pytest.raises(NotUnimodular):
        SL2Matrix(((Q(1), Q(1)), (Q(1), Q(1))))
    m = SL2Matrix(((Q(2), Q(3)), (Q(1), Q(2))))
    assert m * m.inverse() == SL2Matrix.identity_like(Q(1))
    assert m**-2 == (m * m).inverse()
    assert m.trace() == Q(4)
