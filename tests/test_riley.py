from functools import lru_cache

import pytest

from knotdeform import riley
from knotdeform.errors import (
    BadCharacteristic,
    NoConjugator,
    NotAField,
    NotARepresentation,
    NotIrreducible,
    PrimeTooLarge,
)
from knotdeform.polynomials import BiPoly, LaurentBiPoly, UniPoly, expand_in_t
from knotdeform.riley import (
    Representation,
    _riley_phi,
    c_matrix,
    c_symbolic,
    d_matrix,
    d_symbolic,
    find_conjugator,
    is_abs_irreducible,
    riley_data,
    riley_rep,
    riley_roots,
    trivial_representation,
    valid_knots,
)
from knotdeform.rings import PadicTruncRing, PrimeField, Rationals
from knotdeform.words import SL2Matrix, TwoBridgeKnot, evaluate_word, schubert_word

Q = Rationals()
F5 = PrimeField(5)
F7 = PrimeField(7)

TREFOIL = TwoBridgeKnot(3, 1)
FIG8 = TwoBridgeKnot(5, 3)


def test_riley_data_trefoil():
    data = riley_data(TREFOIL)
    assert data.Phi == BiPoly({(2, 0): 1, (0, 1): 1, (0, 0): -3})
    assert data.Phi2 == UniPoly([1, 1])
    assert data.disc == 1


def test_riley_data_figure_eight():
    data = riley_data(FIG8)
    assert data.Phi == BiPoly(
        {(0, 2): 1, (2, 1): 1, (0, 1): -5, (2, 0): -1, (0, 0): 5}
    )
    assert data.Phi2 == UniPoly([1, -1, 1])
    assert data.disc == -3


def test_riley_data_b51_round_trip():
    data = riley_data(TwoBridgeKnot(5, 1))
    assert expand_in_t(data.Phi, data.l) == data.phi
    assert data.disc % 2 == 1
    assert data.Phi2.leading() in (1, -1)


def test_phi_round_trip_battery_m45():
    for knot in valid_knots(45):
        data = riley_data(knot)
        assert expand_in_t(data.Phi, data.l) == data.phi, knot


@pytest.mark.parametrize("m, n", [(3, 1), (5, 3), (5, 1), (7, 3), (9, 5)])
def test_word_matrix_is_unimodular(m, n):
    data = riley_data(TwoBridgeKnot(m, n))
    assert data.W.det() == LaurentBiPoly.one()


# b(101,31) has rows of 63-bit coefficients: slots of L/2 bits plus a byte
# pass every knot with m <= 35 but fail there
@pytest.mark.parametrize(
    "knots", [list(valid_knots(35)), [TwoBridgeKnot(101, 31)]], ids=["m<=35", "b(101,31)"]
)
def test_packed_phi_matches_full_word_matrix(knots):
    tinv_minus_t = LaurentBiPoly({(-1, 0): 1, (1, 0): -1})
    for knot in knots:
        word = schubert_word(knot)
        W = evaluate_word(word, c_symbolic(), d_symbolic())
        assert _riley_phi(word).terms == (W[0, 0] + tinv_minus_t * W[0, 1]).terms, knot


def test_word_matrix_stays_lazy(monkeypatch):
    fresh = lru_cache(maxsize=None)(riley._riley_data.__wrapped__)
    monkeypatch.setattr(riley, "_riley_data", fresh)
    data = riley_data(TwoBridgeKnot(7, 3))
    assert "W" not in vars(data)
    assert data.W.det() == LaurentBiPoly.one()


def test_phi_parts_consistency():
    data = riley_data(FIG8)
    tinv_minus_t = LaurentBiPoly({(-1, 0): 1, (1, 0): -1})
    assert data.phi == data.W[0, 0] + tinv_minus_t * data.W[0, 1]
    assert data.Phi.eval_first(2) == data.Phi2


def test_residual_battery_medium():
    count = 0
    for knot in valid_knots(25):
        data = riley_data(knot)
        assert data.Phi2.leading() in (1, -1), knot
        assert data.disc % 2 == 1, knot
        count += 1
    # one knot per coprime odd pair: sum of phi(m) over odd m <= 25
    assert count == 136


def test_riley_roots_examples():
    assert riley_roots(TREFOIL, 7) == {6}
    assert riley_roots(FIG8, 7) == {3, 5}
    assert riley_roots(FIG8, 5) == set()


def test_riley_roots_rejections():
    with pytest.raises(BadCharacteristic):
        riley_roots(TREFOIL, 2)
    with pytest.raises(BadCharacteristic):
        riley_roots(FIG8, 3)  # 3 divides disc = -3
    with pytest.raises(PrimeTooLarge):
        riley_roots(TREFOIL, 10007)


def test_roots_are_nonzero_and_simple():
    for knot in [TREFOIL, FIG8, TwoBridgeKnot(5, 1), TwoBridgeKnot(7, 3)]:
        data = riley_data(knot)
        for p in (3, 5, 7, 11):
            if data.disc % p == 0:
                continue
            field = PrimeField(p)
            dphi = data.Phi2.derivative()
            for root in riley_roots(knot, p):
                assert root != 0
                assert data.Phi2.evaluate(field(root)).is_zero()
                assert not dphi.evaluate(field(root)).is_zero()


def test_riley_rep_trefoil_over_q():
    rho = riley_rep(TREFOIL, Q(1), Q(-1))
    assert rho("a b").entries == ((Q(0), Q(1)), (Q(-1), Q(1)))


def test_riley_rep_rejects_nonroot():
    with pytest.raises(NotARepresentation):
        riley_rep(TREFOIL, Q(1), Q(0))
    with pytest.raises(NotARepresentation):
        riley_rep(TREFOIL, Q(0), Q(-1))


def test_riley_rep_figure_eight_mod7():
    rho = riley_rep(FIG8, F7(1), F7(3))
    w = rho(schubert_word(FIG8))
    assert w * rho.images["a"] == rho.images["b"] * w


def test_factoring_criterion_small():
    for m, n in [(3, 1), (5, 3)]:
        knot = TwoBridgeKnot(m, n)
        data = riley_data(knot)
        word = schubert_word(knot)
        for p in (3, 5):
            if data.disc % p == 0:
                continue
            field = PrimeField(p)
            for a_val in range(1, p):
                alpha = field(a_val)
                ca = c_matrix(alpha)
                x = alpha + alpha.inverse()
                for b_val in range(p):
                    beta = field(b_val)
                    db = d_matrix(alpha, beta)
                    w = evaluate_word(word, ca, db)
                    vanishes = data.Phi.evaluate({"x": x, "u": beta}).is_zero()
                    assert vanishes == ((w * ca) == (db * w))


def test_is_abs_irreducible():
    rho = riley_rep(TREFOIL, F5(1), F5(-1))
    assert is_abs_irreducible(rho)
    assert not is_abs_irreducible(trivial_representation(F5))
    # beta = 0 pair: b maps to the identity, visibly reducible
    reducible = Representation(F5, c_matrix(F5(1)), SL2Matrix.identity_like(F5(1)))
    assert not is_abs_irreducible(reducible)
    with pytest.raises(NotAField):
        ring = PadicTruncRing(5, 2)
        is_abs_irreducible(trivial_representation(ring))


def test_find_conjugator_identity():
    rho = riley_rep(FIG8, F7(1), F7(3))
    gamma = find_conjugator(rho, rho)
    assert gamma.entries[0][0] == F7(1)
    assert gamma.entries[0][1].is_zero()
    assert gamma.entries[1][0].is_zero()


def test_find_conjugator_round_trip():
    rho = riley_rep(FIG8, F7(1), F7(3))
    g0 = SL2Matrix(((F7(1), F7(1)), (F7(0), F7(1))))
    conj = Representation(
        F7,
        g0.inverse() * rho.images["a"] * g0,
        g0.inverse() * rho.images["b"] * g0,
    )
    gamma = find_conjugator(rho, conj)
    # gamma rho gamma^-1 = conj up to scalar: check the intertwining relation
    for word in ("a", "b", "a b^-1 a"):
        assert conj(word) * gamma == gamma * rho(word)
    # and the solver recovers g0^-1 itself (normalized leading entry 1)
    assert gamma.entries == ((F7(1), F7(-1)), (F7(0), F7(1)))


def test_find_conjugator_needs_irreducibility():
    upper = lambda t: SL2Matrix(((F5(1), F5(t)), (F5(0), F5(1))))  # noqa: E731
    rho1 = Representation(F5, upper(1), upper(2))
    rho2 = Representation(F5, upper(0), upper(0))
    with pytest.raises(NotIrreducible):
        find_conjugator(rho1, rho2)


def test_find_conjugator_needs_matching_traces():
    rho1 = riley_rep(FIG8, F7(1), F7(3))
    rho2 = riley_rep(FIG8, F7(1), F7(5))
    with pytest.raises(NoConjugator):
        find_conjugator(rho1, rho2)
